package temporal

import (
	"testing"
	"testing/quick"
)

func TestNewInterval(t *testing.T) {
	if _, err := NewInterval(5, 3); err == nil {
		t.Error("expected error for inverted interval")
	}
	iv, err := NewInterval(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Start != 3 || iv.End != 5 || iv.IsInstant() {
		t.Errorf("NewInterval(3, 5) = %v", iv)
	}
}

func TestInstantInterval(t *testing.T) {
	iv := At(7)
	if !iv.IsInstant() {
		t.Error("At must be degenerate")
	}
	if !iv.Contains(At(7)) || iv.Contains(At(8)) {
		t.Error("instant containment wrong")
	}
	if iv.String() != "@7" {
		t.Errorf("String = %q", iv.String())
	}
	if MustInterval(1, 2).String() != "[1, 2]" {
		t.Errorf("String = %q", MustInterval(1, 2).String())
	}
}

func TestIntersects(t *testing.T) {
	cases := []struct {
		a, b Interval
		want bool
	}{
		{MustInterval(0, 10), MustInterval(5, 15), true},
		{MustInterval(0, 10), MustInterval(10, 20), true}, // closed endpoint contact
		{MustInterval(0, 10), MustInterval(11, 20), false},
		{At(5), MustInterval(0, 10), true},
		{At(5), At(5), true},
		{At(5), At(6), false},
		{MustInterval(0, 100), MustInterval(40, 60), true},
	}
	for i, c := range cases {
		if got := c.a.Intersects(c.b); got != c.want {
			t.Errorf("case %d: %v ∩ %v = %v, want %v", i, c.a, c.b, got, c.want)
		}
		if got := c.b.Intersects(c.a); got != c.want {
			t.Errorf("case %d swapped: got %v", i, got)
		}
	}
}

func TestContains(t *testing.T) {
	outer := MustInterval(0, 100)
	if !outer.Contains(MustInterval(10, 20)) {
		t.Error("nested containment failed")
	}
	if !outer.Contains(outer) {
		t.Error("self containment failed")
	}
	if outer.Contains(MustInterval(50, 150)) {
		t.Error("overhang must not be contained")
	}
	if !outer.Contains(At(0)) || !outer.Contains(At(100)) {
		t.Error("endpoints must be contained (closed interval)")
	}
}

func normPair(x, y int32) Interval {
	a, b := int64(x), int64(y)
	if a > b {
		a, b = b, a
	}
	return Interval{Start: Instant(a), End: Instant(b)}
}

func TestPropIntersectsSymmetric(t *testing.T) {
	f := func(x1, y1, x2, y2 int32) bool {
		a, b := normPair(x1, y1), normPair(x2, y2)
		return a.Intersects(b) == b.Intersects(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropContainsImpliesIntersects(t *testing.T) {
	f := func(x1, y1, x2, y2 int32) bool {
		a, b := normPair(x1, y1), normPair(x2, y2)
		return !a.Contains(b) || a.Intersects(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// smallPair draws an interval with endpoints in [-7, 7], so that equal
// endpoints, and with them every Allen relation, occur.
func smallPair(x, y int8) Interval { return normPair(int32(x%8), int32(y%8)) }

// TestPropIntersectsIsUnionOfAllenRelations: two intervals intersect
// unless one lies wholly before the other — Allen's before and after.
func TestPropIntersectsIsUnionOfAllenRelations(t *testing.T) {
	f := func(x1, y1, x2, y2 int8) bool {
		a, b := smallPair(x1, y1), smallPair(x2, y2)
		before, after := a.End < b.Start, b.End < a.Start
		return a.Intersects(b) == !(before || after)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropContainsIsUnionOfAllenRelations: a contains b exactly when
// Allen's relation of a to b is contains, started-by, finished-by or
// equal.
func TestPropContainsIsUnionOfAllenRelations(t *testing.T) {
	f := func(x1, y1, x2, y2 int8) bool {
		a, b := smallPair(x1, y1), smallPair(x2, y2)
		contains := a.Start < b.Start && b.End < a.End
		startedBy := a.Start == b.Start && b.End < a.End
		finishedBy := a.Start < b.Start && a.End == b.End
		return a.Contains(b) == (contains || startedBy || finishedBy || a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
