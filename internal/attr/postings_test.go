package attr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// scanPostings answers p by brute force over col through Pred.Matches,
// in the order the postings promise: by value, then by arrival.
func scanPostings(col []Value, p Pred) []int32 {
	var rows []int32
	for i, v := range col {
		if p.Matches(v) {
			rows = append(rows, int32(i))
		}
	}
	slices.SortStableFunc(rows, func(a, b int32) int { return col[a].Compare(col[b]) })
	return rows
}

// build files col into an index and runs Check on it.
func build(t testing.TB, col []Value) *Index {
	t.Helper()
	ix := BuildIndex("f", KindInt64, col)
	if err := ix.Check(); err != nil {
		t.Fatalf("after %d values: %v", len(col), err)
	}
	return ix
}

// comparePostings holds the index of col to the scan on every
// predicate, entry for entry and in order, and to the column's size
// across a walk of all values.
func comparePostings(t testing.TB, col []Value, ix *Index, preds []Pred) {
	t.Helper()
	entries := 0
	for _, list := range ix.All() {
		entries += len(list)
	}
	if entries != len(col) {
		t.Fatalf("walk holds %d entries, column %d", entries, len(col))
	}
	for _, p := range preds {
		want := scanPostings(col, p)
		var got []int32
		n := ix.Postings(p, func(row int32) { got = append(got, row) })
		if !slices.Equal(got, want) {
			t.Fatalf("%s: postings give %v, scan gives %v", p, got, want)
		}
		if n != len(want) || ix.Postings(p, nil) != len(want) {
			t.Fatalf("%s: count %d (nil yield %d), scan gives %d", p, n, ix.Postings(p, nil), len(want))
		}
	}
}

// predsOver draws one predicate per operator with operands of col's
// kind, taken from col (so Eq and In hit) and from draw.
func predsOver(rng *rand.Rand, col []Value, draw func() Value) []Pred {
	operand := func() Value {
		if len(col) > 0 && rng.Intn(2) == 0 {
			return col[rng.Intn(len(col))]
		}
		return draw()
	}
	lo, hi := operand(), operand()
	if lo.Compare(hi) > 0 {
		lo, hi = hi, lo
	}
	preds := []Pred{
		{Op: OpBetween, Lo: lo, Hi: hi},
		{Op: OpBetween, Lo: hi, Hi: lo}, // empty unless lo == hi
		// As the chain compiles a set: sorted, no duplicates.
		Pred{Op: OpIn, Set: []Value{operand(), operand(), operand()}}.Canonicalize(),
	}
	for _, op := range []Op{OpEq, OpLt, OpLe, OpGt, OpGe} {
		preds = append(preds, Pred{Op: op, Lo: operand()})
	}
	for i := range preds {
		preds[i].Field = "f"
	}
	return preds
}

// drawFor returns a value generator of the kind with about distinct
// values; float columns add NaN, both zeros and the infinities.
func drawFor(rng *rand.Rand, kind Kind, distinct int) func() Value {
	switch kind {
	case KindInt64:
		return func() Value { return intValue(int64(rng.Intn(distinct) - distinct/2)) }
	case KindFloat64:
		return func() Value {
			switch rng.Intn(20) {
			case 0:
				return floatValue(math.NaN())
			case 1:
				return floatValue(math.Copysign(0, -1))
			case 2:
				return floatValue(math.Inf(2*rng.Intn(2) - 1))
			}
			return floatValue(float64(rng.Intn(distinct)-distinct/2) / 4)
		}
	case KindString:
		return func() Value { return String(fmt.Sprintf("v%04d", rng.Intn(distinct))) }
	}
	return func() Value { return boolValue(rng.Intn(2) == 0) }
}

// TestPostingsDifferential builds random columns of every kind and
// holds every operator's postings to a Matches scan. Columns run from
// heavy duplicates to all but distinct values.
func TestPostingsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, kind := range []Kind{KindInt64, KindFloat64, KindString, KindBool} {
		for _, shape := range []struct{ n, distinct int }{{0, 1}, {1, 1}, {300, 3}, {900, 40}, {1500, 600}, {1200, 5000}} {
			draw := drawFor(rng, kind, shape.distinct)
			col := make([]Value, shape.n)
			for i := range col {
				col[i] = draw()
			}
			t.Run(fmt.Sprintf("%s/n=%d/distinct=%d", kind, shape.n, shape.distinct), func(t *testing.T) {
				ix := build(t, col)
				for round := 0; round < 20; round++ {
					comparePostings(t, col, ix, predsOver(rng, col, draw))
				}
			})
		}
	}
}

// TestPostingsNaN pins the order NaN files under: below every number,
// one slot for every NaN, so it satisfies Lt and Le only.
func TestPostingsNaN(t *testing.T) {
	nan := floatValue(math.NaN())
	col := []Value{floatValue(50), nan, floatValue(-1e300), nan, floatValue(math.Inf(-1)), floatValue(51)}
	ix := BuildIndex("f", KindFloat64, col)
	for _, c := range []struct {
		op   Op
		want []int32
	}{
		{OpEq, []int32{0}},
		{OpLt, []int32{1, 3, 4, 2}},
		{OpLe, []int32{1, 3, 4, 2, 0}},
		{OpGt, []int32{5}},
		{OpGe, []int32{0, 5}},
	} {
		p := Pred{Field: "f", Op: c.op, Lo: floatValue(50)}
		var got []int32
		ix.Postings(p, func(row int32) { got = append(got, row) })
		if !slices.Equal(got, c.want) || !slices.Equal(scanPostings(col, p), c.want) {
			t.Errorf("%s: postings %v, scan %v, want %v", p, got, scanPostings(col, p), c.want)
		}
	}
	slots := 0
	for v := range ix.All() {
		if slots++; slots == 1 && !math.IsNaN(v.F) {
			t.Errorf("first value %s, want NaN", v)
		}
	}
	if slots != 5 {
		t.Errorf("%d values filed, want 5 (the NaNs share one)", slots)
	}
}

// TestPostingsCheckCatchesDamage makes sure the structural checker is
// not vacuous: each kind of damage it is there for must be reported.
func TestPostingsCheckCatchesDamage(t *testing.T) {
	build := func() *Index {
		col := make([]Value, 300)
		for i := range col {
			col[i] = intValue(int64(i % 100))
		}
		return BuildIndex("f", KindInt64, col)
	}
	if err := build().Check(); err != nil {
		t.Fatal(err)
	}
	for name, damage := range map[string]func(ix *Index){
		"order":  func(ix *Index) { ix.vals[3], ix.vals[4] = ix.vals[4], ix.vals[3] },
		"repeat": func(ix *Index) { ix.vals[5] = ix.vals[4] },
		"bare":   func(ix *Index) { ix.at[6] = ix.at[7] },
		"rows":   func(ix *Index) { r := ix.rows[ix.at[2]:]; r[0], r[1] = r[1], r[0] },
		"cut":    func(ix *Index) { ix.at = ix.at[:len(ix.at)-1] },
		"lost":   func(ix *Index) { ix.rows = ix.rows[:len(ix.rows)-1] },
	} {
		ix := build()
		damage(ix)
		if err := ix.Check(); err == nil {
			t.Errorf("%s: damage not reported", name)
		}
	}
}

// FuzzPostings drives the index from raw bytes: the first picks the
// kind, the second seeds the operand draws, each later byte is one
// value (small ranges, so values repeat; 0xff is NaN in a float
// column).
func FuzzPostings(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 1, 9, 9, 0})
	f.Add([]byte{1, 2, 0xff, 4, 0xff, 7, 0, 0x80})
	f.Add([]byte{2, 0, 'a', 'b', 'a', 'z'})
	f.Add([]byte{3, 1, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		data = data[:min(len(data), 138)] // the checks are quadratic
		kind := Kind(data[0]%4) + KindInt64
		value := func(b byte) Value {
			switch kind {
			case KindInt64:
				return intValue(int64(b) - 128)
			case KindFloat64:
				if b == 0xff {
					return floatValue(math.NaN())
				}
				return floatValue(float64(int(b)-128) / 4)
			case KindString:
				return String(string(rune('a' + b%32)))
			}
			return boolValue(b%2 == 0)
		}
		col := make([]Value, len(data)-2)
		for i, b := range data[2:] {
			col[i] = value(b)
		}
		rng := rand.New(rand.NewSource(int64(data[1])))
		draw := func() Value { return value(byte(rng.Intn(256))) }
		ix := build(t, col)
		comparePostings(t, col, ix, predsOver(rng, col, draw))
		// The first values as bounds, so Eq hits whatever the column holds.
		for _, v := range col[:min(len(col), 16)] {
			comparePostings(t, col, ix, []Pred{{Field: "f", Op: OpEq, Lo: v}, {Field: "f", Op: OpLe, Lo: v}})
		}
	})
}

// oracleIndex is BuildIndex with every column comparison-sorted, as
// strings and mixed kinds are: the order the radix keys must reproduce.
func oracleIndex(column []Value) *Index {
	rows := make([]int32, len(column))
	for i := range rows {
		rows[i] = int32(i)
	}
	slices.SortStableFunc(rows, func(a, b int32) int { return column[a].Compare(column[b]) })
	ix := &Index{rows: rows}
	for k, r := range rows {
		if k == 0 || column[r].Compare(column[rows[k-1]]) != 0 {
			ix.at = append(ix.at, int32(k))
			ix.vals = append(ix.vals, column[r])
		}
	}
	ix.at = append(ix.at, int32(len(rows)))
	return ix
}

// sameBits reports whether two values are the same bit for bit, so
// that NaN equals NaN and −0 differs from +0.
func sameBits(a, b Value) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S && a.B == b.B
}

// TestBuildIndexEqualsComparisonSort holds the radix-sorted postings
// (numbers, booleans, and strings by rank) to the comparison sort: the
// same rows, cuts and values, each value the bits of its first row.
// Float columns carry NaNs and both zeros; one column mixes kinds.
func TestBuildIndexEqualsComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	mixed := drawFor(rng, KindInt64, 5)
	cols := []struct {
		name string
		kind Kind
		draw func() Value
	}{
		{"int", KindInt64, drawFor(rng, KindInt64, 300)},
		{"float", KindFloat64, drawFor(rng, KindFloat64, 40)},
		{"string", KindString, drawFor(rng, KindString, 30)},
		{"bool", KindBool, drawFor(rng, KindBool, 2)},
		{"mixed", KindString, func() Value {
			if rng.Intn(2) == 0 {
				return String("x")
			}
			return mixed()
		}},
	}
	for _, c := range cols {
		for _, n := range []int{0, 1, 2, 1000, 20_000} {
			col := make([]Value, n)
			for i := range col {
				col[i] = c.draw()
			}
			name, got, want := c.name, BuildIndex("f", c.kind, col), oracleIndex(col)
			if !slices.Equal(got.rows, want.rows) || !slices.Equal(got.at, want.at) {
				t.Fatalf("%s, %d rows: rows or cuts differ from the comparison sort", name, n)
			}
			if !slices.EqualFunc(got.vals, want.vals, sameBits) {
				t.Fatalf("%s, %d rows: values %v, want %v", name, n, got.vals, want.vals)
			}
		}
	}
}
