package index

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"stark/internal/attr"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/stobject"
)

type row = engine.Pair[stobject.STObject, int]

// randomRows returns n rows valued 0..n-1 whose keys are points,
// rectangles and triangles, with a POINT EMPTY, a point with a NaN
// coordinate and a triangle with a NaN vertex among them.
func randomRows(rng *rand.Rand, n int) []row {
	rows := make([]row, n)
	for i := range rows {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		w, h := rng.Float64()*40, rng.Float64()*40
		var key stobject.STObject
		switch k := rng.Intn(20); {
		case k == 0:
			key, _ = stobject.FromWKT("POINT EMPTY")
		case k == 1:
			key = stobject.New(geom.NewPoint(x, math.NaN()))
		case k == 2:
			key = polygon(geom.NewPoint(x, y), geom.NewPoint(x+w, math.NaN()), geom.NewPoint(x, y+h))
		case k < 10:
			key = stobject.New(geom.NewPoint(x, y))
		case k < 15:
			key = polygon(geom.NewPoint(x, y), geom.NewPoint(x+w, y), geom.NewPoint(x+w, y+h), geom.NewPoint(x, y+h))
		default:
			key = polygon(geom.NewPoint(x, y), geom.NewPoint(x+w, y+h/2), geom.NewPoint(x, y+h))
		}
		rows[i] = engine.NewPair(key, i)
	}
	return rows
}

// polygon closes pts into a polygon key; a ring the constructor refuses
// makes a POINT EMPTY.
func polygon(pts ...geom.Point) stobject.STObject {
	p, err := geom.NewPolygonFromPoints(append(pts, pts[0]))
	if err != nil {
		key, _ := stobject.FromWKT("POINT EMPTY")
		return key
	}
	return stobject.New(p)
}

// randomWindow returns a query window: mostly a box, sometimes a point,
// the whole space or the empty envelope.
func randomWindow(rng *rand.Rand) geom.Envelope {
	x, y := rng.Float64()*1100-50, rng.Float64()*1100-50
	switch rng.Intn(10) {
	case 0:
		return geom.NewEnvelope(x, y, x, y)
	case 1:
		return geom.NewEnvelope(-1e9, -1e9, 1e9, 1e9)
	case 2:
		return geom.EmptyEnvelope()
	}
	return geom.NewEnvelope(x, y, x+rng.Float64()*200, y+rng.Float64()*200)
}

// searched is what Search yields from from on, checked to ascend
// strictly.
func searched(t *testing.T, l *Laid[int], env geom.Envelope, from int) []int {
	t.Helper()
	var got []int
	if !l.Search(env, from, func(pos int) bool {
		if len(got) > 0 && pos <= got[len(got)-1] {
			t.Fatalf("position %d after %d", pos, got[len(got)-1])
		}
		got = append(got, pos)
		return true
	}) {
		t.Fatal("a search whose fn never stops reports it stopped")
	}
	return got
}

// brute is every position from from on whose key envelope meets env.
func brute(l *Laid[int], env geom.Envelope, from int) []int {
	var want []int
	for pos := from; pos < len(l.Rows); pos++ {
		if l.Rows[pos].Key.EnvelopeIntersects(env) {
			want = append(want, pos)
		}
	}
	return want
}

// TestLaidSearchMatchesBruteForce holds Search to a brute-force filter
// over EnvelopeIntersects, at every order from 2 to 16, over random
// windows and random starting positions.
func TestLaidSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for order := 2; order <= 16; order++ {
		rows := randomRows(rng, rng.Intn(600))
		l, _ := Lay(order, rows, nil, false)
		if err := l.Check(nil); err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		for i := 0; i < 40; i++ {
			env, from := randomWindow(rng), rng.Intn(len(rows)+1)
			if got, want := searched(t, l, env, from), brute(l, env, from); !slices.Equal(got, want) {
				t.Fatalf("order %d, %d rows, window %v from %d: %d positions, want %d", order, len(rows), env, from, len(got), len(want))
			}
		}
	}
}

// TestLaidSearchEveryFrom runs a small partition from every position,
// past the end included.
func TestLaidSearchEveryFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	l, _ := Lay(3, randomRows(rng, 40), nil, false)
	for i := 0; i < 10; i++ {
		env := randomWindow(rng)
		for from := 0; from <= len(l.Rows)+1; from++ {
			if got, want := searched(t, l, env, from), brute(l, env, from); !slices.Equal(got, want) {
				t.Fatalf("window %v from %d: %v, want %v", env, from, got, want)
			}
		}
	}
}

// TestLaidSearchStopsAtFalse: fn is not called again once it returned
// false, and Search reports that it stopped.
func TestLaidSearchStopsAtFalse(t *testing.T) {
	l, _ := Lay(4, randomRows(rand.New(rand.NewSource(50)), 500), nil, false)
	all := geom.NewEnvelope(-1e9, -1e9, 1e9, 1e9)
	hits := brute(l, all, 0)
	for _, stop := range []int{1, 2, len(hits) / 2, len(hits)} {
		calls := 0
		ran := l.Search(all, 0, func(int) bool {
			calls++
			return calls < stop
		})
		if ran || calls != stop {
			t.Errorf("stop at call %d: %d calls, ran to the end %t", stop, calls, ran)
		}
	}
}

// TestLaidCheckCatchesDamage: the checker reports a tree that misses a
// row, a row count the tree does not cover, a row filed under a value
// it does not hold, and postings missing for a field.
func TestLaidCheckCatchesDamage(t *testing.T) {
	fields := []attr.Field[int]{{Name: "v", Kind: attr.KindString, Get: func(_ stobject.STObject, v int) attr.Value {
		return attr.String(string(rune('a' + v%7)))
	}}}
	build := func() *Laid[int] {
		l, _ := Lay(4, randomRows(rand.New(rand.NewSource(51)), 200), fields, true)
		if err := l.Check(fields); err != nil {
			t.Fatal(err)
		}
		return l
	}
	for name, tc := range map[string]struct {
		damage func(l *Laid[int])
		want   string
	}{
		"row moves away": {func(l *Laid[int]) { l.Rows[0].Key = stobject.New(geom.NewPoint(-1e6, -1e6)) }, "misses position"},
		"rows cut short": {func(l *Laid[int]) { l.Rows = l.Rows[:len(l.Rows)-1] }, "a tree over 200 positions"},
		"misfiled":       {func(l *Laid[int]) { l.Rows[7].Value++ }, "filed under"},
		"no postings":    {func(l *Laid[int]) { l.Posts = nil }, "0 postings for 1 fields"},
		"layout repeats": {func(l *Laid[int]) { l.Tree.perm[1] = l.Tree.perm[0] }, "not part of a permutation"},
	} {
		l := build()
		tc.damage(l)
		if err := l.Check(fields); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: check = %v, want %q", name, err, tc.want)
		}
	}
}

// TestLayKeepsLayoutOnlyToSave: a tree laid out to be saved keeps its
// layout, one that is not keeps none and refuses to be saved, and both
// pass the checker.
func TestLayKeepsLayoutOnlyToSave(t *testing.T) {
	rows := randomRows(rand.New(rand.NewSource(52)), 300)
	dir := t.TempDir()
	for _, saveable := range []bool{false, true} {
		l, perm := Lay(6, rows, nil, saveable)
		if len(perm) != len(rows) || (l.Tree.perm != nil) != saveable {
			t.Fatalf("saveable %t: %d of %d returned, tree keeps layout: %t", saveable, len(perm), len(rows), l.Tree.perm != nil)
		}
		if err := l.Check(nil); err != nil {
			t.Fatalf("saveable %t: %v", saveable, err)
		}
		if err := l.SaveFile(dir + "/part-0.idx"); (err == nil) != saveable {
			t.Fatalf("saveable %t: save = %v", saveable, err)
		}
	}
}
