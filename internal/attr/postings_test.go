package attr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// rowIDs is the identity entry: the static sidecar's row ids.
func rowIDs(i int32) int32 { return i }

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

// buildThreeWays files col into postings loaded in one pass, inserted
// one value at a time in arrival order, and loaded up to split then
// grown by Insert, running Check after every step.
func buildThreeWays(t testing.TB, col []Value, split int) map[string]*Index {
	t.Helper()
	check := func(how string, ps *Index, step int) {
		t.Helper()
		if err := ps.Check(); err != nil {
			t.Fatalf("%s, after %d values: %v", how, step, err)
		}
	}
	loaded := LoadPostings(col, rowIDs)
	check("loaded", loaded, len(col))
	inserted := &Index{}
	for i, v := range col {
		inserted.Insert(v, int32(i))
		check("inserted", inserted, i+1)
	}
	grown := LoadPostings(col[:split], rowIDs)
	check("grown", grown, split)
	for i := split; i < len(col); i++ {
		grown.Insert(col[i], int32(i))
		check("grown", grown, i+1)
	}
	return map[string]*Index{"loaded": loaded, "inserted": inserted, "grown": grown}
}

// comparePostings holds every build of col to the scan on every
// predicate, entry for entry and in order, and to the column's size
// across a walk of all values.
func comparePostings(t testing.TB, col []Value, builds map[string]*Index, preds []Pred) {
	t.Helper()
	for how, ps := range builds {
		entries := 0
		for _, list := range ps.All() {
			entries += len(list)
		}
		if entries != len(col) {
			t.Fatalf("%s: walk holds %d entries, column %d", how, entries, len(col))
		}
		for _, p := range preds {
			want := scanPostings(col, p)
			var got []int32
			n := ps.Postings(p, func(row int32) { got = append(got, row) })
			if !slices.Equal(got, want) {
				t.Fatalf("%s, %s: postings give %v, scan gives %v", how, p, got, want)
			}
			if n != len(want) || ps.Postings(p, nil) != len(want) {
				t.Fatalf("%s, %s: count %d (nil yield %d), scan gives %d", how, p, n, ps.Postings(p, nil), len(want))
			}
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
		return func() Value { return Int64(int64(rng.Intn(distinct) - distinct/2)) }
	case KindFloat64:
		return func() Value {
			switch rng.Intn(20) {
			case 0:
				return Float64(math.NaN())
			case 1:
				return Float64(math.Copysign(0, -1))
			case 2:
				return Float64(math.Inf(2*rng.Intn(2) - 1))
			}
			return Float64(float64(rng.Intn(distinct)-distinct/2) / 4)
		}
	case KindString:
		return func() Value { return String(fmt.Sprintf("v%04d", rng.Intn(distinct))) }
	}
	return func() Value { return Bool(rng.Intn(2) == 0) }
}

// TestPostingsDifferential builds random columns of every kind three
// ways (loaded, inserted in arrival order, loaded then grown) and holds
// every operator's postings to a Matches scan. Columns run from heavy
// duplicates to more distinct values than one chunk holds, so chunks
// split on insert and the loader cuts several.
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
				builds := buildThreeWays(t, col, rng.Intn(shape.n+1))
				for round := 0; round < 20; round++ {
					comparePostings(t, col, builds, predsOver(rng, col, draw))
				}
			})
		}
	}
}

// TestPostingsNaN pins the order NaN files under: below every number,
// one slot for every NaN, so it satisfies Lt and Le only.
func TestPostingsNaN(t *testing.T) {
	nan := Float64(math.NaN())
	col := []Value{Float64(50), nan, Float64(-1e300), nan, Float64(math.Inf(-1)), Float64(51)}
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
		p := Pred{Field: "f", Op: c.op, Lo: Float64(50)}
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
		col := make([]Value, 3*chunkCap)
		for i := range col {
			col[i] = Int64(int64(i))
		}
		return LoadPostings(col, rowIDs)
	}
	if err := build().Check(); err != nil {
		t.Fatal(err)
	}
	for name, damage := range map[string]func(ps *Index){
		"order":    func(ps *Index) { ch := ps.chunks[1]; ch[0], ch[1] = ch[1], ch[0] },
		"overfull": func(ps *Index) { ps.chunks = [][]slot[int32]{slices.Concat(ps.chunks...)} },
		"empty":    func(ps *Index) { ps.chunks = slices.Insert(ps.chunks, 1, []slot[int32]{}) },
		"bare":     func(ps *Index) { ps.chunks[2][5].list = nil },
		"repeat":   func(ps *Index) { ps.chunks[1][0].val = ps.chunks[0][chunkCap-1].val },
	} {
		ps := build()
		damage(ps)
		if err := ps.Check(); err == nil {
			t.Errorf("%s: damage not reported", name)
		}
	}
}

// FuzzPostings drives the three builds from raw bytes: the first picks
// the kind, the second the split, each later byte one value (small
// ranges, so values repeat; 0xff is NaN in a float column).
func FuzzPostings(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 1, 9, 9, 0})
	f.Add([]byte{1, 2, 0xff, 4, 0xff, 7, 0, 0x80})
	f.Add([]byte{2, 0, 'a', 'b', 'a', 'z'})
	f.Add([]byte{3, 1, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		data = data[:min(len(data), 2+2*chunkCap+8)] // the checks are quadratic
		kind := Kind(data[0]%4) + KindInt64
		value := func(b byte) Value {
			switch kind {
			case KindInt64:
				return Int64(int64(b) - 128)
			case KindFloat64:
				if b == 0xff {
					return Float64(math.NaN())
				}
				return Float64(float64(int(b)-128) / 4)
			case KindString:
				return String(string(rune('a' + b%32)))
			}
			return Bool(b%2 == 0)
		}
		col := make([]Value, len(data)-2)
		for i, b := range data[2:] {
			col[i] = value(b)
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		draw := func() Value { return value(byte(rng.Intn(256))) }
		builds := buildThreeWays(t, col, int(data[1])%(len(col)+1))
		comparePostings(t, col, builds, predsOver(rng, col, draw))
		// The first values as bounds, so Eq hits whatever the column holds.
		for _, v := range col[:min(len(col), 16)] {
			comparePostings(t, col, builds, []Pred{{Field: "f", Op: OpEq, Lo: v}, {Field: "f", Op: OpLe, Lo: v}})
		}
	})
}
