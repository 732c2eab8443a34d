package attr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
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
	expectCaught(t, build, map[string]func(ix *Index){
		"order":  func(ix *Index) { ix.vals[3], ix.vals[4] = ix.vals[4], ix.vals[3] },
		"repeat": func(ix *Index) { ix.vals[5] = ix.vals[4] },
		"bare":   func(ix *Index) { ix.at[6] = ix.at[7] },
		"rows":   func(ix *Index) { r := ix.rows[ix.at[2]:]; r[0], r[1] = r[1], r[0] },
		"cut":    func(ix *Index) { ix.at = ix.at[:len(ix.at)-1] },
		"lost":   func(ix *Index) { ix.rows = ix.rows[:len(ix.rows)-1] },
	})
	// An int run ahead of 20 texts, for the damage only kinds and texts
	// can take.
	mixed := func() *Index {
		col := make([]Value, 60)
		for i := range col {
			col[i] = String(fmt.Sprintf("s%02d", i%20))
		}
		col[7] = intValue(1)
		return BuildIndex("f", KindString, col)
	}
	expectCaught(t, mixed, map[string]func(ix *Index){
		"texts": func(ix *Index) { ix.texts[3], ix.texts[4] = ix.texts[4], ix.texts[3] },
		"rank":  func(ix *Index) { ix.vals[len(ix.vals)-1] = uint64(len(ix.texts)) },
		"runs":  func(ix *Index) { ix.runs[KindInt64+1]++ },
		"kinds": func(ix *Index) { ix.runs[len(ix.runs)-1]-- },
	})
}

// expectCaught damages a fresh index from build in each way and
// expects Check to report every one.
func expectCaught(t *testing.T, build func() *Index, damages map[string]func(ix *Index)) {
	t.Helper()
	if err := build().Check(); err != nil {
		t.Fatal(err)
	}
	for name, damage := range damages {
		ix := build()
		damage(ix)
		if err := ix.Check(); err == nil {
			t.Errorf("%s: damage not reported", name)
		}
	}
}

// held is the bytes ix keeps, from its slices' capacities: the payloads,
// the cuts, the row ids and the texts with their bytes.
func held(ix *Index) int {
	n := int(unsafe.Sizeof(*ix))
	n += cap(ix.vals)*int(unsafe.Sizeof(ix.vals[0])) + 4*cap(ix.at) + 4*cap(ix.rows) + cap(ix.texts)*int(unsafe.Sizeof(""))
	for _, s := range ix.texts {
		n += len(s)
	}
	return n
}

// TestPostingsAllocatesNothing: a probe with any operator but In
// allocates nothing, whether it only counts or streams the rows.
func TestPostingsAllocatesNothing(t *testing.T) {
	col := make([]Value, 1000)
	for i := range col {
		col[i] = intValue(int64(i % 37))
	}
	ix := BuildIndex("n", KindInt64, col)
	sum := int32(0)
	stream := func(r int32) { sum += r }
	for _, op := range []Op{OpEq, OpLt, OpLe, OpGt, OpGe, OpBetween} {
		p := Pred{Field: "n", Op: op, Lo: intValue(5), Hi: intValue(20)}
		for _, yield := range []func(int32){nil, stream} {
			if n := testing.AllocsPerRun(100, func() { ix.Postings(p, yield) }); n != 0 {
				t.Errorf("%s, streaming %t: %v allocations a probe, want 0", p, yield != nil, n)
			}
		}
	}
	if sum == 0 {
		t.Fatal("no probe streamed a row")
	}
}

// TestPostingsSize bounds what an index holds a row: about 16 B for an
// all-distinct number field (a payload, a cut and a row id), about 4 B
// for a field of few texts (the row id).
func TestPostingsSize(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewSource(47))
	for _, c := range []struct {
		name  string
		value func(i int) Value
		limit float64 // bytes a row
	}{
		{"distinct int64", func(i int) Value { return intValue(int64(i) * 7919) }, 17},
		{"distinct float64", func(i int) Value { return floatValue(float64(i) + 0.5) }, 17},
		{"10 texts", func(int) Value { return String(fmt.Sprintf("category-%d", rng.Intn(10))) }, 4.1},
	} {
		col := make([]Value, n)
		for i, j := range rng.Perm(n) {
			col[i] = c.value(j)
		}
		ix := build(t, col)
		if got := float64(held(ix)) / n; got > c.limit {
			t.Errorf("%s: %.2f B a row, limit %.1f", c.name, got, c.limit)
		}
	}
}

// FuzzPostings drives the index from raw bytes: the first picks the
// kind, the second seeds the operand draws, each later byte is one
// value (small ranges, so values repeat; in a float column 0xff is NaN
// and 0xfe is −0). A first byte of 4 mod 5 mixes kinds: each later pair
// of bytes is a kind and a value, and the operands are drawn of every
// kind, so the kind runs and cross-kind operands meet Matches.
func FuzzPostings(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 1, 9, 9, 0})
	f.Add([]byte{1, 2, 0xff, 4, 0xff, 7, 0, 0x80})
	f.Add([]byte{2, 0, 'a', 'b', 'a', 'z'})
	f.Add([]byte{3, 1, 0, 1, 1, 0})
	f.Add([]byte{1, 5, 0xfe, 0x80, 0xfe, 0x80, 0x84, 0x7c})         // −0 next to +0
	f.Add([]byte{1, 6, 0xff, 0x80, 0xfe, 3, 0xff, 0xc0})            // NaN first
	f.Add([]byte{4, 7, 0, 9, 1, 0xfe, 1, 0x80, 2, 'a', 3, 1, 0, 9}) // every kind
	f.Add([]byte{4, 8, 1, 0xff, 0, 0x80, 1, 0x80, 1, 0xff, 2, 'b'}) // NaN first, beside ints and strings
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		data = data[:min(len(data), 138)] // the checks are quadratic
		value := func(kind Kind, b byte) Value {
			switch kind {
			case KindInt64:
				return intValue(int64(b) - 128)
			case KindFloat64:
				switch b {
				case 0xff:
					return floatValue(math.NaN())
				case 0xfe:
					return floatValue(math.Copysign(0, -1))
				}
				return floatValue(float64(int(b)-128) / 4)
			case KindString:
				return String(string(rune('a' + b%32)))
			}
			return boolValue(b%2 == 0)
		}
		kindOf := func(b byte) Kind { return Kind(b%4) + KindInt64 }
		rng := rand.New(rand.NewSource(int64(data[1])))
		var col []Value
		var draw func() Value
		if data[0]%5 == 4 {
			for i := 2; i+1 < len(data); i += 2 {
				col = append(col, value(kindOf(data[i]), data[i+1]))
			}
			draw = func() Value { return value(kindOf(byte(rng.Intn(4))), byte(rng.Intn(256))) }
		} else {
			kind := kindOf(data[0] % 5)
			for _, b := range data[2:] {
				col = append(col, value(kind, b))
			}
			draw = func() Value { return value(kind, byte(rng.Intn(256))) }
		}
		ix := build(t, col)
		comparePostings(t, col, ix, predsOver(rng, col, draw))
		// The first values as bounds, so Eq hits whatever the column holds.
		for _, v := range col[:min(len(col), 16)] {
			comparePostings(t, col, ix, []Pred{{Field: "f", Op: OpEq, Lo: v}, {Field: "f", Op: OpLe, Lo: v}})
		}
	})
}

// oracle is what an index must hold, in the layout the postings had
// before their values became payloads: the distinct values, the cuts
// and the rows.
type oracle struct {
	vals     []Value
	at, rows []int32
}

// oracleIndex is BuildIndex by a comparison sort of the values: the
// order the radix keys and the kind runs must reproduce.
func oracleIndex(column []Value) oracle {
	rows := make([]int32, len(column))
	for i := range rows {
		rows[i] = int32(i)
	}
	slices.SortStableFunc(rows, func(a, b int32) int { return column[a].Compare(column[b]) })
	ix := oracle{rows: rows}
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
// Float columns carry NaNs and both zeros; two columns mix kinds, one of
// them all four.
func TestBuildIndexEqualsComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	mixed := drawFor(rng, KindInt64, 5)
	kinds := []func() Value{mixed, drawFor(rng, KindFloat64, 8), drawFor(rng, KindString, 6), drawFor(rng, KindBool, 2)}
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
		{"all kinds", KindFloat64, func() Value { return kinds[rng.Intn(len(kinds))]() }},
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
			var vals []Value
			for v := range got.All() {
				vals = append(vals, v)
			}
			if !slices.EqualFunc(vals, want.vals, sameBits) {
				t.Fatalf("%s, %d rows: values %v, want %v", name, n, vals, want.vals)
			}
		}
	}
}
