package attr

import (
	"math"
	"testing"

	"stark/internal/stobject"
)

func TestValueCanonicalRoundTrip(t *testing.T) {
	vals := []Value{
		Int64(0), Int64(-42), Int64(math.MaxInt64), Int64(math.MinInt64),
		Float64(0), Float64(-0.5), Float64(40.25), Float64(1e300), Float64(math.Inf(1)),
		String(""), String("acme"), String(`with "quotes", commas, }]`), String("üñî"),
		Bool(true), Bool(false),
	}
	for _, v := range vals {
		s := v.String()
		got, err := ParseValue(s)
		if err != nil {
			t.Fatalf("ParseValue(%q): %v", s, err)
		}
		if got.String() != s {
			t.Fatalf("round-trip %q -> %q", s, got.String())
		}
	}
}

func TestPredCanonicalRoundTrip(t *testing.T) {
	preds := []Pred{
		{Field: "fare", Op: OpGt, Lo: Float64(40)},
		{Field: "fare", Op: OpLe, Lo: Float64(-1.5)},
		{Field: "vendor", Op: OpEq, Lo: String(`a "b" c`)},
		{Field: "n", Op: OpBetween, Lo: Int64(3), Hi: Int64(9)},
		{Field: "cat", Op: OpIn, Set: []Value{Int64(1), Int64(3), Int64(7)}},
		{Field: "tag", Op: OpIn, Set: []Value{String("x,y"), String("z}")}},
		{Field: "ok", Op: OpEq, Lo: Bool(true)},
	}
	for _, p := range preds {
		s := p.String()
		got, err := ParsePred(s)
		if err != nil {
			t.Fatalf("ParsePred(%q): %v", s, err)
		}
		if got.String() != s {
			t.Fatalf("round-trip %q -> %q", s, got.String())
		}
	}
}

func TestPredMatches(t *testing.T) {
	cases := []struct {
		p    Pred
		v    Value
		want bool
	}{
		{Pred{Field: "f", Op: OpEq, Lo: Int64(5)}, Int64(5), true},
		{Pred{Field: "f", Op: OpEq, Lo: Int64(5)}, Int64(6), false},
		{Pred{Field: "f", Op: OpEq, Lo: Int64(5)}, Float64(5), false}, // kind mismatch
		{Pred{Field: "f", Op: OpGt, Lo: Float64(40)}, Float64(40.01), true},
		{Pred{Field: "f", Op: OpGt, Lo: Float64(40)}, Float64(40), false},
		{Pred{Field: "f", Op: OpGe, Lo: Float64(40)}, Float64(40), true},
		{Pred{Field: "f", Op: OpLt, Lo: String("m")}, String("a"), true},
		{Pred{Field: "f", Op: OpBetween, Lo: Int64(2), Hi: Int64(4)}, Int64(2), true},
		{Pred{Field: "f", Op: OpBetween, Lo: Int64(2), Hi: Int64(4)}, Int64(4), true},
		{Pred{Field: "f", Op: OpBetween, Lo: Int64(2), Hi: Int64(4)}, Int64(5), false},
		{Pred{Field: "f", Op: OpIn, Set: []Value{Int64(1), Int64(3)}}, Int64(3), true},
		{Pred{Field: "f", Op: OpIn, Set: []Value{Int64(1), Int64(3)}}, Int64(2), false},
	}
	for _, c := range cases {
		if got := c.p.Matches(c.v); got != c.want {
			t.Errorf("%s matches %s = %v, want %v", c.p, c.v, got, c.want)
		}
	}
}

func TestCanonicalizeSortsAndDedupes(t *testing.T) {
	p := Pred{Field: "f", Op: OpIn, Set: []Value{Int64(3), Int64(1), Int64(3), Int64(2)}}
	q := Pred{Field: "f", Op: OpIn, Set: []Value{Int64(2), Int64(1), Int64(3)}}
	if p.Canonicalize().String() != q.Canonicalize().String() {
		t.Fatalf("canonicalized strings differ: %s vs %s",
			p.Canonicalize(), q.Canonicalize())
	}
}

func TestSchemaCheck(t *testing.T) {
	type rec struct {
		Fare   float64
		Vendor string
		N      int64
	}
	s := NewSchema[rec]().
		Float64("fare", func(_ stobject.STObject, r rec) float64 { return r.Fare }).
		String("vendor", func(_ stobject.STObject, r rec) string { return r.Vendor }).
		Int64("n", func(_ stobject.STObject, r rec) int64 { return r.N })

	// Exact kind passes through.
	p, err := s.Check(Pred{Field: "fare", Op: OpGt, Lo: Float64(40)})
	if err != nil {
		t.Fatal(err)
	}
	if p.Lo.Kind != KindFloat64 {
		t.Fatalf("kind = %s", p.Lo.Kind)
	}
	// Lossless int -> float coercion (JSON numbers, untyped literals).
	p, err = s.Check(Pred{Field: "fare", Op: OpGt, Lo: Int64(40)})
	if err != nil {
		t.Fatal(err)
	}
	if p.Lo.Kind != KindFloat64 || p.Lo.F != 40 {
		t.Fatalf("coerced = %s", p.Lo)
	}
	// Lossless float -> int coercion.
	p, err = s.Check(Pred{Field: "n", Op: OpEq, Lo: Float64(7)})
	if err != nil {
		t.Fatal(err)
	}
	if p.Lo.Kind != KindInt64 || p.Lo.I != 7 {
		t.Fatalf("coerced = %s", p.Lo)
	}
	// Lossy coercion fails.
	if _, err := s.Check(Pred{Field: "n", Op: OpEq, Lo: Float64(7.5)}); err == nil {
		t.Fatal("lossy float->int coercion accepted")
	}
	// Unknown field names the schema.
	if _, err := s.Check(Pred{Field: "fere", Op: OpGt, Lo: Float64(1)}); err == nil {
		t.Fatal("unknown field accepted")
	}
	// String field vs number.
	if _, err := s.Check(Pred{Field: "vendor", Op: OpEq, Lo: Int64(1)}); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

func TestIndexPostings(t *testing.T) {
	//            row: 0  1  2  3  4  5  6
	col := []Value{Int64(5), Int64(2), Int64(9), Int64(2), Int64(7), Int64(2), Int64(5)}
	ix := BuildIndex("f", KindInt64, col)

	collect := func(p Pred) []int32 {
		var rows []int32
		ix.Postings(p, func(r int32) { rows = append(rows, r) })
		return rows
	}
	eq := collect(Pred{Field: "f", Op: OpEq, Lo: Int64(2)})
	if len(eq) != 3 || eq[0] != 1 || eq[1] != 3 || eq[2] != 5 {
		t.Fatalf("eq postings = %v", eq)
	}
	if n := ix.Postings(Pred{Field: "f", Op: OpGt, Lo: Int64(4)}, nil); n != 4 {
		t.Fatalf("gt count = %d", n)
	}
	if n := ix.Postings(Pred{Field: "f", Op: OpBetween, Lo: Int64(5), Hi: Int64(7)}, nil); n != 3 {
		t.Fatalf("between count = %d", n)
	}
	in := collect(Pred{Field: "f", Op: OpIn, Set: []Value{Int64(9), Int64(7)}})
	if len(in) != 2 {
		t.Fatalf("in postings = %v", in)
	}
	if n := ix.Postings(Pred{Field: "f", Op: OpEq, Lo: Int64(100)}, nil); n != 0 {
		t.Fatalf("miss count = %d", n)
	}

	// Exhaustive cross-check against Matches over every operator.
	preds := []Pred{
		{Field: "f", Op: OpLt, Lo: Int64(5)},
		{Field: "f", Op: OpLe, Lo: Int64(5)},
		{Field: "f", Op: OpGe, Lo: Int64(5)},
		{Field: "f", Op: OpGt, Lo: Int64(9)},
		{Field: "f", Op: OpBetween, Lo: Int64(3), Hi: Int64(8)},
	}
	for _, p := range preds {
		want := 0
		for _, v := range col {
			if p.Matches(v) {
				want++
			}
		}
		if got := ix.Postings(p, nil); got != want {
			t.Errorf("%s: postings=%d want %d", p, got, want)
		}
	}
}

func TestFieldAccAndSelectivity(t *testing.T) {
	a := NewFieldAcc("fare", KindFloat64, 1)
	for i := 0; i < 1000; i++ {
		a.Add(Float64(float64(i % 100)))
	}
	fs := a.Finish(32)
	if fs.Count != 1000 {
		t.Fatalf("count = %d", fs.Count)
	}
	if fs.NDV != 100 {
		t.Fatalf("ndv = %d", fs.NDV)
	}
	// fare > 89 matches 10% of rows; the histogram estimate should be
	// in the right ballpark.
	sel := fs.Selectivity(Pred{Field: "fare", Op: OpGt, Lo: Float64(89)})
	if sel < 0.02 || sel > 0.3 {
		t.Fatalf("gt selectivity = %f", sel)
	}
	eq := fs.Selectivity(Pred{Field: "fare", Op: OpEq, Lo: Float64(5)})
	if math.Abs(eq-0.01) > 1e-9 {
		t.Fatalf("eq selectivity = %f", eq)
	}
	// Kind mismatch is impossible, not default.
	if s := fs.Selectivity(Pred{Field: "fare", Op: OpEq, Lo: String("x")}); s != 0 {
		t.Fatalf("mismatch selectivity = %f", s)
	}

	// Merging partition accumulators preserves totals.
	b := NewFieldAcc("fare", KindFloat64, 2)
	for i := 0; i < 500; i++ {
		b.Add(Float64(float64(i%100) + 100))
	}
	a.Merge(b)
	m := a.Finish(32)
	if m.Count != 1500 {
		t.Fatalf("merged count = %d", m.Count)
	}
	if m.Max.F != 199 {
		t.Fatalf("merged max = %s", m.Max)
	}
	if m.NDV != 200 {
		t.Fatalf("merged ndv = %d", m.NDV)
	}
}

// TestFieldAccCountsNaNOnce: NaN is not equal to itself, so a distinct
// set keyed on the value would count every NaN row as a new value.
func TestFieldAccCountsNaNOnce(t *testing.T) {
	a, b := NewFieldAcc("fare", KindFloat64, 1), NewFieldAcc("fare", KindFloat64, 2)
	for i := 0; i < 5000; i++ {
		acc := a
		if i >= 2500 {
			acc = b
		}
		if i%2 == 0 {
			acc.Add(Float64(math.NaN()))
		} else {
			acc.Add(Float64(float64(1 + i%3)))
		}
	}
	if ndv := a.Finish(0).NDV; ndv != 4 {
		t.Fatalf("ndv of 2,500 rows, NaN and {1, 2, 3} = %d, want 4", ndv)
	}
	a.Merge(b)
	if ndv := a.Finish(0).NDV; ndv != 4 {
		t.Fatalf("ndv of 5,000 merged rows, NaN and {1, 2, 3} = %d, want 4", ndv)
	}
}

func TestParsePredRejectsMalformed(t *testing.T) {
	bad := []string{
		"", "fare", "fare>", ">f:1", "fare>x:1", "fare in []", "fare in {}",
		"fare in [f:1]", "fare in [f:1,f:2", "fare=f:1trailing", "fa re>f:1",
		"f in {i:1,f:2}", // mixed kinds
	}
	for _, s := range bad {
		if _, err := ParsePred(s); err == nil {
			t.Errorf("ParsePred(%q) accepted", s)
		}
	}
}
