package geom

import (
	"math"
	"testing"
)

// Table tests pinning how the envelope distance/expand helpers treat
// the empty envelope (marshalled as JSON null): absent extents are
// infinitely far from everything and inert under expansion — never a
// ±Inf-arithmetic accident (NaN from Inf-Inf) leaking into kernels.
func TestEnvelopeDistanceTable(t *testing.T) {
	empty := EmptyEnvelope()
	point := Envelope{MinX: 3, MinY: 4, MaxX: 3, MaxY: 4}  // degenerate: a point
	hline := Envelope{MinX: 0, MinY: 2, MaxX: 10, MaxY: 2} // degenerate: zero height
	box := Envelope{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	far := Envelope{MinX: 13, MinY: 14, MaxX: 20, MaxY: 20}

	cases := []struct {
		name string
		a, b Envelope
		want float64
	}{
		{"empty vs empty", empty, empty, math.Inf(1)},
		{"empty vs box", empty, box, math.Inf(1)},
		{"box vs empty", box, empty, math.Inf(1)},
		{"empty vs point", empty, point, math.Inf(1)},
		{"point vs itself", point, point, 0},
		{"point inside box", point, box, 0},
		{"boundary contact", box, Envelope{MinX: 10, MinY: 0, MaxX: 20, MaxY: 10}, 0},
		{"diagonal gap", box, far, math.Hypot(3, 4)},
		{"axis gap", box, Envelope{MinX: 15, MinY: 2, MaxX: 20, MaxY: 8}, 5},
		{"line vs point", hline, point, math.Hypot(0, 2)},
		{"line vs box overlap", hline, box, 0},
	}
	for _, tc := range cases {
		got := tc.a.Distance(tc.b)
		rev := tc.b.Distance(tc.a)
		if got != rev {
			t.Errorf("%s: asymmetric distance %v vs %v", tc.name, got, rev)
		}
		if math.IsInf(tc.want, 1) {
			if !math.IsInf(got, 1) {
				t.Errorf("%s: distance = %v, want +Inf", tc.name, got)
			}
			continue
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: distance = %v, want %v", tc.name, got, tc.want)
		}
		if math.IsNaN(got) {
			t.Errorf("%s: distance is NaN", tc.name)
		}
	}
}

// TestEnvelopeExpandEmpty pins the expand helpers the WithinDistance
// pruning envelope is built from: expanding the empty envelope stays
// empty (never a finite envelope materialising out of ±Inf bounds),
// and degenerate envelopes grow symmetrically.
func TestEnvelopeExpandEmpty(t *testing.T) {
	if got := EmptyEnvelope().ExpandBy(5); !got.IsEmpty() {
		t.Fatalf("expanding empty gave %+v", got)
	}
	if got := EmptyEnvelope().ExpandToInclude(EmptyEnvelope()); !got.IsEmpty() {
		t.Fatalf("empty ∪ empty gave %+v", got)
	}
	point := Envelope{MinX: 3, MinY: 4, MaxX: 3, MaxY: 4}
	got := point.ExpandBy(2)
	want := Envelope{MinX: 1, MinY: 2, MaxX: 5, MaxY: 6}
	if got != want {
		t.Fatalf("point.ExpandBy(2) = %+v, want %+v", got, want)
	}
	// Shrinking past degeneracy empties the envelope for the
	// intersection test even though bounds stay finite.
	if point.ExpandBy(-1).Intersects(point) {
		t.Fatal("over-shrunk envelope still intersects")
	}
}

// TestEnvelopeDistanceWithinDistanceConsistency pins the contract the
// columnar WithinDistance kernel builds on: the envelope distance
// lower-bounds the exact geometry distance, so env.Distance > maxDist
// proves WithinDistance is false — including for degenerate and
// touching shapes.
func TestEnvelopeDistanceWithinDistanceConsistency(t *testing.T) {
	cases := []struct {
		name string
		a, b Geometry
	}{
		{"points apart", NewPoint(0, 0), NewPoint(3, 4)},
		{"point on line", NewPoint(5, 2), mustLine(t, Point{X: 0, Y: 2}, Point{X: 10, Y: 2})},
		{"disjoint lines", mustLine(t, Point{X: 0, Y: 0}, Point{X: 1, Y: 0}), mustLine(t, Point{X: 4, Y: 3}, Point{X: 5, Y: 3})},
	}
	for _, tc := range cases {
		envDist := tc.a.Envelope().Distance(tc.b.Envelope())
		exact := Distance(tc.a, tc.b)
		if envDist > exact+1e-12 {
			t.Errorf("%s: envelope distance %v exceeds exact distance %v", tc.name, envDist, exact)
		}
	}
}

func mustLine(t *testing.T, pts ...Point) LineString {
	t.Helper()
	l, err := NewLineString(pts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}
