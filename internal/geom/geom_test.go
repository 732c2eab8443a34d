package geom

import (
	"encoding/json"
	"math"
	"testing"
)

func pt(x, y float64) Point { return Point{X: x, Y: y} }

func TestPointBasics(t *testing.T) {
	p := NewPoint(3, 4)
	if p.Kind() != KindPoint {
		t.Fatalf("kind = %v", p.Kind())
	}
	if !p.Centroid().Equal(p) {
		t.Errorf("centroid = %v, want %v", p.Centroid(), p)
	}
	env := p.Envelope()
	if env.MinX != 3 || env.MaxX != 3 || env.MinY != 4 || env.MaxY != 4 {
		t.Errorf("envelope = %v", env)
	}
	if p.IsEmpty() {
		t.Error("point should not be empty")
	}
	if !(Point{X: math.NaN(), Y: 0}).IsEmpty() {
		t.Error("NaN point should be empty")
	}
}

func TestLineStringBasics(t *testing.T) {
	if _, err := NewLineString([]Point{pt(0, 0)}); err == nil {
		t.Error("expected error for 1-point line string")
	}
	ls := MustLineString(pt(0, 0), pt(3, 0), pt(3, 4))
	if got := ls.Length(); got != 7 {
		t.Errorf("length = %v, want 7", got)
	}
	if ls.IsClosed() {
		t.Error("open line reported closed")
	}
	closed := MustLineString(pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 0))
	if !closed.IsClosed() {
		t.Error("closed line reported open")
	}
	env := ls.Envelope()
	if env.MinX != 0 || env.MaxX != 3 || env.MinY != 0 || env.MaxY != 4 {
		t.Errorf("envelope = %v", env)
	}
}

func TestLineStringCentroid(t *testing.T) {
	ls := MustLineString(pt(0, 0), pt(2, 0))
	c := ls.Centroid()
	if c.X != 1 || c.Y != 0 {
		t.Errorf("centroid = %v, want (1,0)", c)
	}
	// Zero-length degenerates to vertex mean.
	zl := MustLineString(pt(1, 1), pt(1, 1))
	c = zl.Centroid()
	if c.X != 1 || c.Y != 1 {
		t.Errorf("zero-length centroid = %v", c)
	}
}

func TestRingConstruction(t *testing.T) {
	if _, err := NewRing([]Point{pt(0, 0), pt(1, 0)}); err == nil {
		t.Error("expected error for 2-point ring")
	}
	r, err := NewRing([]Point{pt(0, 0), pt(1, 0), pt(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPoints() != 4 {
		t.Errorf("auto-closed ring has %d points, want 4", r.NumPoints())
	}
	if !r.PointAt(0).Equal(r.PointAt(3)) {
		t.Error("ring not closed")
	}
}

func TestRingSignedArea(t *testing.T) {
	ccw, _ := NewRing([]Point{pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)})
	if got := ccw.SignedArea(); got != 4 {
		t.Errorf("ccw area = %v, want 4", got)
	}
	cw, _ := NewRing([]Point{pt(0, 0), pt(0, 2), pt(2, 2), pt(2, 0)})
	if got := cw.SignedArea(); got != -4 {
		t.Errorf("cw area = %v, want -4", got)
	}
}

func unitSquare() Polygon {
	return MustPolygon(pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1))
}

func squareWithHole() Polygon {
	shell, _ := NewRing([]Point{pt(0, 0), pt(10, 0), pt(10, 10), pt(0, 10)})
	hole, _ := NewRing([]Point{pt(4, 4), pt(6, 4), pt(6, 6), pt(4, 6)})
	return NewPolygon(shell, hole)
}

func TestPolygonArea(t *testing.T) {
	if got := unitSquare().Area(); got != 1 {
		t.Errorf("unit square area = %v", got)
	}
	if got := squareWithHole().Area(); got != 96 {
		t.Errorf("holed square area = %v, want 96", got)
	}
}

func TestPolygonCentroid(t *testing.T) {
	c := unitSquare().Centroid()
	if math.Abs(c.X-0.5) > 1e-12 || math.Abs(c.Y-0.5) > 1e-12 {
		t.Errorf("centroid = %v, want (0.5, 0.5)", c)
	}
	// Hole is symmetric, so centroid stays in the middle.
	c = squareWithHole().Centroid()
	if math.Abs(c.X-5) > 1e-9 || math.Abs(c.Y-5) > 1e-9 {
		t.Errorf("holed centroid = %v, want (5, 5)", c)
	}
}

func TestPolygonContainsPoint(t *testing.T) {
	poly := squareWithHole()
	cases := []struct {
		p    Point
		want int
	}{
		{pt(1, 1), 1},    // interior
		{pt(5, 5), -1},   // inside the hole
		{pt(4, 5), 0},    // on hole boundary
		{pt(0, 5), 0},    // on shell boundary
		{pt(-1, 5), -1},  // outside
		{pt(0, 0), 0},    // shell corner
		{pt(11, 11), -1}, // far outside
		{pt(9.999, 9.999), 1},
	}
	for _, c := range cases {
		if got := PolygonContainsPoint(poly, c.p); got != c.want {
			t.Errorf("PolygonContainsPoint(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestSegmentsIntersect(t *testing.T) {
	cases := []struct {
		a1, a2, b1, b2 Point
		want           bool
	}{
		{pt(0, 0), pt(2, 2), pt(0, 2), pt(2, 0), true},  // proper crossing
		{pt(0, 0), pt(1, 1), pt(2, 2), pt(3, 3), false}, // collinear disjoint
		{pt(0, 0), pt(2, 2), pt(1, 1), pt(3, 3), true},  // collinear overlap
		{pt(0, 0), pt(1, 0), pt(1, 0), pt(2, 5), true},  // endpoint contact
		{pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1), false}, // parallel
		{pt(0, 0), pt(4, 0), pt(2, 0), pt(2, 3), true},  // T contact
		{pt(0, 0), pt(4, 0), pt(2, 1), pt(2, 3), false}, // above
	}
	for i, c := range cases {
		if got := SegmentsIntersect(c.a1, c.a2, c.b1, c.b2); got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
		// Symmetry.
		if got := SegmentsIntersect(c.b1, c.b2, c.a1, c.a2); got != c.want {
			t.Errorf("case %d (swapped): got %v, want %v", i, got, c.want)
		}
	}
}

func TestDistancePointSegment(t *testing.T) {
	if got := DistancePointSegment(pt(0, 1), pt(-1, 0), pt(1, 0)); got != 1 {
		t.Errorf("perpendicular distance = %v, want 1", got)
	}
	if got := DistancePointSegment(pt(5, 0), pt(-1, 0), pt(1, 0)); got != 4 {
		t.Errorf("beyond-end distance = %v, want 4", got)
	}
	if got := DistancePointSegment(pt(3, 4), pt(0, 0), pt(0, 0)); got != 5 {
		t.Errorf("degenerate segment distance = %v, want 5", got)
	}
}

func TestMultiPoint(t *testing.T) {
	mp := NewMultiPoint([]Point{pt(0, 0), pt(2, 2)})
	if mp.NumPoints() != 2 {
		t.Fatalf("NumPoints = %d", mp.NumPoints())
	}
	c := mp.Centroid()
	if c.X != 1 || c.Y != 1 {
		t.Errorf("centroid = %v", c)
	}
	env := mp.Envelope()
	if env.MinX != 0 || env.MaxX != 2 {
		t.Errorf("envelope = %v", env)
	}
}

func TestEnvelopeJSONRoundTrip(t *testing.T) {
	// The empty envelope's ±Inf bounds are not valid JSON numbers; it
	// must round-trip through null (planner summaries with empty
	// partitions embed it).
	b, err := json.Marshal(EmptyEnvelope())
	if err != nil {
		t.Fatalf("marshal empty: %v", err)
	}
	if string(b) != "null" {
		t.Fatalf("empty envelope marshals as %s, want null", b)
	}
	var e Envelope
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatalf("unmarshal null: %v", err)
	}
	if !e.IsEmpty() {
		t.Fatalf("null did not decode to the empty envelope: %+v", e)
	}

	orig := NewEnvelope(1, 2, 3, 4)
	b, err = json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var got Envelope
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Fatalf("round trip %+v != %+v", got, orig)
	}
}
