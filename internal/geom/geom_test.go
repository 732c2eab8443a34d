package geom

import (
	"encoding/json"
	"math"
	"testing"
)

func pt(x, y float64) Point { return Point{X: x, Y: y} }

func mustLineString(pts ...Point) LineString {
	ls, err := NewLineString(pts)
	if err != nil {
		panic(err)
	}
	return ls
}

func mustParseWKT(s string) Geometry {
	g, err := ParseWKT(s)
	if err != nil {
		panic(err)
	}
	return g
}

// polygonArea is the area of the shell minus the holes', each ring's
// by the shoelace formula.
func polygonArea(p Polygon) float64 {
	ringArea := func(r Ring) float64 {
		var sum float64
		for i := 1; i < len(r.pts); i++ {
			a, b := r.pts[i-1], r.pts[i]
			sum += a.X*b.Y - b.X*a.Y
		}
		return math.Abs(sum / 2)
	}
	a := ringArea(p.shell)
	for _, h := range p.holes {
		a -= ringArea(h)
	}
	return a
}

func TestPointBasics(t *testing.T) {
	p := NewPoint(3, 4)
	if p.kind() != kindPoint {
		t.Fatalf("kind = %v", p.kind())
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
	ls := mustLineString(pt(0, 0), pt(3, 0), pt(3, 4))
	env := ls.Envelope()
	if env.MinX != 0 || env.MaxX != 3 || env.MinY != 0 || env.MaxY != 4 {
		t.Errorf("envelope = %v", env)
	}
}

func TestLineStringCentroid(t *testing.T) {
	ls := mustLineString(pt(0, 0), pt(2, 0))
	c := ls.Centroid()
	if c.X != 1 || c.Y != 0 {
		t.Errorf("centroid = %v, want (1,0)", c)
	}
	// Zero-length degenerates to vertex mean.
	zl := mustLineString(pt(1, 1), pt(1, 1))
	c = zl.Centroid()
	if c.X != 1 || c.Y != 1 {
		t.Errorf("zero-length centroid = %v", c)
	}
}

func TestRingConstruction(t *testing.T) {
	if _, err := newRing([]Point{pt(0, 0), pt(1, 0)}); err == nil {
		t.Error("expected error for 2-point ring")
	}
	r, err := newRing([]Point{pt(0, 0), pt(1, 0), pt(1, 1)})
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

func unitSquare() Polygon {
	return mustPolygon(pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1))
}

func squareWithHole() Polygon {
	shell, _ := newRing([]Point{pt(0, 0), pt(10, 0), pt(10, 10), pt(0, 10)})
	hole, _ := newRing([]Point{pt(4, 4), pt(6, 4), pt(6, 6), pt(4, 6)})
	return newPolygon(shell, []Ring{hole})
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
		if got := polygonContainsPoint(poly, c.p); got != c.want {
			t.Errorf("polygonContainsPoint(%v) = %d, want %d", c.p, got, c.want)
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
		if got := segmentsIntersect(c.a1, c.a2, c.b1, c.b2); got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
		// Symmetry.
		if got := segmentsIntersect(c.b1, c.b2, c.a1, c.a2); got != c.want {
			t.Errorf("case %d (swapped): got %v, want %v", i, got, c.want)
		}
	}
}

func TestDistancePointSegment(t *testing.T) {
	if got := distancePointSegment(pt(0, 1), pt(-1, 0), pt(1, 0)); got != 1 {
		t.Errorf("perpendicular distance = %v, want 1", got)
	}
	if got := distancePointSegment(pt(5, 0), pt(-1, 0), pt(1, 0)); got != 4 {
		t.Errorf("beyond-end distance = %v, want 4", got)
	}
	if got := distancePointSegment(pt(3, 4), pt(0, 0), pt(0, 0)); got != 5 {
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
