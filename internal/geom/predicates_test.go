package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntersectsPointPoint(t *testing.T) {
	if !Intersects(pt(1, 2), pt(1, 2)) {
		t.Error("identical points must intersect")
	}
	if Intersects(pt(1, 2), pt(1, 3)) {
		t.Error("distinct points must not intersect")
	}
}

func TestIntersectsPointPolygon(t *testing.T) {
	poly := unitSquare()
	if !Intersects(pt(0.5, 0.5), poly) {
		t.Error("interior point must intersect polygon")
	}
	if !Intersects(poly, pt(0, 0.5)) {
		t.Error("boundary point must intersect polygon")
	}
	if Intersects(pt(2, 2), poly) {
		t.Error("exterior point must not intersect polygon")
	}
}

func TestIntersectsLineLine(t *testing.T) {
	l1 := MustLineString(pt(0, 0), pt(2, 2))
	l2 := MustLineString(pt(0, 2), pt(2, 0))
	l3 := MustLineString(pt(5, 5), pt(6, 6))
	if !Intersects(l1, l2) {
		t.Error("crossing lines must intersect")
	}
	if Intersects(l1, l3) {
		t.Error("distant lines must not intersect")
	}
}

func TestIntersectsLinePolygon(t *testing.T) {
	poly := unitSquare()
	through := MustLineString(pt(-1, 0.5), pt(2, 0.5))
	inside := MustLineString(pt(0.2, 0.2), pt(0.8, 0.8))
	outside := MustLineString(pt(2, 2), pt(3, 3))
	if !Intersects(through, poly) {
		t.Error("crossing line must intersect polygon")
	}
	if !Intersects(inside, poly) {
		t.Error("contained line must intersect polygon")
	}
	if Intersects(outside, poly) {
		t.Error("outside line must not intersect polygon")
	}
}

func TestIntersectsPolygonPolygon(t *testing.T) {
	a := unitSquare()
	b := MustPolygon(pt(0.5, 0.5), pt(1.5, 0.5), pt(1.5, 1.5), pt(0.5, 1.5))
	c := MustPolygon(pt(5, 5), pt(6, 5), pt(6, 6), pt(5, 6))
	nested := MustPolygon(pt(0.25, 0.25), pt(0.75, 0.25), pt(0.75, 0.75), pt(0.25, 0.75))
	if !Intersects(a, b) {
		t.Error("overlapping polygons must intersect")
	}
	if Intersects(a, c) {
		t.Error("distant polygons must not intersect")
	}
	if !Intersects(a, nested) || !Intersects(nested, a) {
		t.Error("nested polygons must intersect")
	}
	// Polygon entirely within a hole does not intersect.
	holed := squareWithHole()
	inHole := MustPolygon(pt(4.5, 4.5), pt(5.5, 4.5), pt(5.5, 5.5), pt(4.5, 5.5))
	if Intersects(holed, inHole) {
		t.Error("polygon inside hole must not intersect")
	}
}

func TestContainsAndCovers(t *testing.T) {
	poly := unitSquare()
	inner := MustPolygon(pt(0.25, 0.25), pt(0.75, 0.25), pt(0.75, 0.75), pt(0.25, 0.75))
	if !Contains(poly, inner) {
		t.Error("square must contain inner square")
	}
	if !Covers(poly, inner) {
		t.Error("square must cover inner square")
	}
	if Contains(inner, poly) {
		t.Error("inner must not contain outer")
	}
	// Boundary point: covered but not contained.
	bp := pt(0, 0.5)
	if Contains(poly, bp) {
		t.Error("polygon must not Contain a boundary point")
	}
	if !Covers(poly, bp) {
		t.Error("polygon must Cover a boundary point")
	}
	// Interior point: both.
	ip := pt(0.5, 0.5)
	if !Contains(poly, ip) || !Covers(poly, ip) {
		t.Error("polygon must contain and cover interior point")
	}
	// Point containment of itself.
	if !Contains(pt(1, 1), pt(1, 1)) {
		t.Error("point must contain equal point")
	}
	if Contains(pt(1, 1), pt(1, 2)) {
		t.Error("point must not contain different point")
	}
}

func TestContainsLineInPolygon(t *testing.T) {
	poly := unitSquare()
	inside := MustLineString(pt(0.1, 0.1), pt(0.9, 0.9))
	crossing := MustLineString(pt(0.5, 0.5), pt(2, 2))
	if !Contains(poly, inside) {
		t.Error("polygon must contain inner line")
	}
	if Contains(poly, crossing) {
		t.Error("polygon must not contain crossing line")
	}
	// A line crossing the hole is not covered.
	holed := squareWithHole()
	overHole := MustLineString(pt(3, 5), pt(7, 5))
	if Covers(holed, overHole) {
		t.Error("line crossing the hole must not be covered")
	}
	beside := MustLineString(pt(1, 1), pt(3, 1))
	if !Covers(holed, beside) {
		t.Error("line away from the hole must be covered")
	}
}

func TestWithinAndCoveredBy(t *testing.T) {
	poly := unitSquare()
	p := pt(0.5, 0.5)
	if !Within(p, poly) {
		t.Error("interior point must be within polygon")
	}
	if !CoveredBy(pt(0, 0), poly) {
		t.Error("corner must be covered by polygon")
	}
	if Within(pt(0, 0), poly) {
		t.Error("corner must not be within polygon (boundary only)")
	}
}

func TestDisjoint(t *testing.T) {
	if !Disjoint(pt(0, 0), pt(1, 1)) {
		t.Error("distinct points must be disjoint")
	}
	if Disjoint(unitSquare(), pt(0.5, 0.5)) {
		t.Error("containing pair must not be disjoint")
	}
}

func TestDistanceGeometries(t *testing.T) {
	a := unitSquare()
	b := MustPolygon(pt(3, 0), pt(4, 0), pt(4, 1), pt(3, 1))
	if got := Distance(a, b); got != 2 {
		t.Errorf("polygon distance = %v, want 2", got)
	}
	if got := Distance(pt(2, 0.5), a); got != 1 {
		t.Errorf("point-polygon distance = %v, want 1", got)
	}
	if got := Distance(pt(0.5, 0.5), a); got != 0 {
		t.Errorf("interior point distance = %v, want 0", got)
	}
	l := MustLineString(pt(0, 3), pt(1, 3))
	if got := Distance(l, a); got != 2 {
		t.Errorf("line-polygon distance = %v, want 2", got)
	}
	if got := Distance(pt(0, 0), pt(3, 4)); got != 5 {
		t.Errorf("point distance = %v, want 5", got)
	}
}

// ---- Property-based tests ----

func TestPropIntersectsSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		g1 := randomGeometry(rng)
		g2 := randomGeometry(rng)
		return Intersects(g1, g2) == Intersects(g2, g1)
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropContainsImpliesIntersects(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		g1 := randomGeometry(rng)
		g2 := randomGeometry(rng)
		if Contains(g1, g2) && !Intersects(g1, g2) {
			return false
		}
		if Covers(g1, g2) && !Intersects(g1, g2) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropContainsImpliesCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		g1 := randomGeometry(rng)
		g2 := randomGeometry(rng)
		return !Contains(g1, g2) || Covers(g1, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropEnvelopeConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func() bool {
		g1 := randomGeometry(rng)
		g2 := randomGeometry(rng)
		// Geometry intersection implies envelope intersection.
		if Intersects(g1, g2) && !g1.Envelope().Intersects(g2.Envelope()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropDistanceZeroIffIntersects(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func() bool {
		g1 := randomGeometry(rng)
		g2 := randomGeometry(rng)
		d := Distance(g1, g2)
		if Intersects(g1, g2) {
			return d == 0
		}
		return d > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropCentroidInsideEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	f := func() bool {
		g := randomGeometry(rng)
		c := g.Centroid()
		env := g.Envelope().ExpandBy(1e-9)
		return env.ContainsPoint(c.X, c.Y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// randomGeometry produces points, lines and small convex polygons in
// [0, 10)².
func randomGeometry(rng *rand.Rand) Geometry {
	switch rng.Intn(4) {
	case 0:
		return pt(rng.Float64()*10, rng.Float64()*10)
	case 1:
		n := 2 + rng.Intn(4)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = pt(rng.Float64()*10, rng.Float64()*10)
		}
		ls, err := NewLineString(pts)
		if err != nil {
			return pt(0, 0)
		}
		return ls
	case 2:
		pts := make([]Point, 3)
		for i := range pts {
			pts[i] = pt(rng.Float64()*10, rng.Float64()*10)
		}
		mp := NewMultiPoint(pts)
		return mp
	default:
		// Axis-aligned random rectangle (always a valid simple polygon).
		x, y := rng.Float64()*8, rng.Float64()*8
		w, h := 0.1+rng.Float64()*2, 0.1+rng.Float64()*2
		return MustPolygon(pt(x, y), pt(x+w, y), pt(x+w, y+h), pt(x, y+h))
	}
}

func TestEnvelopeOps(t *testing.T) {
	e := NewEnvelope(0, 0, 4, 2)
	if e.Width() != 4 || e.Height() != 2 || e.Area() != 8 {
		t.Errorf("dims: w=%v h=%v a=%v", e.Width(), e.Height(), e.Area())
	}
	if c := e.Center(); c.X != 2 || c.Y != 1 {
		t.Errorf("center = %v", c)
	}
	empty := EmptyEnvelope()
	if !empty.IsEmpty() {
		t.Error("empty envelope must be empty")
	}
	if empty.Intersects(e) || e.Intersects(empty) {
		t.Error("empty envelope must not intersect")
	}
	grown := empty.ExpandToPoint(1, 1)
	if grown.IsEmpty() || grown.MinX != 1 || grown.MaxX != 1 {
		t.Errorf("grown = %v", grown)
	}
	u := e.ExpandToInclude(NewEnvelope(5, 5, 6, 6))
	if u.MaxX != 6 || u.MaxY != 6 || u.MinX != 0 {
		t.Errorf("union = %v", u)
	}
	inter := e.Intersection(NewEnvelope(3, 1, 10, 10))
	if inter.MinX != 3 || inter.MaxX != 4 || inter.MinY != 1 || inter.MaxY != 2 {
		t.Errorf("intersection = %v", inter)
	}
	if !e.Intersection(NewEnvelope(100, 100, 101, 101)).IsEmpty() {
		t.Error("disjoint intersection must be empty")
	}
	if d := e.Distance(NewEnvelope(7, 0, 8, 2)); d != 3 {
		t.Errorf("envelope distance = %v, want 3", d)
	}
	if d := e.Distance(NewEnvelope(1, 1, 2, 2)); d != 0 {
		t.Errorf("overlapping distance = %v, want 0", d)
	}
	if d := e.DistanceToPoint(4, 5); d != 3 {
		t.Errorf("point distance = %v, want 3", d)
	}
	if d := e.DistanceToPoint(2, 1); d != 0 {
		t.Errorf("inside point distance = %v", d)
	}
	if !e.ContainsEnvelope(NewEnvelope(1, 0.5, 2, 1.5)) {
		t.Error("containment failed")
	}
	if e.ContainsEnvelope(NewEnvelope(1, 0.5, 5, 1.5)) {
		t.Error("overhanging envelope must not be contained")
	}
	shrunk := e.ExpandBy(-3)
	if !shrunk.IsEmpty() {
		t.Errorf("over-shrunk envelope should be empty: %v", shrunk)
	}
	poly := e.ToPolygon()
	if poly.Area() != 8 {
		t.Errorf("envelope polygon area = %v", poly.Area())
	}
	if math.IsNaN(e.Distance(e)) {
		t.Error("self distance NaN")
	}
}

func TestPropEnvelopeUnionCommutes(t *testing.T) {
	f := func(x1, y1, x2, y2, x3, y3, x4, y4 float64) bool {
		a := NewEnvelope(clampf(x1), clampf(y1), clampf(x2), clampf(y2))
		b := NewEnvelope(clampf(x3), clampf(y3), clampf(x4), clampf(y4))
		u1 := a.ExpandToInclude(b)
		u2 := b.ExpandToInclude(a)
		return u1 == u2 && u1.ContainsEnvelope(a) && u1.ContainsEnvelope(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// clampf maps arbitrary floats (incl. NaN/Inf from quick) into a sane
// coordinate range.
func clampf(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}
