package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimplifyStraightLine(t *testing.T) {
	// Collinear interior points vanish.
	l := MustLineString(pt(0, 0), pt(1, 0.001), pt(2, -0.001), pt(3, 0), pt(4, 0))
	s := Simplify(l, 0.01)
	if s.NumPoints() != 2 {
		t.Errorf("simplified to %d points, want 2", s.NumPoints())
	}
	if !s.PointAt(0).Equal(pt(0, 0)) || !s.PointAt(1).Equal(pt(4, 0)) {
		t.Error("endpoints must survive")
	}
}

func TestSimplifyKeepsSignificantVertices(t *testing.T) {
	l := MustLineString(pt(0, 0), pt(2, 5), pt(4, 0))
	s := Simplify(l, 1)
	if s.NumPoints() != 3 {
		t.Errorf("peak vertex dropped: %d points", s.NumPoints())
	}
	// Zero tolerance is the identity.
	if Simplify(l, 0).NumPoints() != 3 {
		t.Error("tolerance 0 must be identity")
	}
}

func TestPropSimplifyWithinTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		n := 3 + rng.Intn(30)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = pt(float64(i), rng.Float64()*10)
		}
		l := MustLineString(pts...)
		tol := 0.5 + rng.Float64()*2
		s := Simplify(l, tol)
		// Every dropped vertex is within tol of the simplified chain.
		for _, p := range pts {
			best := math.Inf(1)
			for i := 1; i < s.NumPoints(); i++ {
				d := DistancePointSegment(p, s.PointAt(i-1), s.PointAt(i))
				if d < best {
					best = d
				}
			}
			if best > tol+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestClipPolygonFullyInside(t *testing.T) {
	p := unitSquare()
	clipped, ok := ClipPolygon(p, NewEnvelope(-5, -5, 5, 5))
	if !ok {
		t.Fatal("clip failed")
	}
	if math.Abs(clipped.Area()-1) > 1e-12 {
		t.Errorf("area = %v", clipped.Area())
	}
}

func TestClipPolygonPartialOverlap(t *testing.T) {
	p := MustPolygon(pt(0, 0), pt(10, 0), pt(10, 10), pt(0, 10))
	clipped, ok := ClipPolygon(p, NewEnvelope(5, 5, 15, 15))
	if !ok {
		t.Fatal("clip failed")
	}
	if math.Abs(clipped.Area()-25) > 1e-9 {
		t.Errorf("area = %v, want 25", clipped.Area())
	}
}

func TestClipPolygonDisjoint(t *testing.T) {
	p := unitSquare()
	if _, ok := ClipPolygon(p, NewEnvelope(5, 5, 6, 6)); ok {
		t.Error("disjoint clip must fail")
	}
	if _, ok := ClipPolygon(Polygon{}, NewEnvelope(0, 0, 1, 1)); ok {
		t.Error("empty polygon clip must fail")
	}
	if _, ok := ClipPolygon(p, EmptyEnvelope()); ok {
		t.Error("empty window clip must fail")
	}
}

func TestClipPolygonTriangle(t *testing.T) {
	tri := MustPolygon(pt(0, 0), pt(10, 0), pt(5, 10))
	clipped, ok := ClipPolygon(tri, NewEnvelope(0, 0, 10, 5))
	if !ok {
		t.Fatal("clip failed")
	}
	// Area below y=5: total 50 minus the top triangle (area 12.5).
	if math.Abs(clipped.Area()-37.5) > 1e-9 {
		t.Errorf("area = %v, want 37.5", clipped.Area())
	}
}

func TestPropClipAreaNeverGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		x, y := rng.Float64()*10, rng.Float64()*10
		w, h := 1+rng.Float64()*10, 1+rng.Float64()*10
		p := NewEnvelope(x, y, x+w, y+h).ToPolygon()
		win := NewEnvelope(rng.Float64()*15, rng.Float64()*15,
			5+rng.Float64()*15, 5+rng.Float64()*15)
		clipped, ok := ClipPolygon(p, win)
		if !ok {
			return true
		}
		return clipped.Area() <= p.Area()+1e-9 &&
			win.ExpandBy(1e-9).ContainsEnvelope(clipped.Envelope())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClipLineString(t *testing.T) {
	w := NewEnvelope(0, 0, 10, 10)
	// Fully inside.
	in := MustLineString(pt(1, 1), pt(9, 9))
	parts := ClipLineString(in, w)
	if len(parts) != 1 || parts[0].NumPoints() != 2 {
		t.Fatalf("inside: %v", parts)
	}
	// Crossing in and out.
	cross := MustLineString(pt(-5, 5), pt(15, 5))
	parts = ClipLineString(cross, w)
	if len(parts) != 1 {
		t.Fatalf("crossing: %d parts", len(parts))
	}
	if parts[0].PointAt(0).X != 0 || parts[0].PointAt(1).X != 10 {
		t.Errorf("crossing clipped to %v", parts[0])
	}
	// Entirely outside.
	out := MustLineString(pt(20, 20), pt(30, 30))
	if parts = ClipLineString(out, w); len(parts) != 0 {
		t.Errorf("outside: %v", parts)
	}
	// Zigzag exiting and re-entering produces two parts.
	zig := MustLineString(pt(1, 1), pt(1, 20), pt(5, 20), pt(5, 1))
	parts = ClipLineString(zig, w)
	if len(parts) != 2 {
		t.Fatalf("zigzag: %d parts, want 2", len(parts))
	}
}

func TestBufferPoint(t *testing.T) {
	circle, ok := BufferPoint(pt(5, 5), 2, 64)
	if !ok {
		t.Fatal("buffer failed")
	}
	// Area approaches πr² from below.
	if circle.Area() > math.Pi*4 || circle.Area() < math.Pi*4*0.99 {
		t.Errorf("area = %v, want ≈ %v", circle.Area(), math.Pi*4)
	}
	c := circle.Centroid()
	if math.Abs(c.X-5) > 1e-9 || math.Abs(c.Y-5) > 1e-9 {
		t.Errorf("centroid = %v", c)
	}
	if PolygonContainsPoint(circle, pt(5, 5)) != 1 {
		t.Error("center must be inside")
	}
	if PolygonContainsPoint(circle, pt(8, 5)) != -1 {
		t.Error("point beyond radius must be outside")
	}
	if _, ok := BufferPoint(pt(0, 0), 0, 8); ok {
		t.Error("zero radius must fail")
	}
	// Default segment count.
	dflt, ok := BufferPoint(pt(0, 0), 1, 0)
	if !ok || dflt.Shell().NumPoints() != 33 {
		t.Errorf("default segments: %d points", dflt.Shell().NumPoints())
	}
}

func TestInterpolate(t *testing.T) {
	l := MustLineString(pt(0, 0), pt(10, 0), pt(10, 10))
	if p := Interpolate(l, 0); !p.Equal(pt(0, 0)) {
		t.Errorf("t=0 → %v", p)
	}
	if p := Interpolate(l, 1); !p.Equal(pt(10, 10)) {
		t.Errorf("t=1 → %v", p)
	}
	if p := Interpolate(l, 0.25); !p.Equal(pt(5, 0)) {
		t.Errorf("t=0.25 → %v", p)
	}
	if p := Interpolate(l, 0.75); !p.Equal(pt(10, 5)) {
		t.Errorf("t=0.75 → %v", p)
	}
	if p := Interpolate(l, -1); !p.Equal(pt(0, 0)) {
		t.Errorf("t<0 → %v", p)
	}
	if p := Interpolate(l, 2); !p.Equal(pt(10, 10)) {
		t.Errorf("t>1 → %v", p)
	}
	if p := Interpolate(LineString{}, 0.5); !p.IsEmpty() {
		t.Errorf("empty → %v", p)
	}
}

func TestPropInterpolateOnLine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		n := 2 + rng.Intn(8)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = pt(rng.Float64()*100, rng.Float64()*100)
		}
		l := MustLineString(pts...)
		tv := rng.Float64()
		p := Interpolate(l, tv)
		// The interpolated point lies on the line string.
		return Distance(p, l) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
