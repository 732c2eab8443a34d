package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimplifyStraightLine(t *testing.T) {
	// Collinear interior points vanish.
	l := mustLineString(pt(0, 0), pt(1, 0.001), pt(2, -0.001), pt(3, 0), pt(4, 0))
	s := Simplify(l, 0.01)
	if s.NumPoints() != 2 {
		t.Errorf("simplified to %d points, want 2", s.NumPoints())
	}
	if !s.PointAt(0).Equal(pt(0, 0)) || !s.PointAt(1).Equal(pt(4, 0)) {
		t.Error("endpoints must survive")
	}
}

func TestSimplifyKeepsSignificantVertices(t *testing.T) {
	l := mustLineString(pt(0, 0), pt(2, 5), pt(4, 0))
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
		l := mustLineString(pts...)
		tol := 0.5 + rng.Float64()*2
		s := Simplify(l, tol)
		// Every dropped vertex is within tol of the simplified chain.
		for _, p := range pts {
			best := math.Inf(1)
			for i := 1; i < s.NumPoints(); i++ {
				d := distancePointSegment(p, s.PointAt(i-1), s.PointAt(i))
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

func TestBufferPoint(t *testing.T) {
	circle, ok := BufferPoint(pt(5, 5), 2, 64)
	if !ok {
		t.Fatal("buffer failed")
	}
	// Area approaches πr² from below.
	if polygonArea(circle) > math.Pi*4 || polygonArea(circle) < math.Pi*4*0.99 {
		t.Errorf("area = %v, want ≈ %v", polygonArea(circle), math.Pi*4)
	}
	c := circle.Centroid()
	if math.Abs(c.X-5) > 1e-9 || math.Abs(c.Y-5) > 1e-9 {
		t.Errorf("centroid = %v", c)
	}
	if polygonContainsPoint(circle, pt(5, 5)) != 1 {
		t.Error("center must be inside")
	}
	if polygonContainsPoint(circle, pt(8, 5)) != -1 {
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
