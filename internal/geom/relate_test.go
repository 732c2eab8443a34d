package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTouchesPolygons(t *testing.T) {
	a := mustPolygon(pt(0, 0), pt(10, 0), pt(10, 10), pt(0, 10))
	edge := mustPolygon(pt(10, 0), pt(20, 0), pt(20, 10), pt(10, 10))     // shares an edge
	corner := mustPolygon(pt(10, 10), pt(20, 10), pt(20, 20), pt(10, 20)) // shares a corner
	overlap := mustPolygon(pt(5, 5), pt(15, 5), pt(15, 15), pt(5, 15))    // proper overlap
	far := mustPolygon(pt(50, 50), pt(60, 50), pt(60, 60), pt(50, 60))

	if !Touches(a, edge) {
		t.Error("edge-sharing polygons must touch")
	}
	if !Touches(a, corner) {
		t.Error("corner-sharing polygons must touch")
	}
	if Touches(a, overlap) {
		t.Error("overlapping polygons must not touch")
	}
	if Touches(a, far) {
		t.Error("disjoint polygons must not touch")
	}
	// Containment is not touching.
	inner := mustPolygon(pt(2, 2), pt(4, 2), pt(4, 4), pt(2, 4))
	if Touches(a, inner) {
		t.Error("contained polygon must not touch")
	}
}

func TestTouchesPointAndPolygon(t *testing.T) {
	poly := unitSquare()
	if !Touches(pt(0, 0.5), poly) || !Touches(poly, pt(0, 0.5)) {
		t.Error("boundary point must touch")
	}
	if Touches(pt(0.5, 0.5), poly) {
		t.Error("interior point must not touch")
	}
	if Touches(pt(5, 5), poly) {
		t.Error("exterior point must not touch")
	}
	// Points never touch points.
	if Touches(pt(1, 1), pt(1, 1)) {
		t.Error("equal points must not touch (empty boundaries)")
	}
}

func TestTouchesLineAndPolygon(t *testing.T) {
	poly := mustPolygon(pt(0, 0), pt(10, 0), pt(10, 10), pt(0, 10))
	along := mustLineString(pt(0, 10), pt(10, 10))    // runs along the top edge
	poke := mustLineString(pt(5, 15), pt(5, 5))       // enters the interior
	tangent := mustLineString(pt(-5, 10), pt(15, 10)) // touches the top edge from outside
	if !Touches(along, poly) {
		t.Error("edge-following line must touch")
	}
	if Touches(poke, poly) {
		t.Error("penetrating line must not touch")
	}
	if !Touches(tangent, poly) {
		t.Error("tangent line must touch")
	}
}

func TestTouchesLines(t *testing.T) {
	a := mustLineString(pt(0, 0), pt(10, 0))
	endToEnd := mustLineString(pt(10, 0), pt(20, 0))
	tjunction := mustLineString(pt(5, 0), pt(5, 10)) // endpoint meets a's interior
	crossing := mustLineString(pt(5, -5), pt(5, 5))
	if !Touches(a, endToEnd) {
		t.Error("end-to-end lines must touch")
	}
	if !Touches(a, tjunction) {
		t.Error("T junction (endpoint contact) must touch")
	}
	if Touches(a, crossing) {
		t.Error("crossing lines must not touch")
	}
}

func TestOverlapsPolygons(t *testing.T) {
	a := mustPolygon(pt(0, 0), pt(10, 0), pt(10, 10), pt(0, 10))
	partial := mustPolygon(pt(5, 5), pt(15, 5), pt(15, 15), pt(5, 15))
	inner := mustPolygon(pt(2, 2), pt(4, 2), pt(4, 4), pt(2, 4))
	edge := mustPolygon(pt(10, 0), pt(20, 0), pt(20, 10), pt(10, 10))
	if !Overlaps(a, partial) || !Overlaps(partial, a) {
		t.Error("partially overlapping polygons must overlap")
	}
	if Overlaps(a, inner) {
		t.Error("containment is not overlap")
	}
	if Overlaps(a, edge) {
		t.Error("touching is not overlap")
	}
	if Overlaps(a, a) {
		t.Error("equal polygons must not overlap (covers)")
	}
	if Overlaps(a, pt(5, 5)) {
		t.Error("mixed dimensions must not overlap")
	}
}

func TestOverlapsLines(t *testing.T) {
	a := mustLineString(pt(0, 0), pt(10, 0))
	cross := mustLineString(pt(5, -5), pt(5, 5))
	if !Overlaps(a, cross) {
		t.Error("crossing lines share interior points and neither covers the other")
	}
	meet := mustLineString(pt(10, 0), pt(20, 0))
	if Overlaps(a, meet) {
		t.Error("end-to-end lines must not overlap")
	}
}

func TestPropTouchesOverlapsDisjointFromEachOther(t *testing.T) {
	// For any pair: Touches and Overlaps never both hold, and each
	// implies Intersects.
	rng := rand.New(rand.NewSource(77))
	f := func() bool {
		g1 := randomGeometry(rng)
		g2 := randomGeometry(rng)
		to := Touches(g1, g2)
		ov := Overlaps(g1, g2)
		if to && ov {
			return false
		}
		if (to || ov) && !Intersects(g1, g2) {
			return false
		}
		// Symmetry.
		return to == Touches(g2, g1) && ov == Overlaps(g2, g1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
