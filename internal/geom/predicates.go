package geom

// This file implements the topological predicates STARK exposes on
// spatial components: Intersects, Contains, Covers, Within, Disjoint.
// The semantics follow the simplified JTS behaviour the paper relies
// on:
//
//   - Intersects: the geometries share at least one point (boundary
//     contact counts).
//   - Contains: every point of the argument lies in the receiver and
//     at least one point lies in the receiver's interior. For the
//     point/line/polygon combinations STARK uses, the practical rule
//     "b ⊆ a, boundary contact allowed unless b is entirely on a's
//     boundary" is implemented.
//   - Covers: every point of the argument lies in the receiver
//     (boundary contact allowed everywhere).

// Intersects reports whether g1 and g2 share at least one point.
func Intersects(g1, g2 Geometry) bool {
	if g1 == nil || g2 == nil || g1.IsEmpty() || g2.IsEmpty() {
		return false
	}
	if !g1.Envelope().Intersects(g2.Envelope()) {
		return false
	}
	if g2.Kind() < g1.Kind() {
		g1, g2 = g2, g1 // the arms below take g2 of g1's kind or later
	}
	switch a := g1.(type) {
	case Point:
		return intersectsPoint(a, g2)
	case MultiPoint:
		for _, p := range a.pts {
			if intersectsPoint(p, g2) {
				return true
			}
		}
		return false
	case LineString:
		return intersectsLine(a, g2)
	case Polygon:
		return intersectsPolygon(a, g2)
	}
	return false
}

func intersectsPoint(p Point, g Geometry) bool {
	switch b := g.(type) {
	case Point:
		return p.Equal(b)
	case MultiPoint:
		for _, q := range b.pts {
			if p.Equal(q) {
				return true
			}
		}
		return false
	case LineString:
		for i := 1; i < len(b.pts); i++ {
			if pointOnSegment(b.pts[i-1], b.pts[i], p) {
				return true
			}
		}
		return false
	case Polygon:
		return classifyPoint(b, p) >= 0
	}
	return false
}

// classifyPoint is PolygonContainsPoint for the point arms of the
// predicates: +1 strict interior, 0 boundary, -1 exterior. A polygon
// flagged as an axis-aligned rectangle at construction is its own
// envelope, so the closed envelope test decides inside-or-boundary and
// the open one the interior, with the same result as the ring walk for
// every point (NaN ordinates fail every comparison and come out
// exterior on both paths).
func classifyPoint(poly Polygon, p Point) int {
	if !poly.rect {
		return PolygonContainsPoint(poly, p)
	}
	e := poly.env
	switch {
	case p.X > e.MinX && p.X < e.MaxX && p.Y > e.MinY && p.Y < e.MaxY:
		return 1
	case p.X >= e.MinX && p.X <= e.MaxX && p.Y >= e.MinY && p.Y <= e.MaxY:
		return 0
	}
	return -1
}

func intersectsLine(l LineString, g Geometry) bool {
	switch b := g.(type) {
	case LineString:
		for i := 1; i < len(l.pts); i++ {
			for j := 1; j < len(b.pts); j++ {
				if SegmentsIntersect(l.pts[i-1], l.pts[i], b.pts[j-1], b.pts[j]) {
					return true
				}
			}
		}
		return false
	case Polygon:
		// Any vertex inside, or any edge crossing the boundary.
		for _, p := range l.pts {
			if PolygonContainsPoint(b, p) >= 0 {
				return true
			}
		}
		if lineEdgesIntersectRing(l, b.shell) {
			return true
		}
		for _, h := range b.holes {
			if lineEdgesIntersectRing(l, h) {
				return true
			}
		}
		return false
	}
	return false
}

func intersectsPolygon(poly Polygon, g Geometry) bool {
	b, ok := g.(Polygon)
	// Shell edge crossing, or one contains a vertex of the other (covers
	// containment when one polygon is nested inside the other without
	// edge contact).
	return ok && (ringEdgesIntersect(poly.shell, b.shell) ||
		PolygonContainsPoint(poly, b.shell.pts[0]) >= 0 ||
		PolygonContainsPoint(b, poly.shell.pts[0]) >= 0)
}

// Covers reports whether every point of g2 lies within g1 (interior
// or boundary).
func Covers(g1, g2 Geometry) bool {
	if g1 == nil || g2 == nil || g1.IsEmpty() || g2.IsEmpty() {
		return false
	}
	if !g1.Envelope().ContainsEnvelope(g2.Envelope()) {
		return false
	}
	// A puntal g2 is covered when each of its points meets g1.
	switch b := g2.(type) {
	case Point:
		return intersectsPoint(b, g1)
	case MultiPoint:
		return allMeet(b.pts, g1)
	}
	switch a := g1.(type) {
	case LineString:
		// Every vertex and midpoint of b must lie on a. Vertex
		// containment on a polyline is sufficient for the simple
		// (non-overlapping-collinear) inputs STARK processes.
		b, ok := g2.(LineString)
		if !ok || !allMeet(b.pts, a) {
			return false
		}
		for i := 1; i < len(b.pts); i++ {
			mid := Point{X: (b.pts[i-1].X + b.pts[i].X) / 2, Y: (b.pts[i-1].Y + b.pts[i].Y) / 2}
			if !intersectsPoint(mid, a) {
				return false
			}
		}
		return true
	case Polygon:
		return polygonCovers(a, g2)
	}
	return false
}

// allMeet reports whether every point of pts meets g.
func allMeet(pts []Point, g Geometry) bool {
	for _, q := range pts {
		if !intersectsPoint(q, g) {
			return false
		}
	}
	return true
}

// Contains is Covers with the extra JTS condition that at least one
// point of g2 lies in the interior of g1; a polygon does not Contain a
// geometry that only touches its boundary.
func Contains(g1, g2 Geometry) bool {
	if !Covers(g1, g2) {
		return false
	}
	poly, ok := g1.(Polygon)
	if !ok {
		return true // point/line containment has no boundary subtlety here
	}
	switch b := g2.(type) {
	case Point:
		return classifyPoint(poly, b) == 1
	case MultiPoint:
		for _, q := range b.pts {
			if classifyPoint(poly, q) == 1 {
				return true
			}
		}
		return false
	case LineString:
		for _, q := range b.pts {
			if PolygonContainsPoint(poly, q) == 1 {
				return true
			}
		}
		// All vertices on the boundary: check a midpoint.
		for i := 1; i < len(b.pts); i++ {
			mid := Point{X: (b.pts[i-1].X + b.pts[i].X) / 2, Y: (b.pts[i-1].Y + b.pts[i].Y) / 2}
			if PolygonContainsPoint(poly, mid) == 1 {
				return true
			}
		}
		return false
	case Polygon:
		return PolygonContainsPoint(poly, b.Centroid()) == 1 ||
			PolygonContainsPoint(poly, b.shell.pts[0]) == 1
	}
	return false
}

// polygonCovers reports whether the polygon covers a line string or
// another polygon: every vertex of g (of its shell) lies in poly, inside
// or on the boundary, and no edge of it crosses one of poly's rings
// (with both ends inside, a way out needs a proper crossing); nor may a
// hole of poly lie strictly inside a polygon g.
func polygonCovers(poly Polygon, g Geometry) bool {
	var pts []Point
	switch b := g.(type) {
	case LineString:
		pts = b.pts
	case Polygon:
		pts = b.shell.pts
		for _, h := range poly.holes {
			if PolygonContainsPoint(b, h.pts[0]) == 1 {
				return false
			}
		}
	default:
		return false
	}
	if !allMeet(pts, poly) {
		return false
	}
	for i := 1; i < len(pts); i++ {
		if segmentCrossesRings(poly, pts[i-1], pts[i]) {
			return false
		}
	}
	return true
}

// segmentCrossesRings reports whether the open segment ab properly
// crosses any ring of poly (touching is tolerated; we test the
// segment midpoint when an edge intersection is found).
func segmentCrossesRings(poly Polygon, a, b Point) bool {
	rings := append([]Ring{poly.shell}, poly.holes...)
	for _, r := range rings {
		for j := 1; j < len(r.pts); j++ {
			if SegmentsIntersect(a, b, r.pts[j-1], r.pts[j]) {
				mid := Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}
				if PolygonContainsPoint(poly, mid) == -1 {
					return true
				}
			}
		}
	}
	return false
}

// Within reports whether g1 lies within g2 (the converse of Contains).
func Within(g1, g2 Geometry) bool { return Contains(g2, g1) }

// CoveredBy reports whether g1 is covered by g2 (the converse of
// Covers).
func CoveredBy(g1, g2 Geometry) bool { return Covers(g2, g1) }

// Disjoint reports whether the two geometries share no point.
func Disjoint(g1, g2 Geometry) bool { return !Intersects(g1, g2) }

// The point-first entry points are the generic predicates with a bare
// Point operand, in the position the name gives, so that a caller
// holding one (stobject's point keys) need not box it into a Geometry.

// IntersectsPoint is Intersects(g, p), which equals Intersects(p, g) and
// Covers(g, p).
func IntersectsPoint(g Geometry, p Point) bool {
	return envelopeHasPoint(g, p) && intersectsPoint(p, g)
}

// envelopeHasPoint is the test Intersects and Covers open with.
func envelopeHasPoint(g Geometry, p Point) bool {
	return g != nil && !g.IsEmpty() && !p.IsEmpty() && g.Envelope().ContainsPoint(p.X, p.Y)
}

// ContainsPoint is Contains(g, p).
func ContainsPoint(g Geometry, p Point) bool {
	if poly, ok := g.(Polygon); ok {
		return envelopeHasPoint(g, p) && classifyPoint(poly, p) == 1
	}
	return IntersectsPoint(g, p)
}

// PointCovers is Covers(p, g), which equals Contains(p, g): a point
// covers a point or multipoint equal to it and nothing else.
func PointCovers(p Point, g Geometry) bool {
	switch b := g.(type) {
	case Point:
		return p.Equal(b)
	case MultiPoint:
		for _, q := range b.pts {
			if !p.Equal(q) {
				return false
			}
		}
		return len(b.pts) > 0
	}
	return false
}

// TouchesPoint is Touches(g, p), which equals Touches(p, g).
func TouchesPoint(g Geometry, p Point) bool {
	return !isPuntal(g) && IntersectsPoint(g, p) && locate(p, g) == 0
}

// PointDistance is Distance(p, g), which equals Distance(g, p).
func PointDistance(p Point, g Geometry) float64 {
	if IntersectsPoint(g, p) {
		return 0
	}
	return distancePointGeom(p, g)
}
