package geom

import "math"

// orientation returns >0 when c lies to the left of the directed line
// a→b, <0 when to the right, and 0 when the three points are collinear.
func orientation(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// onSegment reports whether point c, known to be collinear with a and
// b, lies on the closed segment ab.
func onSegment(a, b, c Point) bool {
	return math.Min(a.X, b.X) <= c.X && c.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= c.Y && c.Y <= math.Max(a.Y, b.Y)
}

// SegmentsIntersect reports whether the closed segments p1p2 and q1q2
// share at least one point, including endpoint and collinear contact.
func SegmentsIntersect(p1, p2, q1, q2 Point) bool {
	d1 := orientation(q1, q2, p1)
	d2 := orientation(q1, q2, p2)
	d3 := orientation(p1, p2, q1)
	d4 := orientation(p1, p2, q2)

	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	switch {
	case d1 == 0 && onSegment(q1, q2, p1):
		return true
	case d2 == 0 && onSegment(q1, q2, p2):
		return true
	case d3 == 0 && onSegment(p1, p2, q1):
		return true
	case d4 == 0 && onSegment(p1, p2, q2):
		return true
	}
	return false
}

// pointOnSegment reports whether p lies on the closed segment ab.
func pointOnSegment(a, b, p Point) bool {
	return orientation(a, b, p) == 0 && onSegment(a, b, p)
}

// ringContainsPoint classifies p against the ring: +1 interior,
// 0 boundary, -1 exterior. It uses the crossing-number algorithm with
// explicit boundary handling so predicates can distinguish Contains
// (interior only) from Covers (interior or boundary).
func ringContainsPoint(r Ring, p Point) int {
	inside := false
	n := len(r.pts)
	for i := 1; i < n; i++ {
		a, b := r.pts[i-1], r.pts[i]
		if pointOnSegment(a, b, p) {
			return 0
		}
		// Half-open rule on y avoids double counting at vertices.
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xCross := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if xCross > p.X {
				inside = !inside
			}
		}
	}
	if inside {
		return 1
	}
	return -1
}

// PolygonContainsPoint classifies p against the polygon (holes
// considered): +1 strict interior, 0 boundary, -1 exterior.
func PolygonContainsPoint(poly Polygon, p Point) int {
	c := ringContainsPoint(poly.shell, p)
	if c <= 0 {
		return c
	}
	for _, h := range poly.holes {
		switch ringContainsPoint(h, p) {
		case 1:
			return -1 // inside a hole → outside the polygon
		case 0:
			return 0 // on a hole boundary → polygon boundary
		}
	}
	return 1
}

// ringEdgesIntersect reports whether any edge of r1 intersects any
// edge of r2.
func ringEdgesIntersect(r1, r2 Ring) bool {
	for i := 1; i < len(r1.pts); i++ {
		for j := 1; j < len(r2.pts); j++ {
			if SegmentsIntersect(r1.pts[i-1], r1.pts[i], r2.pts[j-1], r2.pts[j]) {
				return true
			}
		}
	}
	return false
}

// lineEdgesIntersectRing reports whether any segment of l intersects
// any edge of r.
func lineEdgesIntersectRing(l LineString, r Ring) bool {
	for i := 1; i < len(l.pts); i++ {
		for j := 1; j < len(r.pts); j++ {
			if SegmentsIntersect(l.pts[i-1], l.pts[i], r.pts[j-1], r.pts[j]) {
				return true
			}
		}
	}
	return false
}

// DistancePointSegment returns the minimum distance from p to the
// closed segment ab.
func DistancePointSegment(p, a, b Point) float64 {
	dx, dy := b.X-a.X, b.Y-a.Y
	if dx == 0 && dy == 0 {
		return Euclidean(p, a)
	}
	t := ((p.X-a.X)*dx + (p.Y-a.Y)*dy) / (dx*dx + dy*dy)
	t = math.Max(0, math.Min(1, t))
	proj := Point{X: a.X + t*dx, Y: a.Y + t*dy}
	return Euclidean(p, proj)
}

// DistanceSegmentSegment returns the minimum distance between two
// closed segments; 0 when they intersect.
func DistanceSegmentSegment(p1, p2, q1, q2 Point) float64 {
	if SegmentsIntersect(p1, p2, q1, q2) {
		return 0
	}
	return math.Min(
		math.Min(DistancePointSegment(p1, q1, q2), DistancePointSegment(p2, q1, q2)),
		math.Min(DistancePointSegment(q1, p1, p2), DistancePointSegment(q2, p1, p2)),
	)
}
