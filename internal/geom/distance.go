package geom

import "math"

// DistanceFunc computes a distance between two points. STARK lets
// callers supply their own distance function to withinDistance and
// kNN operators; the functions in this file are the ones shipped out
// of the box.
type DistanceFunc func(a, b Point) float64

// Euclidean returns the planar L2 distance.
func Euclidean(a, b Point) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

// SquaredEuclidean returns the squared planar L2 distance. Useful for
// comparisons where the square root is unnecessary.
func SquaredEuclidean(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// Distance returns the minimum planar distance between two geometries
// of any supported kind; 0 when they intersect.
func Distance(g1, g2 Geometry) float64 {
	if Intersects(g1, g2) {
		return 0
	}
	if g1 != nil && g2 != nil && g2.kind() < g1.kind() {
		g1, g2 = g2, g1 // the arms below take g2 of g1's kind or later
	}
	switch a := g1.(type) {
	case Point:
		return distancePointGeom(a, g2)
	case MultiPoint:
		best := math.Inf(1)
		for _, p := range a.pts {
			best = math.Min(best, distancePointGeom(p, g2))
		}
		return best
	case LineString, Polygon:
		return edgeDistance(a, g2)
	}
	return math.Inf(1)
}

func distancePointGeom(p Point, g Geometry) float64 {
	switch b := g.(type) {
	case Point:
		return Euclidean(p, b)
	case MultiPoint:
		best := math.Inf(1)
		for _, q := range b.pts {
			best = math.Min(best, Euclidean(p, q))
		}
		return best
	case LineString, Polygon:
		if poly, ok := b.(Polygon); ok && polygonContainsPoint(poly, p) >= 0 {
			return 0
		}
		best := math.Inf(1)
		for _, r := range edgeChains(b) {
			for i := 1; i < len(r.pts); i++ {
				best = math.Min(best, distancePointSegment(p, r.pts[i-1], r.pts[i]))
			}
		}
		return best
	}
	return math.Inf(1)
}

// edgeChains returns the vertex chains whose edges make up a line
// string (its one) or a polygon (the shell, then the holes); nil for
// another kind.
func edgeChains(g Geometry) []Ring {
	switch b := g.(type) {
	case LineString:
		return []Ring{{b.pts}}
	case Polygon:
		return append([]Ring{b.shell}, b.holes...)
	}
	return nil
}

// edgeDistance is the least distance between an edge of g1 and one of
// g2, line strings or polygons that do not intersect.
func edgeDistance(g1, g2 Geometry) float64 {
	best := math.Inf(1)
	rs2 := edgeChains(g2)
	for _, r1 := range edgeChains(g1) {
		for _, r2 := range rs2 {
			for i := 1; i < len(r1.pts); i++ {
				for j := 1; j < len(r2.pts); j++ {
					best = math.Min(best, distanceSegmentSegment(r1.pts[i-1], r1.pts[i], r2.pts[j-1], r2.pts[j]))
				}
			}
		}
	}
	return best
}
