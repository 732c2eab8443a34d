package geom

import "math"

// This file implements the constructive geometry operations the
// event-processing pipelines of the demo use on top of the predicate
// kernel: polyline simplification (Douglas–Peucker) and point
// buffering.

// Simplify reduces the vertex count of a line string with the
// Douglas–Peucker algorithm: vertices farther than tolerance from the
// simplified chain are kept. The first and last vertices always
// survive. Non-positive tolerances return the input unchanged.
func Simplify(l LineString, tolerance float64) LineString {
	if tolerance <= 0 || l.NumPoints() <= 2 {
		return l
	}
	keep := make([]bool, len(l.pts))
	keep[0], keep[len(l.pts)-1] = true, true
	douglasPeucker(l.pts, 0, len(l.pts)-1, tolerance, keep)
	out := make([]Point, 0, len(l.pts))
	for i, k := range keep {
		if k {
			out = append(out, l.pts[i])
		}
	}
	return newLineString(out)
}

func douglasPeucker(pts []Point, lo, hi int, tol float64, keep []bool) {
	if hi <= lo+1 {
		return
	}
	maxDist, maxIdx := 0.0, -1
	for i := lo + 1; i < hi; i++ {
		if d := distancePointSegment(pts[i], pts[lo], pts[hi]); d > maxDist {
			maxDist, maxIdx = d, i
		}
	}
	if maxDist > tol {
		keep[maxIdx] = true
		douglasPeucker(pts, lo, maxIdx, tol, keep)
		douglasPeucker(pts, maxIdx, hi, tol, keep)
	}
}

// BufferPoint returns a regular polygon with the given number of
// segments approximating the disc of radius r around p. segments < 3
// selects 32.
func BufferPoint(p Point, r float64, segments int) (Polygon, bool) {
	if r <= 0 {
		return Polygon{}, false
	}
	if segments < 3 {
		segments = 32
	}
	pts := make([]Point, segments)
	for i := 0; i < segments; i++ {
		angle := 2 * math.Pi * float64(i) / float64(segments)
		pts[i] = Point{X: p.X + r*math.Cos(angle), Y: p.Y + r*math.Sin(angle)}
	}
	poly, err := NewPolygonFromPoints(pts)
	if err != nil {
		return Polygon{}, false
	}
	return poly, true
}
