package geom

import "math"

// This file implements the constructive geometry operations the
// event-processing pipelines of the demo use on top of the predicate
// kernel: polyline simplification (Douglas–Peucker), clipping against
// rectangular windows (Sutherland–Hodgman), point buffering, and
// linear interpolation along line strings.

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
		if d := DistancePointSegment(pts[i], pts[lo], pts[hi]); d > maxDist {
			maxDist, maxIdx = d, i
		}
	}
	if maxDist > tol {
		keep[maxIdx] = true
		douglasPeucker(pts, lo, maxIdx, tol, keep)
		douglasPeucker(pts, maxIdx, hi, tol, keep)
	}
}

// ClipPolygon clips a polygon's shell against an axis-aligned window
// using the Sutherland–Hodgman algorithm (holes are clipped the same
// way and dropped when they vanish). It returns false when nothing of
// the polygon lies inside the window. The input must be convex or
// simple; self-intersections in the output can occur for wildly
// concave inputs, as usual for Sutherland–Hodgman.
func ClipPolygon(p Polygon, window Envelope) (Polygon, bool) {
	if p.IsEmpty() || window.IsEmpty() {
		return Polygon{}, false
	}
	shell := clipRing(p.shell.pts, window)
	if len(shell) < 3 {
		return Polygon{}, false
	}
	sr, err := NewRing(shell)
	if err != nil {
		return Polygon{}, false
	}
	var holes []Ring
	for _, h := range p.holes {
		hp := clipRing(h.pts, window)
		if len(hp) >= 3 {
			if hr, err := NewRing(hp); err == nil {
				holes = append(holes, hr)
			}
		}
	}
	return newPolygon(sr, holes), true
}

// clipRing clips a closed ring (first == last vertex) against the
// window, one half-plane at a time. The returned slice is open (no
// duplicate closing vertex).
func clipRing(ring []Point, w Envelope) []Point {
	// Work on the open form.
	open := ring
	if len(open) > 1 && open[0].Equal(open[len(open)-1]) {
		open = open[:len(open)-1]
	}
	subject := append([]Point(nil), open...)
	edges := []struct {
		inside    func(p Point) bool
		intersect func(a, b Point) Point
	}{
		{func(p Point) bool { return p.X >= w.MinX },
			func(a, b Point) Point { return intersectVertical(a, b, w.MinX) }},
		{func(p Point) bool { return p.X <= w.MaxX },
			func(a, b Point) Point { return intersectVertical(a, b, w.MaxX) }},
		{func(p Point) bool { return p.Y >= w.MinY },
			func(a, b Point) Point { return intersectHorizontal(a, b, w.MinY) }},
		{func(p Point) bool { return p.Y <= w.MaxY },
			func(a, b Point) Point { return intersectHorizontal(a, b, w.MaxY) }},
	}
	for _, e := range edges {
		if len(subject) == 0 {
			return nil
		}
		var out []Point
		for i := 0; i < len(subject); i++ {
			cur := subject[i]
			prev := subject[(i+len(subject)-1)%len(subject)]
			curIn, prevIn := e.inside(cur), e.inside(prev)
			switch {
			case curIn && prevIn:
				out = append(out, cur)
			case curIn && !prevIn:
				out = append(out, e.intersect(prev, cur), cur)
			case !curIn && prevIn:
				out = append(out, e.intersect(prev, cur))
			}
		}
		subject = out
	}
	return subject
}

func intersectVertical(a, b Point, x float64) Point {
	t := (x - a.X) / (b.X - a.X)
	return Point{X: x, Y: a.Y + t*(b.Y-a.Y)}
}

func intersectHorizontal(a, b Point, y float64) Point {
	t := (y - a.Y) / (b.Y - a.Y)
	return Point{X: a.X + t*(b.X-a.X), Y: y}
}

// ClipLineString clips a line string against a window, returning the
// segments that lie inside (each as its own LineString). Uses
// Liang–Barsky parametric clipping per segment and merges contiguous
// runs.
func ClipLineString(l LineString, w Envelope) []LineString {
	var out []LineString
	var run []Point
	flush := func() {
		if len(run) >= 2 {
			out = append(out, newLineString(append([]Point(nil), run...)))
		}
		run = nil
	}
	for i := 1; i < len(l.pts); i++ {
		a, b := l.pts[i-1], l.pts[i]
		ca, cb, ok := clipSegment(a, b, w)
		if !ok {
			flush()
			continue
		}
		if len(run) == 0 || !run[len(run)-1].Equal(ca) {
			flush()
			run = append(run, ca)
		}
		run = append(run, cb)
		if !cb.Equal(b) {
			flush()
		}
	}
	flush()
	return out
}

// clipSegment is Liang–Barsky: the portion of ab inside w.
func clipSegment(a, b Point, w Envelope) (Point, Point, bool) {
	dx, dy := b.X-a.X, b.Y-a.Y
	t0, t1 := 0.0, 1.0
	clip := func(p, q float64) bool {
		if p == 0 {
			return q >= 0
		}
		r := q / p
		if p < 0 {
			if r > t1 {
				return false
			}
			if r > t0 {
				t0 = r
			}
		} else {
			if r < t0 {
				return false
			}
			if r < t1 {
				t1 = r
			}
		}
		return true
	}
	if !clip(-dx, a.X-w.MinX) || !clip(dx, w.MaxX-a.X) ||
		!clip(-dy, a.Y-w.MinY) || !clip(dy, w.MaxY-a.Y) {
		return Point{}, Point{}, false
	}
	return Point{X: a.X + t0*dx, Y: a.Y + t0*dy},
		Point{X: a.X + t1*dx, Y: a.Y + t1*dy}, true
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

// Interpolate returns the point at fraction t ∈ [0, 1] of the line
// string's length (clamped outside that range).
func Interpolate(l LineString, t float64) Point {
	if len(l.pts) == 0 {
		return Point{X: math.NaN(), Y: math.NaN()}
	}
	if t <= 0 || l.NumPoints() == 1 {
		return l.pts[0]
	}
	if t >= 1 {
		return l.pts[len(l.pts)-1]
	}
	target := t * l.Length()
	acc := 0.0
	for i := 1; i < len(l.pts); i++ {
		seg := Euclidean(l.pts[i-1], l.pts[i])
		if acc+seg >= target && seg > 0 {
			f := (target - acc) / seg
			a, b := l.pts[i-1], l.pts[i]
			return Point{X: a.X + f*(b.X-a.X), Y: a.Y + f*(b.Y-a.Y)}
		}
		acc += seg
	}
	return l.pts[len(l.pts)-1]
}
