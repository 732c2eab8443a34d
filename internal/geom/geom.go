// Package geom implements the planar geometry kernel used by STARK.
//
// It is a from-scratch replacement for the JTS (Java Topology Suite)
// subset that the original STARK implementation relies on: point,
// line-string and polygon types, envelopes (minimum bounding
// rectangles), WKT parsing and formatting, topological predicates
// (intersects, contains, covers) and distance functions.
//
// All geometries are immutable after construction; methods never
// mutate their receiver. Coordinates are planar (x, y) float64 pairs;
// for geographic data, x is longitude and y is latitude.
package geom

import (
	"fmt"
	"math"
)

// kind enumerates the geometry types supported by the kernel.
type kind int

const (
	kindPoint kind = iota
	kindMultiPoint
	kindLineString
	kindPolygon
)

// String returns the WKT tag for the kind.
func (k kind) String() string {
	switch k {
	case kindPoint:
		return "POINT"
	case kindMultiPoint:
		return "MULTIPOINT"
	case kindLineString:
		return "LINESTRING"
	case kindPolygon:
		return "POLYGON"
	default:
		return fmt.Sprintf("KIND(%d)", int(k))
	}
}

// Geometry is the interface implemented by every geometry type.
type Geometry interface {
	// kind reports the concrete geometry type.
	kind() kind
	// Envelope returns the minimum bounding rectangle.
	Envelope() Envelope
	// WKT renders the geometry in Well-Known Text.
	WKT() string
	// Centroid returns the centroid of the geometry. For a point it is
	// the point itself; for a line string the length-weighted midpoint;
	// for a polygon the area-weighted centroid.
	Centroid() Point
	// IsEmpty reports whether the geometry has no coordinates.
	IsEmpty() bool
}

// Point is a single planar coordinate.
type Point struct {
	X, Y float64
}

// NewPoint returns the point (x, y).
func NewPoint(x, y float64) Point { return Point{X: x, Y: y} }

// kind implements Geometry.
func (p Point) kind() kind { return kindPoint }

// Envelope implements Geometry; a point's envelope is degenerate.
func (p Point) Envelope() Envelope { return Envelope{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y} }

// Centroid implements Geometry.
func (p Point) Centroid() Point { return p }

// IsEmpty reports whether either ordinate is NaN.
func (p Point) IsEmpty() bool { return math.IsNaN(p.X) || math.IsNaN(p.Y) }

// Equal reports exact coordinate equality.
func (p Point) Equal(q Point) bool { return p.X == q.X && p.Y == q.Y }

// envelopeOf returns the minimum bounding rectangle of pts. Geometries
// are immutable, so every constructor calls it once and Envelope()
// answers from the stored value: the predicates ask for both
// envelopes of every pair they test.
func envelopeOf(pts []Point) Envelope {
	env := EmptyEnvelope()
	for _, p := range pts {
		env = env.ExpandToPoint(p.X, p.Y)
	}
	return env
}

// MultiPoint is a collection of points.
type MultiPoint struct {
	pts []Point
	env Envelope // of pts; meaningful only when pts is non-empty
}

// NewMultiPoint copies pts into a new MultiPoint.
func NewMultiPoint(pts []Point) MultiPoint {
	cp := make([]Point, len(pts))
	copy(cp, pts)
	return MultiPoint{pts: cp, env: envelopeOf(cp)}
}

// kind implements Geometry.
func (m MultiPoint) kind() kind { return kindMultiPoint }

// NumPoints returns the number of member points.
func (m MultiPoint) NumPoints() int { return len(m.pts) }

// PointAt returns the i-th member point.
func (m MultiPoint) PointAt(i int) Point { return m.pts[i] }

// IsEmpty implements Geometry.
func (m MultiPoint) IsEmpty() bool { return len(m.pts) == 0 }

// Envelope implements Geometry; computed once at construction.
func (m MultiPoint) Envelope() Envelope {
	if len(m.pts) == 0 {
		return EmptyEnvelope()
	}
	return m.env
}

// Centroid implements Geometry: the arithmetic mean of the members.
func (m MultiPoint) Centroid() Point {
	if len(m.pts) == 0 {
		return Point{X: math.NaN(), Y: math.NaN()}
	}
	var sx, sy float64
	for _, p := range m.pts {
		sx += p.X
		sy += p.Y
	}
	n := float64(len(m.pts))
	return Point{X: sx / n, Y: sy / n}
}

// LineString is an ordered sequence of at least two coordinates.
type LineString struct {
	pts []Point
	env Envelope // of pts; meaningful only when pts is non-empty
}

// newLineString wraps pts (not copied) with its envelope.
func newLineString(pts []Point) LineString {
	return LineString{pts: pts, env: envelopeOf(pts)}
}

// NewLineString copies pts into a new LineString. It returns an error
// when fewer than two coordinates are supplied.
func NewLineString(pts []Point) (LineString, error) {
	if len(pts) < 2 {
		return LineString{}, fmt.Errorf("geom: line string needs >= 2 points, got %d", len(pts))
	}
	cp := make([]Point, len(pts))
	copy(cp, pts)
	return newLineString(cp), nil
}

// kind implements Geometry.
func (l LineString) kind() kind { return kindLineString }

// NumPoints returns the number of vertices.
func (l LineString) NumPoints() int { return len(l.pts) }

// PointAt returns the i-th vertex.
func (l LineString) PointAt(i int) Point { return l.pts[i] }

// IsEmpty implements Geometry.
func (l LineString) IsEmpty() bool { return len(l.pts) == 0 }

// Envelope implements Geometry; computed once at construction.
func (l LineString) Envelope() Envelope {
	if len(l.pts) == 0 {
		return EmptyEnvelope()
	}
	return l.env
}

// Centroid implements Geometry: the length-weighted centroid of the
// segments (degenerates to the vertex mean for zero-length strings).
func (l LineString) Centroid() Point {
	if len(l.pts) == 0 {
		return Point{X: math.NaN(), Y: math.NaN()}
	}
	var sx, sy, total float64
	for i := 1; i < len(l.pts); i++ {
		a, b := l.pts[i-1], l.pts[i]
		w := Euclidean(a, b)
		sx += w * (a.X + b.X) / 2
		sy += w * (a.Y + b.Y) / 2
		total += w
	}
	if total == 0 {
		var mx, my float64
		for _, p := range l.pts {
			mx += p.X
			my += p.Y
		}
		n := float64(len(l.pts))
		return Point{X: mx / n, Y: my / n}
	}
	return Point{X: sx / total, Y: sy / total}
}

// Polygon is a simple polygon with an exterior ring and zero or more
// interior rings (holes). Rings are stored closed (first == last).
type Polygon struct {
	shell Ring
	holes []Ring
	// env is the shell's envelope and rect says the polygon is exactly
	// that envelope (see isRectangle); both are set by newPolygon.
	env  Envelope
	rect bool
}

// Ring is a closed linear ring: at least four points where the first
// equals the last.
type Ring struct {
	pts []Point
}

// newRing builds a ring from pts, closing it if needed. It returns an
// error when fewer than three distinct positions are supplied.
func newRing(pts []Point) (Ring, error) {
	if len(pts) < 3 {
		return Ring{}, fmt.Errorf("geom: ring needs >= 3 points, got %d", len(pts))
	}
	cp := make([]Point, 0, len(pts)+1)
	cp = append(cp, pts...)
	if !cp[0].Equal(cp[len(cp)-1]) {
		cp = append(cp, cp[0])
	}
	if len(cp) < 4 {
		return Ring{}, fmt.Errorf("geom: closed ring needs >= 4 points, got %d", len(cp))
	}
	return Ring{pts: cp}, nil
}

// NumPoints returns the number of vertices including the closing one.
func (r Ring) NumPoints() int { return len(r.pts) }

// PointAt returns the i-th vertex.
func (r Ring) PointAt(i int) Point { return r.pts[i] }

// newPolygon wraps the rings (not copied) with the shell's envelope
// and the rectangle flag.
func newPolygon(shell Ring, holes []Ring) Polygon {
	env := envelopeOf(shell.pts)
	return Polygon{
		shell: shell, holes: holes, env: env,
		rect: len(holes) == 0 && isRectangle(shell.pts, env),
	}
}

// isRectangle reports whether the closed ring pts is an axis-aligned
// rectangle of positive width and height: five vertices whose edges
// alternate between horizontal and vertical, in either orientation.
// For such a ring polygonContainsPoint classifies a point exactly as
// the closed/open envelope tests do (see classifyPoint), given that
// the edge lengths are finite: an edge of infinite length turns the
// orientation test's 0 × ∞ into NaN and the boundary goes undetected,
// so those rings stay on the general path.
func isRectangle(pts []Point, env Envelope) bool {
	if len(pts) != 5 {
		return false
	}
	if math.IsInf(env.MaxX-env.MinX, 0) || math.IsInf(env.MaxY-env.MinY, 0) {
		return false
	}
	horizontal := pts[0].Y == pts[1].Y
	for i := 1; i < 5; i++ {
		a, b := pts[i-1], pts[i]
		if horizontal {
			if a.Y != b.Y || a.X == b.X {
				return false
			}
		} else if a.X != b.X || a.Y == b.Y {
			return false
		}
		horizontal = !horizontal
	}
	return true
}

// NewPolygonFromPoints builds a hole-free polygon from shell points.
func NewPolygonFromPoints(pts []Point) (Polygon, error) {
	r, err := newRing(pts)
	if err != nil {
		return Polygon{}, err
	}
	return newPolygon(r, nil), nil
}

// mustPolygon is NewPolygonFromPoints but panics on error; for
// literals in tests and examples.
func mustPolygon(pts ...Point) Polygon {
	p, err := NewPolygonFromPoints(pts)
	if err != nil {
		panic(err)
	}
	return p
}

// kind implements Geometry.
func (p Polygon) kind() kind { return kindPolygon }

// Shell returns the exterior ring.
func (p Polygon) Shell() Ring { return p.shell }

// NumHoles returns the number of interior rings.
func (p Polygon) NumHoles() int { return len(p.holes) }

// HoleAt returns the i-th interior ring.
func (p Polygon) HoleAt(i int) Ring { return p.holes[i] }

// IsEmpty implements Geometry.
func (p Polygon) IsEmpty() bool { return len(p.shell.pts) == 0 }

// Envelope implements Geometry (the holes cannot extend the shell);
// computed once at construction.
func (p Polygon) Envelope() Envelope {
	if len(p.shell.pts) == 0 {
		return EmptyEnvelope()
	}
	return p.env
}

// Centroid implements Geometry: the area-weighted centroid accounting
// for holes; degenerates to the vertex mean for zero-area polygons.
func (p Polygon) Centroid() Point {
	if p.IsEmpty() {
		return Point{X: math.NaN(), Y: math.NaN()}
	}
	cx, cy, s := ringCentroidTerms(p.shell)
	for _, h := range p.holes {
		hx, hy, hs := ringCentroidTerms(h)
		cx -= hx
		cy -= hy
		s -= hs
	}
	if s == 0 {
		var mx, my float64
		n := 0
		for _, pt := range p.shell.pts {
			mx += pt.X
			my += pt.Y
			n++
		}
		return Point{X: mx / float64(n), Y: my / float64(n)}
	}
	// Signed area A = s/2; Cx = Σ(x_i+x_{i+1})·cross / (6A) = cx/(3s).
	return Point{X: cx / (3 * s), Y: cy / (3 * s)}
}

// ringCentroidTerms returns the raw centroid accumulator terms
// Σ(x_i+x_{i+1})·cross and Σcross, normalised to counter-clockwise
// orientation so holes can simply be subtracted from the shell.
func ringCentroidTerms(r Ring) (sx, sy, s float64) {
	for i := 1; i < len(r.pts); i++ {
		a, b := r.pts[i-1], r.pts[i]
		cross := a.X*b.Y - b.X*a.Y
		sx += (a.X + b.X) * cross
		sy += (a.Y + b.Y) * cross
		s += cross
	}
	if s < 0 {
		sx, sy, s = -sx, -sy, -s
	}
	return sx, sy, s
}

var (
	_ Geometry = Point{}
	_ Geometry = MultiPoint{}
	_ Geometry = LineString{}
	_ Geometry = Polygon{}
)
