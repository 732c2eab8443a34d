// Package stobject defines STObject, STARK's spatio-temporal data
// type: a spatial geometry plus an optional temporal interval.
//
// The combined predicate semantics follow the paper's formal
// definition. For two STObjects o and p and a predicate φ:
//
//	φ(o,p) ⇔ φs(s(o), s(p)) ∧ (
//	    (t(o) = ⊥ ∧ t(p) = ⊥) ∨
//	    (t(o) ≠ ⊥ ∧ t(p) ≠ ⊥ ∧ φt(t(o), t(p))) )
//
// That is, the spatial predicate must hold, and either both objects
// carry no time (spatial-only data), or both carry time and the
// temporal predicate holds as well. Mixed pairs — one object with a
// temporal component, the other without — never satisfy a predicate.
package stobject

import (
	"fmt"

	"stark/internal/geom"
	"stark/internal/temporal"
)

// STObject is a spatio-temporal object: a geometry plus an optional
// validity interval. The zero value is an empty object.
//
// A point keeps its coordinates in the object (x, y, flagged isPoint);
// only other geometries sit behind the geom.Geometry interface. A scan
// thus reads a point key from its row, with no pointer to chase and no
// box to allocate, and the predicates refine it through geom's
// point-first entry points. Geo boxes a point for callers off the
// per-row paths.
type STObject struct {
	x, y  float64 // a point's coordinates, when flags has isPoint
	flags uint8
	time  temporal.Interval // defined when flags has timed
	geo   geom.Geometry     // any geometry but a point; nil when empty
}

const (
	isPoint uint8 = 1 << iota
	timed
)

// New returns a spatial-only STObject.
func New(g geom.Geometry) STObject {
	if p, ok := g.(geom.Point); ok {
		return STObject{x: p.X, y: p.Y, flags: isPoint}
	}
	return STObject{geo: g}
}

// NewWithInterval returns an STObject valid during iv.
func NewWithInterval(g geom.Geometry, iv temporal.Interval) STObject {
	o := New(g)
	o.time, o.flags = iv, o.flags|timed
	return o
}

// NewWithTime returns an STObject valid at the single instant t,
// mirroring the paper's STObject(wkt, time) constructor.
func NewWithTime(g geom.Geometry, t temporal.Instant) STObject {
	return NewWithInterval(g, temporal.At(t))
}

// FromWKT parses a WKT string into a spatial-only STObject.
func FromWKT(wkt string) (STObject, error) {
	g, err := geom.ParseWKT(wkt)
	if err != nil {
		return STObject{}, err
	}
	return New(g), nil
}

// FromWKTWithTime parses a WKT string and attaches the instant t.
func FromWKTWithTime(wkt string, t temporal.Instant) (STObject, error) {
	g, err := geom.ParseWKT(wkt)
	if err != nil {
		return STObject{}, err
	}
	return NewWithTime(g, t), nil
}

// FromWKTWithInterval parses a WKT string and attaches [begin, end].
func FromWKTWithInterval(wkt string, begin, end temporal.Instant) (STObject, error) {
	g, err := geom.ParseWKT(wkt)
	if err != nil {
		return STObject{}, err
	}
	iv, err := temporal.NewInterval(begin, end)
	if err != nil {
		return STObject{}, err
	}
	return NewWithInterval(g, iv), nil
}

// MustFromWKT is FromWKT but panics on error; for literals in tests
// and examples.
func MustFromWKT(wkt string) STObject {
	o, err := FromWKT(wkt)
	if err != nil {
		panic(err)
	}
	return o
}

// Point returns the spatial component of a point key.
func (o STObject) Point() (geom.Point, bool) {
	return geom.Point{X: o.x, Y: o.y}, o.flags&isPoint != 0
}

// Geo returns the spatial component; a point key's is boxed anew on
// every call.
func (o STObject) Geo() geom.Geometry {
	if p, ok := o.Point(); ok {
		return p
	}
	return o.geo
}

// HasTime reports whether the object carries a temporal component.
func (o STObject) HasTime() bool { return o.flags&timed != 0 }

// Time returns the temporal component and whether it is defined.
func (o STObject) Time() (temporal.Interval, bool) { return o.time, o.HasTime() }

// IsEmpty reports whether the object has no spatial component.
func (o STObject) IsEmpty() bool {
	if p, ok := o.Point(); ok {
		return p.IsEmpty()
	}
	return o.geo == nil || o.geo.IsEmpty()
}

// Envelope returns the spatial minimum bounding rectangle.
func (o STObject) Envelope() geom.Envelope {
	if o.flags&isPoint != 0 {
		return geom.Envelope{MinX: o.x, MinY: o.y, MaxX: o.x, MaxY: o.y}
	}
	if o.geo == nil {
		return geom.EmptyEnvelope()
	}
	return o.geo.Envelope()
}

// EnvelopeIntersects is o.Envelope().Intersects(env) without building
// the envelope of a point: the test a scan rejects a row on before the
// exact predicate sees it. NaN points and nil geometries meet nothing.
func (o *STObject) EnvelopeIntersects(env geom.Envelope) bool {
	if o.flags&isPoint != 0 {
		return o.x >= env.MinX && o.x <= env.MaxX && o.y >= env.MinY && o.y <= env.MaxY
	}
	return o.Envelope().Intersects(env)
}

// Centroid returns the centroid of the spatial component.
func (o STObject) Centroid() geom.Point {
	if p, ok := o.Point(); ok || o.geo == nil {
		return p // the origin for the empty object
	}
	return o.geo.Centroid()
}

// String renders the object for diagnostics.
func (o STObject) String() string {
	g := o.Geo()
	if g == nil {
		return "STObject(empty)"
	}
	if o.HasTime() {
		return fmt.Sprintf("STObject(%s, %s)", g.WKT(), o.time)
	}
	return fmt.Sprintf("STObject(%s)", g.WKT())
}

// spatial is a spatial predicate in the operand forms combined
// dispatches on: gg over two geometries, gp and pg with a point operand
// (p) unboxed where the name puts it (a nil pg is gp with the operands
// swapped), and for two points whether equal ones relate; unequal points
// never do. Each point form is the generic predicate on the boxed point.
type spatial struct {
	gg    func(a, b geom.Geometry) bool
	gp    func(a geom.Geometry, b geom.Point) bool
	pg    func(a geom.Point, b geom.Geometry) bool
	equal bool
}

var (
	intersects = spatial{geom.Intersects, geom.IntersectsPoint, nil, true}
	contains   = spatial{geom.Contains, geom.ContainsPoint, geom.PointCovers, true}
	covers     = spatial{geom.Covers, geom.IntersectsPoint, geom.PointCovers, true}
	touches    = spatial{geom.Touches, geom.TouchesPoint, nil, false}
	// A point overlaps nothing: overlapping geometries share a dimension
	// and neither covers the other, which no two puntal ones manage.
	overlaps = spatial{geom.Overlaps, func(geom.Geometry, geom.Point) bool { return false }, nil, false}
)

// combined applies the paper's combined semantics given a spatial and
// a temporal predicate.
func combined(o, p *STObject, sp *spatial, tp temporal.Predicate) bool {
	if !timeAgrees(o, p, tp) {
		return false
	}
	a, aPt := o.Point()
	b, bPt := p.Point()
	switch {
	case aPt && bPt:
		return sp.equal && a.Equal(b)
	case aPt && sp.pg != nil:
		return sp.pg(a, p.geo)
	case aPt:
		return sp.gp(p.geo, a)
	case bPt:
		return sp.gp(o.geo, b)
	}
	return sp.gg(o.geo, p.geo)
}

// timeAgrees is the temporal half of the combined semantics: both
// objects undefined (2), or both defined and tp holding (3).
func timeAgrees(o, p *STObject, tp temporal.Predicate) bool {
	return o.flags&timed == p.flags&timed && (o.flags&timed == 0 || tp(o.time, p.time))
}

// Intersects reports whether o and p intersect in their spatial
// component and, when both are timestamped, in their temporal
// component as well.
func (o STObject) Intersects(p STObject) bool {
	return combined(&o, &p, &intersects, temporal.Intersects)
}

// Contains reports whether o completely contains p spatially and,
// when both are timestamped, temporally.
func (o STObject) Contains(p STObject) bool {
	return combined(&o, &p, &contains, temporal.Contains)
}

// ContainedBy is the reverse of Contains, as in the paper.
func (o STObject) ContainedBy(p STObject) bool { return p.Contains(o) }

// Covers is the boundary-tolerant variant of Contains.
func (o STObject) Covers(p STObject) bool {
	return combined(&o, &p, &covers, temporal.Contains)
}

// CoveredBy is the reverse of Covers.
func (o STObject) CoveredBy(p STObject) bool { return p.Covers(o) }

// Touches reports whether o and p meet only at their spatial
// boundaries, combined with temporal intersection when both are
// timestamped.
func (o STObject) Touches(p STObject) bool {
	return combined(&o, &p, &touches, temporal.Intersects)
}

// Overlaps reports whether the spatial interiors of o and p partially
// overlap (same dimension, neither contains the other), combined with
// temporal intersection when both are timestamped.
func (o STObject) Overlaps(p STObject) bool {
	return combined(&o, &p, &overlaps, temporal.Intersects)
}

// WithinDistance reports whether the spatial distance between o and p
// under df (nil for planar Euclidean geometry distance) is at most
// maxDist, combined with temporal intersection when both objects are
// timestamped. A df measures between centroids, a point's being the
// point itself.
func (o STObject) WithinDistance(p STObject, maxDist float64, df geom.DistanceFunc) bool {
	return timeAgrees(&o, &p, temporal.Intersects) && !o.IsEmpty() && !p.IsEmpty() && o.Distance(p, df) <= maxDist
}

// Distance returns the spatial distance between the two objects using
// df, or the exact geometry distance when df is nil.
func (o STObject) Distance(p STObject, df geom.DistanceFunc) float64 {
	if df != nil {
		return df(o.Centroid(), p.Centroid())
	}
	a, aPt := o.Point()
	b, bPt := p.Point()
	switch {
	case aPt && bPt && a.Equal(b):
		return 0
	case aPt && bPt:
		return geom.Euclidean(a, b)
	case aPt:
		return geom.PointDistance(a, p.geo)
	case bPt:
		return geom.PointDistance(b, o.geo)
	}
	return geom.Distance(o.geo, p.geo)
}

// Predicate is a binary spatio-temporal predicate, the unit STARK's
// filter and join operators are parameterised with.
type Predicate func(o, p STObject) bool

// The canonical predicates, usable as operator parameters.
var (
	Intersects  Predicate = func(o, p STObject) bool { return o.Intersects(p) }
	Contains    Predicate = func(o, p STObject) bool { return o.Contains(p) }
	ContainedBy Predicate = func(o, p STObject) bool { return o.ContainedBy(p) }
	Covers      Predicate = func(o, p STObject) bool { return o.Covers(p) }
	CoveredBy   Predicate = func(o, p STObject) bool { return o.CoveredBy(p) }
	Touches     Predicate = func(o, p STObject) bool { return o.Touches(p) }
	Overlaps    Predicate = func(o, p STObject) bool { return o.Overlaps(p) }
)

// WithinDistancePredicate returns a Predicate testing WithinDistance
// with fixed maxDist and df.
func WithinDistancePredicate(maxDist float64, df geom.DistanceFunc) Predicate {
	return func(o, p STObject) bool { return o.WithinDistance(p, maxDist, df) }
}
