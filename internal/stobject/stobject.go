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
type STObject struct {
	geo     geom.Geometry
	time    temporal.Interval
	hasTime bool
}

// New returns a spatial-only STObject.
func New(g geom.Geometry) STObject {
	return STObject{geo: g}
}

// NewWithInterval returns an STObject valid during iv.
func NewWithInterval(g geom.Geometry, iv temporal.Interval) STObject {
	return STObject{geo: g, time: iv, hasTime: true}
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

// Relocated returns o with a point geometry copied into a fresh
// allocation; every other geometry is returned as it is. The geometry
// sits boxed behind an interface, and for a point that box is the first
// thing every predicate loads: relocating the keys of consecutive rows
// one after the other puts their boxes next to each other in memory,
// whatever order the points were created in. The dynamic type stays
// geom.Point.
func (o STObject) Relocated() STObject {
	if p, ok := o.geo.(geom.Point); ok {
		o.geo = p
	}
	return o
}

// Geo returns the spatial component.
func (o STObject) Geo() geom.Geometry { return o.geo }

// HasTime reports whether the object carries a temporal component.
func (o STObject) HasTime() bool { return o.hasTime }

// Time returns the temporal component and whether it is defined.
func (o STObject) Time() (temporal.Interval, bool) { return o.time, o.hasTime }

// IsEmpty reports whether the object has no spatial component.
func (o STObject) IsEmpty() bool { return o.geo == nil || o.geo.IsEmpty() }

// Envelope returns the spatial minimum bounding rectangle.
func (o STObject) Envelope() geom.Envelope {
	if o.geo == nil {
		return geom.EmptyEnvelope()
	}
	return o.geo.Envelope()
}

// EnvelopeIntersects is o.Envelope().Intersects(env) without building
// the envelope of a point: the test a scan rejects a row on before the
// exact predicate sees it. NaN points and nil geometries meet nothing.
func (o *STObject) EnvelopeIntersects(env geom.Envelope) bool {
	if p, ok := o.geo.(geom.Point); ok {
		return p.X >= env.MinX && p.X <= env.MaxX && p.Y >= env.MinY && p.Y <= env.MaxY
	}
	return o.Envelope().Intersects(env)
}

// Centroid returns the centroid of the spatial component.
func (o STObject) Centroid() geom.Point {
	if o.geo == nil {
		return geom.Point{}
	}
	return o.geo.Centroid()
}

// String renders the object for diagnostics.
func (o STObject) String() string {
	if o.geo == nil {
		return "STObject(empty)"
	}
	if o.hasTime {
		return fmt.Sprintf("STObject(%s, %s)", o.geo.WKT(), o.time)
	}
	return fmt.Sprintf("STObject(%s)", o.geo.WKT())
}

// combined applies the paper's combined semantics given a spatial and
// a temporal predicate.
func combined(o, p STObject,
	sp func(a, b geom.Geometry) bool,
	tp temporal.Predicate) bool {
	if o.geo == nil || p.geo == nil {
		return false
	}
	if !sp(o.geo, p.geo) {
		return false
	}
	if !o.hasTime && !p.hasTime {
		return true // (2): both undefined
	}
	if o.hasTime && p.hasTime {
		return tp(o.time, p.time) // (3): both defined
	}
	return false // mixed: one defined, one undefined
}

// Intersects reports whether o and p intersect in their spatial
// component and, when both are timestamped, in their temporal
// component as well.
func (o STObject) Intersects(p STObject) bool {
	return combined(o, p, geom.Intersects, temporal.Intersects)
}

// Contains reports whether o completely contains p spatially and,
// when both are timestamped, temporally.
func (o STObject) Contains(p STObject) bool {
	return combined(o, p, geom.Contains, temporal.Contains)
}

// ContainedBy is the reverse of Contains, as in the paper.
func (o STObject) ContainedBy(p STObject) bool { return p.Contains(o) }

// Covers is the boundary-tolerant variant of Contains.
func (o STObject) Covers(p STObject) bool {
	return combined(o, p, geom.Covers, temporal.Contains)
}

// CoveredBy is the reverse of Covers.
func (o STObject) CoveredBy(p STObject) bool { return p.Covers(o) }

// Touches reports whether o and p meet only at their spatial
// boundaries, combined with temporal intersection when both are
// timestamped.
func (o STObject) Touches(p STObject) bool {
	return combined(o, p, geom.Touches, temporal.Intersects)
}

// Overlaps reports whether the spatial interiors of o and p partially
// overlap (same dimension, neither contains the other), combined with
// temporal intersection when both are timestamped.
func (o STObject) Overlaps(p STObject) bool {
	return combined(o, p, geom.Overlaps, temporal.Intersects)
}

// WithinDistance reports whether the spatial distance between o and p
// under df (nil for planar Euclidean geometry distance) is at most
// maxDist, combined with temporal intersection when both objects are
// timestamped.
func (o STObject) WithinDistance(p STObject, maxDist float64, df geom.DistanceFunc) bool {
	return combined(o, p,
		func(a, b geom.Geometry) bool { return geom.WithinDistance(a, b, maxDist, df) },
		temporal.Intersects)
}

// Distance returns the spatial distance between the two objects using
// df, or the exact geometry distance when df is nil.
func (o STObject) Distance(p STObject, df geom.DistanceFunc) float64 {
	if df != nil {
		return df(o.Centroid(), p.Centroid())
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
