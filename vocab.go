package stark

// This file re-exports the user-facing vocabulary of the framework —
// the data types, predicates and constructors queries are written
// with — so that callers of the public DSL never import an
// stark/internal/... package. All names are aliases (not copies): a
// stark.STObject IS a stobject.STObject, so values flow freely
// between the public surface and the engine.

import (
	"stark/internal/cluster"
	"stark/internal/core"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stobject"
)

// ---- Core vocabulary types ----

type (
	// STObject is the spatio-temporal data type: a geometry plus an
	// optional validity interval, with the paper's combined predicate
	// semantics.
	STObject = stobject.STObject
	// Predicate is a binary spatio-temporal predicate.
	Predicate = stobject.Predicate

	// Geometry is the geometry kernel interface (points, lines,
	// polygons, multipoints).
	Geometry = geom.Geometry
	// Point is a 2D point geometry.
	Point = geom.Point
	// LineString is a polyline geometry.
	LineString = geom.LineString
	// Envelope is an axis-aligned bounding rectangle.
	Envelope = geom.Envelope
	// DistanceFunc is a pluggable point-distance metric; nil selects
	// the exact planar geometry distance.
	DistanceFunc = geom.DistanceFunc

	// Instant is a point in time.
	Instant = stobject.Instant
	// Interval is a closed validity interval [Start, End].
	Interval = stobject.Interval

	// Context coordinates job execution — the SparkContext stand-in
	// owning the executor pool and metrics.
	Context = engine.Context

	// Tuple is the record type of all datasets: the spatio-temporal
	// key plus the user payload.
	Tuple[V any] = core.Tuple[V]

	// SpatialPartitioner is the partitioner contract: assignment by
	// centroid plus per-partition bounds and data-adjusted extents.
	SpatialPartitioner = partition.SpatialPartitioner
)

// ClusterNoise is the label DBSCAN assigns to noise points.
const ClusterNoise = cluster.Noise

// ---- Canonical predicates ----

// The named predicates, usable wherever a Predicate is expected
// (Where, joins). The Dataset methods of the same names are the
// fluent shorthand for filtering with them.
var (
	Intersects  = stobject.Intersects
	Contains    = stobject.Contains
	ContainedBy = stobject.ContainedBy
	CoveredBy   = stobject.CoveredBy
)

// WithinDistancePredicate returns a predicate testing whether two
// objects lie within maxDist under df (nil = planar distance).
func WithinDistancePredicate(maxDist float64, df DistanceFunc) Predicate {
	return stobject.WithinDistancePredicate(maxDist, df)
}

// ---- Constructors ----

// NewContext returns an execution context with the given parallelism;
// <= 0 selects GOMAXPROCS.
func NewContext(parallelism int) *Context { return engine.NewContext(parallelism) }

// NewSTObject builds a purely spatial STObject.
func NewSTObject(g Geometry) STObject { return stobject.New(g) }

// NewSTObjectWithInterval builds an STObject valid during iv.
func NewSTObjectWithInterval(g Geometry, iv Interval) STObject {
	return stobject.NewWithInterval(g, iv)
}

// NewSTObjectWithTime builds an STObject valid at the instant t.
func NewSTObjectWithTime(g Geometry, t Instant) STObject { return stobject.NewWithTime(g, t) }

// FromWKT parses a WKT geometry into a purely spatial STObject.
func FromWKT(wkt string) (STObject, error) { return stobject.FromWKT(wkt) }

// FromWKTWithInterval parses a WKT geometry valid during
// [begin, end).
func FromWKTWithInterval(wkt string, begin, end Instant) (STObject, error) {
	return stobject.FromWKTWithInterval(wkt, begin, end)
}

// FromWKTWithTime parses a WKT geometry valid at the instant t.
func FromWKTWithTime(wkt string, t Instant) (STObject, error) {
	return stobject.FromWKTWithTime(wkt, t)
}

// ParseWKT parses a WKT string into a Geometry.
func ParseWKT(wkt string) (Geometry, error) { return geom.ParseWKT(wkt) }

// NewPoint builds a Point.
func NewPoint(x, y float64) Point { return geom.NewPoint(x, y) }

// NewEnvelope builds an Envelope from two corners in any order.
func NewEnvelope(x1, y1, x2, y2 float64) Envelope { return geom.NewEnvelope(x1, y1, x2, y2) }

// NewInterval builds a validity interval, rejecting end < start.
func NewInterval(start, end Instant) (Interval, error) { return stobject.NewInterval(start, end) }

// MustInterval is NewInterval panicking on invalid bounds — for
// literals.
func MustInterval(start, end Instant) Interval { return stobject.MustInterval(start, end) }

// NewTuple pairs a spatio-temporal key with a payload.
func NewTuple[V any](key STObject, value V) Tuple[V] { return engine.NewPair(key, value) }

// Simplify reduces a polyline with Douglas–Peucker at the given
// tolerance.
func Simplify(l LineString, tolerance float64) LineString { return geom.Simplify(l, tolerance) }
