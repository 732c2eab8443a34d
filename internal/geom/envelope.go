package geom

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// Envelope is an axis-aligned minimum bounding rectangle. The empty
// envelope is represented with inverted bounds (Min > Max) so that
// expanding it by any point yields that point's degenerate envelope.
type Envelope struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyEnvelope returns the canonical empty envelope.
func EmptyEnvelope() Envelope {
	return Envelope{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// NewEnvelope returns the envelope spanning the two corner points in
// either order.
func NewEnvelope(x1, y1, x2, y2 float64) Envelope {
	return Envelope{
		MinX: math.Min(x1, x2), MinY: math.Min(y1, y2),
		MaxX: math.Max(x1, x2), MaxY: math.Max(y1, y2),
	}
}

// IsEmpty reports whether the envelope contains no points: its bounds
// are inverted, or one is NaN (the envelope of a point with a NaN
// ordinate, which Point.IsEmpty calls empty too).
func (e Envelope) IsEmpty() bool { return !(e.MinX <= e.MaxX && e.MinY <= e.MaxY) }

// MarshalJSON encodes the empty envelope as null: its ±Inf sentinel
// bounds are not representable in JSON, and without this every
// structure embedding an envelope (planner summaries with empty
// partitions, most visibly) fails to serialise.
func (e Envelope) MarshalJSON() ([]byte, error) {
	if e.IsEmpty() {
		return []byte("null"), nil
	}
	type env Envelope // plain struct encoding, no marshaler recursion
	return json.Marshal(env(e))
}

// UnmarshalJSON decodes null back to the canonical empty envelope.
func (e *Envelope) UnmarshalJSON(data []byte) error {
	if bytes.Equal(bytes.TrimSpace(data), []byte("null")) {
		*e = EmptyEnvelope()
		return nil
	}
	type env Envelope
	var v env
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*e = Envelope(v)
	return nil
}

// Width returns the horizontal extent (0 when empty).
func (e Envelope) Width() float64 {
	if e.IsEmpty() {
		return 0
	}
	return e.MaxX - e.MinX
}

// Height returns the vertical extent (0 when empty).
func (e Envelope) Height() float64 {
	if e.IsEmpty() {
		return 0
	}
	return e.MaxY - e.MinY
}

// Center returns the midpoint of the envelope.
func (e Envelope) Center() Point {
	return Point{X: (e.MinX + e.MaxX) / 2, Y: (e.MinY + e.MaxY) / 2}
}

// ExpandToPoint returns the envelope grown to include (x, y); a point
// with a NaN ordinate is empty and leaves it as it is.
func (e Envelope) ExpandToPoint(x, y float64) Envelope {
	if x != x || y != y {
		return e
	}
	return Envelope{
		MinX: math.Min(e.MinX, x), MinY: math.Min(e.MinY, y),
		MaxX: math.Max(e.MaxX, x), MaxY: math.Max(e.MaxY, y),
	}
}

// ExpandToInclude returns the union envelope of e and o. The built-in
// min and max treat −0 as math.Min and math.Max do, and compile inline
// where math.Min is a call: the row loops of the build steps run this.
func (e Envelope) ExpandToInclude(o Envelope) Envelope {
	if o.IsEmpty() {
		return e
	}
	if e.IsEmpty() {
		return o
	}
	return Envelope{
		MinX: min(e.MinX, o.MinX), MinY: min(e.MinY, o.MinY),
		MaxX: max(e.MaxX, o.MaxX), MaxY: max(e.MaxY, o.MaxY),
	}
}

// ExpandBy returns the envelope grown by d on every side. A negative d
// shrinks the envelope and may make it empty.
func (e Envelope) ExpandBy(d float64) Envelope {
	if e.IsEmpty() {
		return e
	}
	return Envelope{MinX: e.MinX - d, MinY: e.MinY - d, MaxX: e.MaxX + d, MaxY: e.MaxY + d}
}

// Intersects reports whether the two envelopes share at least one
// point (boundary contact counts).
func (e Envelope) Intersects(o Envelope) bool {
	if e.IsEmpty() || o.IsEmpty() {
		return false
	}
	return e.MinX <= o.MaxX && o.MinX <= e.MaxX && e.MinY <= o.MaxY && o.MinY <= e.MaxY
}

// Intersection returns the overlapping region; empty when disjoint.
func (e Envelope) Intersection(o Envelope) Envelope {
	if !e.Intersects(o) {
		return EmptyEnvelope()
	}
	return Envelope{
		MinX: math.Max(e.MinX, o.MinX), MinY: math.Max(e.MinY, o.MinY),
		MaxX: math.Min(e.MaxX, o.MaxX), MaxY: math.Min(e.MaxY, o.MaxY),
	}
}

// ContainsPoint reports whether (x, y) lies inside or on the boundary.
func (e Envelope) ContainsPoint(x, y float64) bool {
	return !e.IsEmpty() && x >= e.MinX && x <= e.MaxX && y >= e.MinY && y <= e.MaxY
}

// ContainsEnvelope reports whether o lies entirely within e.
func (e Envelope) ContainsEnvelope(o Envelope) bool {
	if e.IsEmpty() || o.IsEmpty() {
		return false
	}
	return o.MinX >= e.MinX && o.MaxX <= e.MaxX && o.MinY >= e.MinY && o.MaxY <= e.MaxY
}

// Distance returns the minimum distance between the two envelopes
// (0 when they intersect). Either side being empty yields +Inf — the
// same convention as DistanceToPoint, and what the JSON-null
// marshalling of the empty envelope implies: an absent extent is
// infinitely far from everything, rather than a ±Inf-arithmetic
// accident. The columnar WithinDistance kernel relies on this: empty
// rows must fail every distance test.
func (e Envelope) Distance(o Envelope) float64 {
	if e.IsEmpty() || o.IsEmpty() {
		return math.Inf(1)
	}
	if e.Intersects(o) {
		return 0
	}
	var dx, dy float64
	switch {
	case o.MinX > e.MaxX:
		dx = o.MinX - e.MaxX
	case e.MinX > o.MaxX:
		dx = e.MinX - o.MaxX
	}
	switch {
	case o.MinY > e.MaxY:
		dy = o.MinY - e.MaxY
	case e.MinY > o.MaxY:
		dy = e.MinY - o.MaxY
	}
	return math.Hypot(dx, dy)
}

// DistanceToPoint returns the minimum distance from the envelope to
// (x, y); 0 when the point is inside.
func (e Envelope) DistanceToPoint(x, y float64) float64 {
	if e.IsEmpty() {
		return math.Inf(1)
	}
	dx := math.Max(0, math.Max(e.MinX-x, x-e.MaxX))
	dy := math.Max(0, math.Max(e.MinY-y, y-e.MaxY))
	return math.Hypot(dx, dy)
}

// ToPolygon converts the envelope to an equivalent polygon. It panics
// on the empty envelope.
func (e Envelope) ToPolygon() Polygon {
	if e.IsEmpty() {
		panic("geom: cannot convert empty envelope to polygon")
	}
	return mustPolygon(
		Point{e.MinX, e.MinY},
		Point{e.MaxX, e.MinY},
		Point{e.MaxX, e.MaxY},
		Point{e.MinX, e.MaxY},
	)
}

// String renders the envelope for diagnostics.
func (e Envelope) String() string {
	if e.IsEmpty() {
		return "Env[empty]"
	}
	return fmt.Sprintf("Env[%g..%g, %g..%g]", e.MinX, e.MaxX, e.MinY, e.MaxY)
}
