// Package temporal implements the temporal component of STARK's
// spatio-temporal data model: instants and intervals on an integer
// timeline (Unix epoch seconds or milliseconds; the package does not
// impose a unit), and the temporal predicates used by the combined
// spatio-temporal predicate semantics.
//
// Intervals are closed on both ends, matching STARK's query semantics
// where a query window [begin, end] includes both endpoints. An
// instant t is the degenerate interval [t, t].
package temporal

import "fmt"

// Instant is a point on the timeline.
type Instant int64

// Interval is a closed interval [Start, End] on the timeline.
// Start must be <= End.
type Interval struct {
	Start, End Instant
}

// NewInterval returns [start, end]; it returns an error when
// start > end.
func NewInterval(start, end Instant) (Interval, error) {
	if start > end {
		return Interval{}, fmt.Errorf("temporal: interval start %d after end %d", start, end)
	}
	return Interval{Start: start, End: end}, nil
}

// MustInterval is NewInterval but panics on error; for literals.
func MustInterval(start, end Instant) Interval {
	iv, err := NewInterval(start, end)
	if err != nil {
		panic(err)
	}
	return iv
}

// At returns the degenerate interval [t, t] representing an instant.
func At(t Instant) Interval { return Interval{Start: t, End: t} }

// IsInstant reports whether the interval is degenerate.
func (iv Interval) IsInstant() bool { return iv.Start == iv.End }

// Intersects reports whether the two closed intervals share at least
// one instant.
func (iv Interval) Intersects(o Interval) bool {
	return iv.Start <= o.End && o.Start <= iv.End
}

// Contains reports whether o lies entirely within iv (endpoint
// contact allowed, matching closed-interval semantics).
func (iv Interval) Contains(o Interval) bool {
	return iv.Start <= o.Start && o.End <= iv.End
}

// String renders the interval for diagnostics.
func (iv Interval) String() string {
	if iv.IsInstant() {
		return fmt.Sprintf("@%d", int64(iv.Start))
	}
	return fmt.Sprintf("[%d, %d]", int64(iv.Start), int64(iv.End))
}

// Predicate is a binary predicate over temporal intervals, mirroring
// geometric predicates so the combined spatio-temporal semantics can
// pair them.
type Predicate func(a, b Interval) bool

// Intersects is the Predicate form of Interval.Intersects.
func Intersects(a, b Interval) bool { return a.Intersects(b) }

// Contains is the Predicate form of Interval.Contains.
func Contains(a, b Interval) bool { return a.Contains(b) }
