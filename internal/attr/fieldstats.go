package attr

import (
	"fmt"
	"math"
	"math/rand"
)

// defaultSelectivity is the planner's guess when a field has no
// statistics (or a predicate shape the histogram cannot bound).
const defaultSelectivity = 0.3

// distinctCap bounds the exact per-field distinct set tracked during
// the statistics sweep; past it NDV becomes a scaled estimate.
const distinctCap = 4096

// fieldSampleCap bounds the numeric reservoir the field histogram is
// estimated from, mirroring the spatial histogram's sampling.
const fieldSampleCap = 1024

// FieldStats summarises one payload field for the cost-based
// planner: row count, min/max, (estimated) number of distinct
// values, and an equi-width numeric histogram.
type FieldStats struct {
	Field string `json:"field"`
	Kind  Kind   `json:"kind"`
	Count int64  `json:"count"`
	Min   Value  `json:"-"`
	Max   Value  `json:"-"`
	// NDV estimates the number of distinct values; exact while the
	// sweep's bounded distinct set has not overflowed.
	NDV int64 `json:"ndv"`
	// Hist is an equi-width histogram over [HistMin, HistMax] holding
	// estimated row counts; nil for non-numeric kinds.
	Hist      []float64 `json:"-"`
	HistMin   float64   `json:"-"`
	HistMax   float64   `json:"-"`
	HistTotal float64   `json:"-"`
}

// buildHist fills the histogram from numeric samples, each standing
// for weight rows. The range spans the numbers; a NaN sample, below
// every number in Compare's order, counts into the first bucket.
func (fs *FieldStats) buildHist(histN int, nums []float64, weight float64) {
	if len(nums) == 0 || histN <= 0 {
		return
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range nums {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	fs.Hist = make([]float64, histN)
	fs.HistMin, fs.HistMax = lo, hi
	span := hi - lo
	for _, x := range nums {
		c := 0
		if span > 0 && !math.IsNaN(x) {
			c = int((x - lo) / span * float64(histN))
			if c >= histN {
				c = histN - 1
			}
			if c < 0 {
				c = 0
			}
		}
		fs.Hist[c] += weight
	}
	fs.HistTotal = weight * float64(len(nums))
}

// histFraction estimates the fraction of rows with numeric value in
// [lo, hi] (inclusive; use ±Inf for open ends).
func (fs *FieldStats) histFraction(lo, hi float64) float64 {
	if fs.Hist == nil || fs.HistTotal == 0 {
		return defaultSelectivity
	}
	if hi < fs.HistMin || lo > fs.HistMax {
		return 0
	}
	span := fs.HistMax - fs.HistMin
	if span <= 0 {
		// Degenerate single-point distribution: either the point is in
		// the interval or it is not.
		if lo <= fs.HistMin && fs.HistMin <= hi {
			return 1
		}
		return 0
	}
	cw := span / float64(len(fs.Hist))
	var in float64
	for c, cnt := range fs.Hist {
		if cnt == 0 {
			continue
		}
		cLo := fs.HistMin + float64(c)*cw
		cHi := cLo + cw
		oLo, oHi := cLo, cHi
		if lo > oLo {
			oLo = lo
		}
		if hi < oHi {
			oHi = hi
		}
		if oHi <= oLo {
			continue
		}
		in += cnt * (oHi - oLo) / cw
	}
	f := in / fs.HistTotal
	if f > 1 {
		f = 1
	}
	return f
}

// Selectivity estimates the fraction of rows matching p, in [0, 1].
// Nil stats fall back to defaultSelectivity.
func (fs *FieldStats) Selectivity(p Pred) float64 {
	if fs == nil || fs.Count == 0 {
		return defaultSelectivity
	}
	if p.kind() != fs.Kind {
		return 0
	}
	ndv := fs.NDV
	if ndv < 1 {
		ndv = 1
	}
	switch p.Op {
	case OpEq:
		return 1 / float64(ndv)
	case OpIn:
		f := float64(len(p.Set)) / float64(ndv)
		if f > 1 {
			f = 1
		}
		return f
	case OpLt, OpLe:
		if x, ok := p.Lo.num(); ok {
			return fs.histFraction(fs.HistMin-1, x)
		}
	case OpGt, OpGe:
		if x, ok := p.Lo.num(); ok {
			return fs.histFraction(x, fs.HistMax+1)
		}
	case OpBetween:
		lo, okLo := p.Lo.num()
		hi, okHi := p.Hi.num()
		if okLo && okHi {
			return fs.histFraction(lo, hi)
		}
	}
	if fs.Kind == KindBool {
		return 0.5
	}
	return defaultSelectivity
}

// FieldAcc is the streaming accumulator behind FieldStats: one
// instance per (field, partition) during the statistics sweep, merged
// across partitions afterwards. It keeps O(1) memory: a bounded
// distinct set, min/max, and a deterministic numeric reservoir.
type FieldAcc struct {
	Field string
	Kind  Kind

	count    int64
	min, max Value
	distinct map[Value]struct{}
	nan      bool // a float NaN was seen: it is no map key, never equal to itself
	overflow bool
	atCap    int64 // rows seen when the distinct set overflowed

	sample []float64
	seen   int64
	rng    *rand.Rand
}

// NewFieldAcc returns an accumulator; seed keeps the reservoir (and
// the plans estimated from it) deterministic across runs.
func NewFieldAcc(field string, kind Kind, seed int64) *FieldAcc {
	return &FieldAcc{
		Field:    field,
		Kind:     kind,
		distinct: make(map[Value]struct{}),
		rng:      rand.New(rand.NewSource(seed*2654435761 + 97)),
	}
}

// Add folds one value into the accumulator.
func (a *FieldAcc) Add(v Value) {
	if a.count == 0 {
		a.min, a.max = v, v
	} else {
		if v.less(a.min) {
			a.min = v
		}
		if a.max.less(v) {
			a.max = v
		}
	}
	a.count++
	if !a.overflow {
		if v.Kind == KindFloat64 && math.IsNaN(v.F) {
			a.nan = true
		} else {
			a.distinct[v] = struct{}{}
		}
		a.checkCap()
	}
	if x, ok := v.num(); ok {
		a.seen++
		if len(a.sample) < fieldSampleCap {
			a.sample = append(a.sample, x)
		} else if j := a.rng.Int63n(a.seen); j < fieldSampleCap {
			a.sample[j] = x
		}
	}
}

// ndv is the exact number of distinct values seen, NaN counted once.
func (a *FieldAcc) ndv() int64 {
	n := int64(len(a.distinct))
	if a.nan {
		n++
	}
	return n
}

// checkCap marks the distinct set overflowed once it reaches the cap.
func (a *FieldAcc) checkCap() {
	if a.ndv() >= distinctCap {
		a.overflow = true
		a.atCap = a.count
	}
}

// Merge folds another accumulator (same field) into a.
func (a *FieldAcc) Merge(o *FieldAcc) {
	if o.count == 0 {
		return
	}
	if a.count == 0 {
		a.min, a.max = o.min, o.max
	} else {
		if o.min.less(a.min) {
			a.min = o.min
		}
		if a.max.less(o.max) {
			a.max = o.max
		}
	}
	a.count += o.count
	if o.overflow {
		a.overflow = true
		a.atCap += o.atCap
	}
	if !a.overflow {
		for v := range o.distinct {
			a.distinct[v] = struct{}{}
		}
		a.nan = a.nan || o.nan
		a.checkCap()
	}
	// The merged reservoir keeps a deterministic subsample of both
	// sides proportional to their sizes.
	for _, x := range o.sample {
		a.seen++
		if len(a.sample) < fieldSampleCap {
			a.sample = append(a.sample, x)
		} else if j := a.rng.Int63n(a.seen); j < fieldSampleCap {
			a.sample[j] = x
		}
	}
}

// Finish produces the planner-facing statistics. histN <= 0 skips the
// histogram.
func (a *FieldAcc) Finish(histN int) *FieldStats {
	fs := &FieldStats{Field: a.Field, Kind: a.Kind, Count: a.count}
	if a.count == 0 {
		return fs
	}
	fs.Min, fs.Max = a.min, a.max
	if !a.overflow {
		fs.NDV = a.ndv()
	} else {
		// Scaled estimate: distinct values kept accruing at roughly the
		// pre-overflow rate. Clamped to the row count.
		est := int64(float64(distinctCap) * float64(a.count) / float64(a.atCap))
		if est > a.count {
			est = a.count
		}
		if est < distinctCap {
			est = distinctCap
		}
		fs.NDV = est
	}
	if histN > 0 && len(a.sample) > 0 {
		fs.buildHist(histN, a.sample, float64(a.seen)/float64(len(a.sample)))
	}
	return fs
}

// String renders a one-line summary for diagnostics.
func (fs *FieldStats) String() string {
	return fmt.Sprintf("field{%s %s count=%d ndv=%d}", fs.Field, fs.Kind, fs.Count, fs.NDV)
}
