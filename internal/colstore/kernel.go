package colstore

// Batched envelope/interval kernels. Filter sweeps a partition's
// columns in chunkRows batches, building a 64-row match mask per bitset
// word with branch-free compares (the bool→uint64 conversion compiles
// to SETcc, not a branch) and ANDing it into the survivor bitset. The
// spatial test is conservative over envelopes; the temporal test is
// exact — interval endpoints are stored verbatim in the columns, so
// the kernel can apply STARK's combined-predicate time semantics
// (untimed query matches only untimed records, timed query matches
// only timed records whose intervals pass the per-operation relation)
// without a refinement step.

// Op selects the coarse spatial relation a kernel sweep applies
// between each record envelope and the query envelope.
type Op int

const (
	// OpIntersects keeps rows whose envelope intersects the query
	// envelope (coarse test for the Intersects predicate).
	OpIntersects Op = iota
	// OpContains keeps rows whose envelope contains the query envelope
	// (necessary condition for the record geometry containing the
	// query geometry).
	OpContains
	// OpContainedBy keeps rows whose envelope lies inside the query
	// envelope (necessary for ContainedBy/CoveredBy).
	OpContainedBy
	// OpWithinDistance keeps rows whose envelope is within Dist of the
	// query envelope (Euclidean envelope gap). Only safe for the
	// built-in Euclidean metric — opaque distance functions must use
	// OpPrune over the predicate's pruning envelope instead.
	OpWithinDistance
	// OpPrune is the generic fallback: an envelope-intersects test
	// against a precomputed pruning envelope, the same contract the
	// R-tree index path relies on.
	OpPrune
)

// TimeMode selects the exact temporal relation applied to timed rows.
type TimeMode int

const (
	// TimeNone applies no temporal logic — for opaque predicates whose
	// time semantics the kernel cannot know.
	TimeNone TimeMode = iota
	// TimeOverlap keeps rows whose interval intersects the query
	// interval (Intersects, WithinDistance).
	TimeOverlap
	// TimeContains keeps rows whose interval contains the query
	// interval (Contains).
	TimeContains
	// TimeWithin keeps rows whose interval lies within the query
	// interval (ContainedBy/CoveredBy).
	TimeWithin
)

// Query is the compiled coarse form of one spatio-temporal predicate.
type Query struct {
	Op                     Op
	MinX, MinY, MaxX, MaxY float64 // query / pruning envelope
	Dist                   float64 // OpWithinDistance radius
	Time                   TimeMode
	HasTime                bool // query carries a temporal component
	TBegin, TEnd           int64
}

// Filter ANDs the coarse result of q over partition p into bs and
// returns the number of column batches swept. bs must be reset to
// p.Len() rows (or already hold the survivors of earlier predicates —
// sweeps compose by conjunction). Intervals are closed on both ends,
// matching stobject.Interval.
func Filter(p *Partition, q Query, bs *Bitset) int {
	n := p.n
	if n == 0 {
		return 0
	}
	batches := 0
	for s := 0; s < n; s += chunkRows {
		e := s + chunkRows
		if e > n {
			e = n
		}
		filterChunk(p, q, bs, s, e)
		batches++
	}
	return batches
}

// b2u converts a bool to 0/1 without a branch (compiles to SETcc).
func b2u(b bool) uint64 {
	var v uint64
	if b {
		v = 1
	}
	return v
}

// filterChunk applies the spatial then temporal sweep to rows [s, e).
// chunkRows is a multiple of 64, so chunks align to bitset words.
func filterChunk(p *Partition, q Query, bs *Bitset, s, e int) {
	minX := p.MinX[s:e]
	minY := p.MinY[s:e]
	maxX := p.MaxX[s:e]
	maxY := p.MaxY[s:e]
	words := bs.words[s/64 : (e-s+63)/64+s/64]

	switch q.Op {
	case OpIntersects, OpPrune:
		for w := range words {
			if words[w] == 0 {
				continue
			}
			base := w * 64
			lim := len(minX) - base
			if lim > 64 {
				lim = 64
			}
			var m uint64
			for i := 0; i < lim; i++ {
				ok := minX[base+i] <= q.MaxX && q.MinX <= maxX[base+i] &&
					minY[base+i] <= q.MaxY && q.MinY <= maxY[base+i]
				m |= b2u(ok) << uint(i)
			}
			words[w] &= m
		}
	case OpContains:
		for w := range words {
			if words[w] == 0 {
				continue
			}
			base := w * 64
			lim := len(minX) - base
			if lim > 64 {
				lim = 64
			}
			var m uint64
			for i := 0; i < lim; i++ {
				ok := minX[base+i] <= q.MinX && maxX[base+i] >= q.MaxX &&
					minY[base+i] <= q.MinY && maxY[base+i] >= q.MaxY
				m |= b2u(ok) << uint(i)
			}
			words[w] &= m
		}
	case OpContainedBy:
		for w := range words {
			if words[w] == 0 {
				continue
			}
			base := w * 64
			lim := len(minX) - base
			if lim > 64 {
				lim = 64
			}
			var m uint64
			for i := 0; i < lim; i++ {
				ok := minX[base+i] >= q.MinX && maxX[base+i] <= q.MaxX &&
					minY[base+i] >= q.MinY && maxY[base+i] <= q.MaxY
				m |= b2u(ok) << uint(i)
			}
			words[w] &= m
		}
	case OpWithinDistance:
		d2 := q.Dist * q.Dist
		for w := range words {
			if words[w] == 0 {
				continue
			}
			base := w * 64
			lim := len(minX) - base
			if lim > 64 {
				lim = 64
			}
			var m uint64
			for i := 0; i < lim; i++ {
				// Axis gaps between the envelopes; 0 when they overlap
				// on that axis. NaN-free for real envelopes; the empty
				// envelope's ±Inf bounds yield +Inf gaps and fail.
				dx := q.MinX - maxX[base+i]
				if v := minX[base+i] - q.MaxX; v > dx {
					dx = v
				}
				if dx < 0 {
					dx = 0
				}
				dy := q.MinY - maxY[base+i]
				if v := minY[base+i] - q.MaxY; v > dy {
					dy = v
				}
				if dy < 0 {
					dy = 0
				}
				m |= b2u(dx*dx+dy*dy <= d2) << uint(i)
			}
			words[w] &= m
		}
	}

	if q.Time == TimeNone {
		return
	}
	timed := p.timed[s/64 : s/64+len(words)]
	if !q.HasTime {
		// Untimed query: combined semantics match only untimed records.
		for w := range words {
			words[w] &^= timed[w]
		}
		return
	}
	// Timed query: only timed records can match, with the exact
	// per-mode interval relation (closed intervals on both ends).
	ts := p.TStart[s:e]
	te := p.TEnd[s:e]
	switch q.Time {
	case TimeOverlap:
		for w := range words {
			alive := words[w] & timed[w]
			if alive == 0 {
				words[w] = 0
				continue
			}
			base := w * 64
			lim := len(ts) - base
			if lim > 64 {
				lim = 64
			}
			var m uint64
			for i := 0; i < lim; i++ {
				ok := ts[base+i] <= q.TEnd && q.TBegin <= te[base+i]
				m |= b2u(ok) << uint(i)
			}
			words[w] = alive & m
		}
	case TimeContains:
		for w := range words {
			alive := words[w] & timed[w]
			if alive == 0 {
				words[w] = 0
				continue
			}
			base := w * 64
			lim := len(ts) - base
			if lim > 64 {
				lim = 64
			}
			var m uint64
			for i := 0; i < lim; i++ {
				ok := ts[base+i] <= q.TBegin && q.TEnd <= te[base+i]
				m |= b2u(ok) << uint(i)
			}
			words[w] = alive & m
		}
	case TimeWithin:
		for w := range words {
			alive := words[w] & timed[w]
			if alive == 0 {
				words[w] = 0
				continue
			}
			base := w * 64
			lim := len(ts) - base
			if lim > 64 {
				lim = 64
			}
			var m uint64
			for i := 0; i < lim; i++ {
				ok := q.TBegin <= ts[base+i] && te[base+i] <= q.TEnd
				m |= b2u(ok) << uint(i)
			}
			words[w] = alive & m
		}
	}
}
