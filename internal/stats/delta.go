package stats

import (
	"stark/internal/attr"
	"stark/internal/geom"
	"stark/internal/stobject"
)

// This file maintains a Summary incrementally for mutable datasets:
// instead of re-running the Collect pass after every mutation batch,
// each insert and delete applies an O(1) delta. The maintained fields
// keep exactly the properties the planner relies on:
//
//   - Counts (total, per partition, timed) are exact, so partition
//     pruning by Count == 0 and row estimates stay truthful.
//   - MBRs and temporal extents are grow-only over-approximations:
//     deletes do not shrink them. Visit-style pruning only requires
//     that extents CONTAIN the live records, so pruning stays safe;
//     estimates merely lose some sharpness until a vacuum-triggered
//     reseed tightens them again.
//   - The histogram applies exact weight-1 updates at the record's
//     centroid cell. Its bounds are fixed once materialised (cells
//     cannot be rescaled in place), so centroids falling outside
//     later are clamped to edge cells — degrading estimate quality
//     gracefully, never correctness.
//
// For datasets that start empty the histogram bounds are unknown, so
// centroids are buffered until either enough points arrived or a
// Summary is requested, then the grid is materialised over the MBR
// seen so far plus headroom for future growth.

// gridSeedCap is how many centroids are buffered before the histogram
// bounds are frozen.
const gridSeedCap = 1024

// gridHeadroom is the fraction of each MBR span added on both sides
// when materialising histogram bounds, so early growth stays in
// range.
const gridHeadroom = 0.25

// Incremental maintains a Summary under single-writer mutation
// batches. It is NOT safe for concurrent use; the owning dataset
// serialises all calls (including Summary) behind its writer mutex.
type Incremental struct {
	sum     Summary
	gridN   int
	pending []geom.Point
}

// NewIncremental returns an empty maintainer for a dataset with the
// given partition count; gridN <= 0 selects defaultGridSize.
func NewIncremental(parts, gridN int) *Incremental {
	if gridN <= 0 {
		gridN = defaultGridSize
	}
	inc := &Incremental{gridN: gridN}
	inc.sum = Summary{MBR: geom.EmptyEnvelope(), Parts: make([]PartitionStats, parts)}
	for i := range inc.sum.Parts {
		inc.sum.Parts[i].MBR = geom.EmptyEnvelope()
	}
	return inc
}

// ApplyInsert folds one inserted record into the summary.
func (inc *Incremental) ApplyInsert(p int, key stobject.STObject) {
	env := key.Envelope()
	ps := &inc.sum.Parts[p]
	ps.Count++
	ps.MBR = ps.MBR.ExpandToInclude(env)
	inc.sum.Count++
	inc.sum.MBR = inc.sum.MBR.ExpandToInclude(env)
	if iv, ok := key.Time(); ok {
		growTime(&ps.Timed, &ps.TimeMin, &ps.TimeMax, int64(iv.Start), int64(iv.End))
		growTime(&inc.sum.Timed, &inc.sum.TimeMin, &inc.sum.TimeMax, int64(iv.Start), int64(iv.End))
	}
	c := key.Centroid()
	if inc.sum.Grid == nil {
		inc.pending = append(inc.pending, c)
		if len(inc.pending) >= gridSeedCap {
			inc.materialiseGrid()
		}
		return
	}
	inc.sum.Grid.addWeight(c, 1)
}

// ApplyDelete folds one deleted record out of the summary. key must
// be the record as stored (the tree returns it from the tombstoned
// entry), so the histogram delta lands on the same cell the insert
// charged.
func (inc *Incremental) ApplyDelete(p int, key stobject.STObject) {
	ps := &inc.sum.Parts[p]
	ps.Count--
	inc.sum.Count--
	if _, ok := key.Time(); ok {
		ps.Timed--
		inc.sum.Timed--
	}
	c := key.Centroid()
	if inc.sum.Grid == nil {
		for i := range inc.pending {
			if inc.pending[i] == c {
				inc.pending[i] = inc.pending[len(inc.pending)-1]
				inc.pending = inc.pending[:len(inc.pending)-1]
				break
			}
		}
		return
	}
	inc.sum.Grid.addWeight(c, -1)
}

// Summary materialises any buffered histogram points and returns a
// deep copy safe to publish to concurrent readers.
func (inc *Incremental) Summary() *Summary {
	if inc.sum.Grid == nil && len(inc.pending) > 0 {
		inc.materialiseGrid()
	}
	return inc.sum.clone()
}

// materialiseGrid freezes histogram bounds over the MBR seen so far
// (expanded by headroom) and replays the buffered centroids.
func (inc *Incremental) materialiseGrid() {
	b := inc.sum.MBR
	hx, hy := b.Width()*gridHeadroom, b.Height()*gridHeadroom
	if hx <= 0 {
		hx = 1
	}
	if hy <= 0 {
		hy = 1
	}
	b = geom.NewEnvelope(b.MinX-hx, b.MinY-hy, b.MaxX+hx, b.MaxY+hy)
	h := &Histogram{Bounds: b, N: inc.gridN, Cells: make([]float64, inc.gridN*inc.gridN)}
	inc.sum.Grid = h
	for _, c := range inc.pending {
		h.addWeight(c, 1)
	}
	inc.pending = nil
}

// addWeight applies a ±1 centroid delta, flooring at zero so clamping
// asymmetries can never drive estimates negative.
func (h *Histogram) addWeight(c geom.Point, w float64) {
	i := h.cellIndex(c.X, c.Y)
	h.Cells[i] += w
	if h.Cells[i] < 0 {
		h.Cells[i] = 0
	}
	h.Total += w
	if h.Total < 0 {
		h.Total = 0
	}
}

func growTime(timed *int64, min, max *int64, start, end int64) {
	if *timed == 0 {
		*min, *max = start, end
	} else {
		if start < *min {
			*min = start
		}
		if end > *max {
			*max = end
		}
	}
	*timed++
}

// clone returns a deep copy of the summary (partitions and histogram
// included), so a published snapshot cannot observe later deltas.
func (s *Summary) clone() *Summary {
	out := *s
	out.Parts = append([]PartitionStats(nil), s.Parts...)
	if s.Grid != nil {
		g := *s.Grid
		g.Cells = append([]float64(nil), s.Grid.Cells...)
		out.Grid = &g
	}
	if s.Fields != nil {
		// FieldStats values are immutable once built; copying the map
		// header is enough to isolate the snapshot.
		out.Fields = make(map[string]*attr.FieldStats, len(s.Fields))
		for k, v := range s.Fields {
			out.Fields[k] = v
		}
	}
	return &out
}
