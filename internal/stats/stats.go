// Package stats collects dataset statistics for the cost-based query
// planner (internal/plan): per-partition minimum bounding rectangles,
// record counts, temporal extents, and a coarse spatial grid histogram
// estimating how records are distributed over the data space.
//
// Everything is gathered in ONE streaming pass over the fused
// partition pipeline — records flow through lightweight accumulators
// and only the summaries survive. The histogram is built from a
// bounded per-partition reservoir sample of record centroids, scaled
// back to the full partition counts, so the pass stays O(1) memory per
// partition regardless of dataset size.
//
// Summaries are cached by the owning dataset (core.SpatialDataset
// caches one per instance); because repartitioning and filtering
// produce new dataset instances, a summary can never outlive the
// layout it describes.
package stats

import (
	"fmt"
	"math/rand"
	"strings"

	"stark/internal/attr"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/stobject"
)

// defaultGridSize is the default resolution (cells per dimension) of
// the spatial histogram.
const defaultGridSize = 32

// sampleCap bounds the per-partition centroid reservoir the histogram
// is estimated from.
const sampleCap = 1024

// PartitionStats summarises one partition.
type PartitionStats struct {
	// Count is the number of records in the partition.
	Count int64 `json:"count"`
	// MBR is the minimum bounding rectangle of the record envelopes;
	// empty when the partition holds no records.
	MBR geom.Envelope `json:"mbr"`
	// Timed counts the records carrying a temporal component.
	Timed int64 `json:"timed"`
	// TimeMin/TimeMax bound the validity intervals of the timed
	// records; meaningful only when Timed > 0.
	TimeMin int64 `json:"timeMin"`
	TimeMax int64 `json:"timeMax"`
}

// Histogram is a coarse N×N spatial grid over the data envelope. Cell
// values are estimated record counts (scaled from the centroid
// sample), row-major with (0,0) at (MinX, MinY).
type Histogram struct {
	Bounds geom.Envelope `json:"bounds"`
	N      int           `json:"n"`
	Cells  []float64     `json:"-"`
	Total  float64       `json:"total"`
}

// Summary is the full statistics bundle of one dataset.
type Summary struct {
	// Count is the total number of records.
	Count int64 `json:"count"`
	// MBR is the envelope of all record envelopes.
	MBR geom.Envelope `json:"mbr"`
	// Timed counts records with a temporal component; TimeMin/TimeMax
	// bound their intervals (meaningful only when Timed > 0).
	Timed   int64 `json:"timed"`
	TimeMin int64 `json:"timeMin"`
	TimeMax int64 `json:"timeMax"`
	// Parts holds the per-partition statistics, indexed by partition.
	Parts []PartitionStats `json:"partitions"`
	// Grid is the spatial histogram, nil for an empty dataset.
	Grid *Histogram `json:"grid,omitempty"`
	// Fields holds per-field attribute statistics (min/max/NDV/
	// histogram), keyed by field name. Populated only when the sweep
	// was given a schema's extractors (CollectFields); nil otherwise,
	// in which case attribute selectivities fall back to
	// attr's default selectivity.
	Fields map[string]*attr.FieldStats `json:"fields,omitempty"`
}

// FieldStats returns the statistics of one field, or nil.
func (s *Summary) FieldStats(name string) *attr.FieldStats {
	if s == nil {
		return nil
	}
	return s.Fields[name]
}

// Collect runs the single statistics pass over a dataset of
// (STObject, V) records. gridN <= 0 selects defaultGridSize. Records
// seen by the pass are charged to the engine's StatsRecords metric,
// not to ElementsScanned: statistics collection is planner overhead,
// not predicate work.
func Collect[V any](ds *engine.Dataset[engine.Pair[stobject.STObject, V]], gridN int) (*Summary, error) {
	return CollectFields(ds, nil, gridN, nil)
}

// CollectFields is Collect with attribute-field extractors threaded
// into the same one-pass sweep: each record's tagged fields feed
// per-field accumulators (min/max, bounded distinct set, numeric
// reservoir), merged across partitions into Summary.Fields. A non-nil
// visit restricts the sweep to the listed partitions; the caller
// asserts that the others hold no records, and they are summarised as
// empty.
func CollectFields[V any](ds *engine.Dataset[engine.Pair[stobject.STObject, V]], visit []int, gridN int, fields []attr.Field[V]) (*Summary, error) {
	if gridN <= 0 {
		gridN = defaultGridSize
	}
	n := ds.NumPartitions()
	if visit == nil {
		visit = engine.AllPartitions(n)
	}
	type acc struct {
		ps     PartitionStats
		sample []geom.Point
		seen   int64
		fields []*attr.FieldAcc
	}
	accs := make([]acc, n)
	for p := range accs {
		accs[p].ps.MBR = geom.EmptyEnvelope()
	}
	rec := ds.Context().Recorder()
	err := ds.Context().RunJob(visit, func(p int) error {
		a := accs[p]
		if len(fields) > 0 {
			a.fields = make([]*attr.FieldAcc, len(fields))
			for i, f := range fields {
				a.fields[i] = attr.NewFieldAcc(f.Name, f.Kind, int64(p)*31+int64(i))
			}
		}
		// Deterministic reservoir so repeated collections (and the
		// histogram estimates derived from them) are reproducible.
		rng := rand.New(rand.NewSource(int64(p)*2654435761 + 1))
		err := ds.EachPartition(p, func(kv engine.Pair[stobject.STObject, V]) bool {
			a.ps.Count++
			a.ps.MBR = a.ps.MBR.ExpandToInclude(kv.Key.Envelope())
			if iv, ok := kv.Key.Time(); ok {
				if a.ps.Timed == 0 {
					a.ps.TimeMin, a.ps.TimeMax = int64(iv.Start), int64(iv.End)
				} else {
					if int64(iv.Start) < a.ps.TimeMin {
						a.ps.TimeMin = int64(iv.Start)
					}
					if int64(iv.End) > a.ps.TimeMax {
						a.ps.TimeMax = int64(iv.End)
					}
				}
				a.ps.Timed++
			}
			for i, f := range fields {
				a.fields[i].Add(f.Get(kv.Key, kv.Value))
			}
			c := kv.Key.Centroid()
			a.seen++
			if len(a.sample) < sampleCap {
				a.sample = append(a.sample, c)
			} else if j := rng.Int63n(a.seen); j < sampleCap {
				a.sample[j] = c
			}
			return true
		})
		if err != nil {
			return err
		}
		rec.Add(engine.StatsRecords, a.ps.Count)
		accs[p] = a
		return nil
	})
	if err != nil {
		return nil, err
	}

	sum := &Summary{MBR: geom.EmptyEnvelope(), Parts: make([]PartitionStats, n)}
	for p, a := range accs {
		sum.Parts[p] = a.ps
		sum.Count += a.ps.Count
		sum.MBR = sum.MBR.ExpandToInclude(a.ps.MBR)
		if a.ps.Timed > 0 {
			if sum.Timed == 0 {
				sum.TimeMin, sum.TimeMax = a.ps.TimeMin, a.ps.TimeMax
			} else {
				if a.ps.TimeMin < sum.TimeMin {
					sum.TimeMin = a.ps.TimeMin
				}
				if a.ps.TimeMax > sum.TimeMax {
					sum.TimeMax = a.ps.TimeMax
				}
			}
			sum.Timed += a.ps.Timed
		}
	}
	if len(fields) > 0 {
		sum.Fields = make(map[string]*attr.FieldStats, len(fields))
		for i, f := range fields {
			merged := attr.NewFieldAcc(f.Name, f.Kind, int64(i))
			for p := range accs {
				if accs[p].fields != nil {
					merged.Merge(accs[p].fields[i])
				}
			}
			sum.Fields[f.Name] = merged.Finish(defaultGridSize)
		}
	}
	if sum.Count == 0 {
		return sum, nil
	}

	h := &Histogram{Bounds: sum.MBR, N: gridN, Cells: make([]float64, gridN*gridN)}
	for _, a := range accs {
		if len(a.sample) == 0 {
			continue
		}
		// Each sampled centroid stands for count/len(sample) records.
		w := float64(a.ps.Count) / float64(len(a.sample))
		for _, c := range a.sample {
			h.Cells[h.cellIndex(c.X, c.Y)] += w
		}
		h.Total += float64(a.ps.Count)
	}
	sum.Grid = h
	return sum, nil
}

// cellIndex maps a point to its row-major cell, clamping to the grid.
func (h *Histogram) cellIndex(x, y float64) int {
	cx := cellCoord(x, h.Bounds.MinX, h.Bounds.Width(), h.N)
	cy := cellCoord(y, h.Bounds.MinY, h.Bounds.Height(), h.N)
	return cy*h.N + cx
}

func cellCoord(v, min, span float64, n int) int {
	if span <= 0 {
		return 0
	}
	c := int((v - min) / span * float64(n))
	if c < 0 {
		c = 0
	}
	if c >= n {
		c = n - 1
	}
	return c
}

// estimateRows estimates how many records have their centroid inside
// q, summing cell counts weighted by the fraction of each cell q
// covers.
func (h *Histogram) estimateRows(q geom.Envelope) float64 {
	if h == nil || h.Total == 0 || q.IsEmpty() || !h.Bounds.Intersects(q) {
		return 0
	}
	cw := h.Bounds.Width() / float64(h.N)
	ch := h.Bounds.Height() / float64(h.N)
	lox := cellCoord(q.MinX, h.Bounds.MinX, h.Bounds.Width(), h.N)
	hix := cellCoord(q.MaxX, h.Bounds.MinX, h.Bounds.Width(), h.N)
	loy := cellCoord(q.MinY, h.Bounds.MinY, h.Bounds.Height(), h.N)
	hiy := cellCoord(q.MaxY, h.Bounds.MinY, h.Bounds.Height(), h.N)
	var est float64
	for cy := loy; cy <= hiy; cy++ {
		for cx := lox; cx <= hix; cx++ {
			cnt := h.Cells[cy*h.N+cx]
			if cnt == 0 {
				continue
			}
			cell := geom.Envelope{
				MinX: h.Bounds.MinX + float64(cx)*cw,
				MinY: h.Bounds.MinY + float64(cy)*ch,
				MaxX: h.Bounds.MinX + float64(cx+1)*cw,
				MaxY: h.Bounds.MinY + float64(cy+1)*ch,
			}
			est += cnt * overlapFraction(cell, q)
		}
	}
	if est > h.Total {
		est = h.Total
	}
	return est
}

// overlapFraction returns the fraction of cell covered by q, treating
// degenerate (zero-area) cells as fully covered when they intersect.
func overlapFraction(cell, q geom.Envelope) float64 {
	inter := cell.Intersection(q)
	if inter.IsEmpty() {
		return 0
	}
	fx, fy := 1.0, 1.0
	if cell.Width() > 0 {
		fx = inter.Width() / cell.Width()
	}
	if cell.Height() > 0 {
		fy = inter.Height() / cell.Height()
	}
	return fx * fy
}

// Selectivity estimates the fraction of records whose centroid falls
// inside q, in [0, 1].
func (s *Summary) Selectivity(q geom.Envelope) float64 {
	if s.Count == 0 {
		return 0
	}
	sel := s.Grid.estimateRows(q) / float64(s.Count)
	if sel > 1 {
		sel = 1
	}
	return sel
}

// TemporalSelectivity estimates the fraction of records a temporal
// window [begin, end] can match under the combined semantics: records
// without a time component never match a timed query, and timed
// records match only when their interval can overlap the window.
func (s *Summary) TemporalSelectivity(begin, end int64) float64 {
	if s.Count == 0 || s.Timed == 0 {
		return 0
	}
	timedFrac := float64(s.Timed) / float64(s.Count)
	span := s.TimeMax - s.TimeMin
	if end < s.TimeMin || begin > s.TimeMax {
		return 0
	}
	if span <= 0 {
		return timedFrac
	}
	lo, hi := begin, end
	if lo < s.TimeMin {
		lo = s.TimeMin
	}
	if hi > s.TimeMax {
		hi = s.TimeMax
	}
	frac := float64(hi-lo) / float64(span)
	if frac > 1 {
		frac = 1
	}
	return timedFrac * frac
}

// TimeFilter describes a temporal pruning constraint.
type TimeFilter struct {
	Begin, End int64
}

// Visit returns the partitions a query must visit: those whose MBR
// intersects every envelope in envs and, when times are given, whose
// temporal extent can overlap every window. A timed query can skip
// partitions with no timed records at all (combined semantics: a
// record without time never matches a timed query). The result is
// sorted ascending; pruning is safe because MBRs and temporal extents
// are exact over-approximations of the partition contents.
func (s *Summary) Visit(envs []geom.Envelope, times []TimeFilter) []int {
	visit := make([]int, 0, len(s.Parts))
	for i, ps := range s.Parts {
		if ps.Count == 0 {
			continue
		}
		hit := true
		for _, env := range envs {
			if !ps.MBR.Intersects(env) {
				hit = false
				break
			}
		}
		if hit {
			for _, tf := range times {
				if ps.Timed == 0 || tf.End < ps.TimeMin || tf.Begin > ps.TimeMax {
					hit = false
					break
				}
			}
		}
		if hit {
			visit = append(visit, i)
		}
	}
	return visit
}

// RowsIn sums the record counts of the given partitions.
func (s *Summary) RowsIn(visit []int) int64 {
	var n int64
	for _, p := range visit {
		n += s.Parts[p].Count
	}
	return n
}

// String renders a one-line summary for diagnostics.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stats{count=%d parts=%d mbr=%s", s.Count, len(s.Parts), s.MBR)
	if s.Timed > 0 {
		fmt.Fprintf(&b, " time=[%d,%d] timed=%d", s.TimeMin, s.TimeMax, s.Timed)
	}
	if s.Grid != nil {
		fmt.Fprintf(&b, " grid=%dx%d", s.Grid.N, s.Grid.N)
	}
	b.WriteString("}")
	return b.String()
}
