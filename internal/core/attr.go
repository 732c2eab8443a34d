package core

import (
	"fmt"

	"stark/internal/attr"
	"stark/internal/engine"
)

// This file wires the attr package's typed predicates and postings
// indexes into the scan engine. The attribute sidecar is the third
// memoised aux member (after the statistics cache and the columnar
// sidecar): per-partition sorted postings indexes over the payload
// fields of the registered schema, built lazily per field on first
// use and bound to the dataset instance — any transformation returns
// a fresh instance, so stale postings can never be served.
//
// Two access paths execute here:
//
//   - AttrFilter: attribute-first. The most selective attribute
//     predicate's postings enumerate candidate rows directly, and the
//     remaining predicates (attribute and spatial) refine them — the
//     analogue of the R-tree probe with the roles of spatial and
//     attribute predicates swapped.
//   - ColumnarFilterIntersect: candidate-set intersection. The coarse
//     spatial kernels sweep the columnar sidecar into a survivor
//     bitset, each attribute predicate's postings are materialised as
//     a bitset over the same row order, and the conjunction is a
//     word-wise AND; only rows surviving every set are refined with
//     the exact spatial predicates (attribute postings are exact, so
//     they need no refinement).
//
// For the intersection to be sound the postings and the kernel bitset
// must index the same row order, so when the columnar sidecar exists
// the attribute indexes are built over its (possibly Hilbert-sorted)
// kernel row order and marked aligned; a sidecar built later
// invalidates unaligned postings, which silently rebuild on next use.

// attrSidecar holds the lazily built attribute postings: the rows the
// postings index into, addressed and not copied (the columnar
// sidecar's kernel order when one exists, the dataset's own partition
// slices otherwise), plus one per-partition index slice per field.
type attrSidecar[V any] struct {
	rows []kernelRows[V]
	// aligned marks rows as the columnar sidecar's row order, making
	// postings bitsets AND-compatible with kernel survivor bitsets.
	aligned bool
	idx     map[string][]*attr.Index
}

// ensureAttrIndex returns the per-partition postings for the given
// fields (building missing ones) plus the rows they index.
func (s *SpatialDataset[V]) ensureAttrIndex(fields []string) (map[string][]*attr.Index, []kernelRows[V], error) {
	col := s.columnar()
	s.aux.attrMu.Lock()
	defer s.aux.attrMu.Unlock()
	sch := s.aux.schema
	if sch == nil {
		return nil, nil, fmt.Errorf("core: no attribute schema registered")
	}
	side := s.aux.attrSide
	if side != nil && !side.aligned && col != nil {
		// A columnar sidecar appeared after the postings were built
		// over a plain collect: rebuild over the kernel row order so
		// intersection stays available.
		side = nil
	}
	if side == nil {
		side = &attrSidecar[V]{idx: make(map[string][]*attr.Index)}
		if col != nil {
			side.rows = col.rows
			side.aligned = true
		} else {
			rows, err := s.collectAttrRows()
			if err != nil {
				return nil, nil, err
			}
			side.rows = rows
		}
		s.aux.attrSide = side
	}
	rec := s.Context().Recorder()
	for _, name := range fields {
		if _, ok := side.idx[name]; ok {
			continue
		}
		fld, ok := sch.Field(name)
		if !ok {
			return nil, nil, fmt.Errorf("core: no field %q in attribute schema", name)
		}
		ixs := make([]*attr.Index, len(side.rows))
		err := s.Context().RunJob(engine.AllPartitions(len(side.rows)), func(p int) error {
			rows := side.rows[p]
			column := make([]attr.Value, len(rows.rows))
			for i := range column {
				column[i] = fld.Get(rows.at(i).Key, rows.at(i).Value)
			}
			ixs[p] = attr.BuildIndex(fld.Name, fld.Kind, column)
			rec.Add(engine.StatsRecords, int64(len(column)))
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		side.idx[name] = ixs
	}
	return side.idx, side.rows, nil
}

// collectAttrRows takes every partition's rows for postings to index —
// the fallback row order when no columnar sidecar exists: the dataset's
// own slices when it holds them (read-only), one materialisation
// otherwise. Like the other auxiliary passes it charges StatsRecords,
// not scan counters.
func (s *SpatialDataset[V]) collectAttrRows() ([]kernelRows[V], error) {
	n := s.ds.NumPartitions()
	rows := make([]kernelRows[V], n)
	rec := s.Context().Recorder()
	err := s.Context().RunJob(engine.AllPartitions(n), func(p int) error {
		out, err := s.ds.ComputePartition(p)
		rows[p].rows = out
		rec.Add(engine.StatsRecords, int64(len(out)))
		return err
	})
	return rows, err
}

// HasAttrIndex reports whether postings for the field are already
// built — the planner's build-cost discriminator.
func (s *SpatialDataset[V]) HasAttrIndex(field string) bool {
	s.aux.attrMu.Lock()
	defer s.aux.attrMu.Unlock()
	if s.aux.attrSide == nil {
		return false
	}
	_, ok := s.aux.attrSide.idx[field]
	return ok
}

// BuildAttrIndex eagerly builds the per-partition postings for the
// named fields (all schema fields when none are given). The postings
// build lazily on first probe anyway; building them up front removes
// the build cost from the planner's attribute-index pricing, so
// repeated selective queries pick the postings probe instead of
// re-scanning inline — the knob a long-lived service turns once per
// hot field.
func (s *SpatialDataset[V]) BuildAttrIndex(fields ...string) error {
	if len(fields) == 0 {
		s.aux.attrMu.Lock()
		sch := s.aux.schema
		s.aux.attrMu.Unlock()
		if sch == nil {
			return fmt.Errorf("core: no attribute schema registered")
		}
		fields = sch.Names()
	}
	_, _, err := s.ensureAttrIndex(fields)
	return err
}

// AttrFilter builds the attribute-first scanning stage: per partition,
// the postings of first enumerate candidate rows, and keep (the fused
// remaining-predicate check — other attribute predicates plus the
// exact spatial ones) refines them. Rows are yielded in postings
// (value, then row) order, not partition row order. Metrics mirror the
// R-tree probe: one IndexProbes per partition, candidates charged to
// CandidatesRefined.
func (s *SpatialDataset[V]) AttrFilter(first attr.Pred, keep func(Tuple[V]) bool) (*engine.Dataset[Tuple[V]], error) {
	idxs, rows, err := s.ensureAttrIndex([]string{first.Field})
	if err != nil {
		return nil, err
	}
	ix := idxs[first.Field]
	rec := s.recorder()
	out := engine.NewStream(s.Context(), s.ds.Name()+".attrScan", len(rows),
		func(p int, yield func(Tuple[V]) bool) error {
			part := rows[p]
			if len(part.rows) == 0 {
				return nil
			}
			rec.Add(engine.IndexProbes, 1)
			var cands int64
			stop := false
			ix[p].Postings(first, func(row int32) {
				if stop {
					return
				}
				cands++
				if kv := part.at(int(row)); keep(*kv) && !yield(*kv) {
					stop = true
				}
			})
			rec.Add(engine.CandidatesRefined, cands)
			return nil
		})
	return out.WithRecorder(s.rec), nil
}

// ColumnarFilterIntersect builds the candidate-set-intersection stage:
// the spatial kernel sweep and the attribute postings each produce a
// bitset over the partition's kernel row order, the bitsets are ANDed,
// and only rows surviving the conjunction are refined with the exact
// spatial predicates. Requires the columnar sidecar and postings built
// over its row order.
func (s *SpatialDataset[V]) ColumnarFilterIntersect(preds []KernelPred, attrPreds []attr.Pred) (*engine.Dataset[Tuple[V]], error) {
	fields := make([]string, len(attrPreds))
	for i, ap := range attrPreds {
		fields[i] = ap.Field // a repeated field is built once
	}
	idxs, _, err := s.ensureAttrIndex(fields)
	if err != nil {
		return nil, err
	}
	side := s.columnar()
	if side == nil {
		return nil, fmt.Errorf("core: columnar sidecar not built")
	}
	s.aux.attrMu.Lock()
	aligned := s.aux.attrSide != nil && s.aux.attrSide.aligned
	s.aux.attrMu.Unlock()
	if !aligned {
		return nil, fmt.Errorf("core: attribute postings not aligned with columnar row order")
	}
	return s.kernelScan(".colAttrScan", side, preds, attrPreds, idxs), nil
}
