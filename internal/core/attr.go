package core

import (
	"fmt"

	"stark/internal/attr"
	"stark/internal/engine"
	"stark/internal/index"
)

// This file wires the attr package's typed predicates and postings
// indexes into the scan engine. The postings are the third memoised
// aux member (after the statistics cache and the partitions):
// per-partition sorted postings indexes over the payload fields of the
// registered schema, built lazily per field on first use and bound to
// the dataset instance — any transformation returns a fresh instance,
// so stale postings can never be served.
//
// Two access paths read the postings:
//
//   - AttrFilter: attribute-first. The most selective attribute
//     predicate's postings enumerate candidate rows directly, and the
//     remaining predicates (attribute and spatial) refine them — the
//     analogue of the R-tree probe with the roles of spatial and
//     attribute predicates swapped.
//   - ColumnarFilter with attribute predicates (columnar.go):
//     candidate-set intersection. The coarse spatial kernels sweep the
//     columns into a survivor bitset, each attribute predicate's
//     postings are materialised as a bitset over the same positions,
//     and the conjunction is a word-wise AND; only rows surviving every
//     set are refined with the exact spatial predicates.
//
// Postings file positions in the rows of the dataset's partitions, the
// rows their columns describe too, so the two bitsets AND without
// translation.

// partitions returns every partition as a Laid, the one place both
// the columns and the postings read the rows from: the columns' rows
// and the postings' row ids are positions in Laid.Rows. A laid-out
// dataset hands out its own Laids; any other is materialised once, as
// Laids without a tree, and kept. Like the other auxiliary passes it
// charges StatsRecords, not scan counters.
func (s *SpatialDataset[V]) partitions() ([]*index.Laid[V], error) {
	s.aux.layMu.Lock()
	defer s.aux.layMu.Unlock()
	if s.aux.laid != nil {
		return s.aux.laid, nil
	}
	n := s.ds.NumPartitions()
	laid := make([]*index.Laid[V], n)
	rec := s.ds.Context().Recorder()
	err := s.ds.Context().RunJob(engine.AllPartitions(n), func(p int) error {
		rows, err := s.ds.ComputePartition(p)
		laid[p] = &index.Laid[V]{Rows: rows}
		rec.Add(engine.StatsRecords, int64(len(rows)))
		return err
	})
	if err != nil {
		return nil, err
	}
	s.aux.laid = laid
	return laid, nil
}

// resident returns the partitions if they are materialised, nil
// otherwise; unlike partitions it never materialises them.
func (s *SpatialDataset[V]) resident() []*index.Laid[V] {
	s.aux.layMu.Lock()
	defer s.aux.layMu.Unlock()
	return s.aux.laid
}

// postings returns the per-partition postings of each of fields, in
// that order, building the missing ones, plus the partitions they
// index. The slices are handed out, not the map: a concurrent first use
// of another field writes it.
func (s *SpatialDataset[V]) postings(fields []string) ([][]*attr.Index, []*index.Laid[V], error) {
	laid, err := s.partitions()
	if err != nil {
		return nil, nil, err
	}
	s.aux.attrMu.Lock()
	defer s.aux.attrMu.Unlock()
	out := make([][]*attr.Index, len(fields))
	rec := s.ds.Context().Recorder()
	for i, name := range fields {
		if ixs, ok := s.aux.posts[name]; ok {
			out[i] = ixs
			continue
		}
		if s.aux.schema == nil {
			return nil, nil, fmt.Errorf("core: no attribute schema registered")
		}
		fld, ok := s.aux.schema.Field(name)
		if !ok {
			return nil, nil, fmt.Errorf("core: no field %q in attribute schema", name)
		}
		ixs := make([]*attr.Index, len(laid))
		err := s.ds.Context().RunJob(engine.AllPartitions(len(laid)), func(p int) error {
			rows := laid[p].Rows
			column := make([]attr.Value, len(rows))
			for j := range column {
				column[j] = fld.Get(rows[j].Key, rows[j].Value)
			}
			ixs[p] = attr.BuildIndex(fld.Name, fld.Kind, column)
			rec.Add(engine.StatsRecords, int64(len(column)))
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		if s.aux.posts == nil {
			s.aux.posts = make(map[string][]*attr.Index)
		}
		s.aux.posts[name], out[i] = ixs, ixs
	}
	return out, laid, nil
}

// HasAttrIndex reports whether postings for the field are already
// built — the planner's build-cost discriminator.
func (s *SpatialDataset[V]) HasAttrIndex(field string) bool {
	s.aux.attrMu.Lock()
	defer s.aux.attrMu.Unlock()
	_, ok := s.aux.posts[field]
	return ok
}

// AttrFilter builds the attribute-first scanning stage: per partition,
// the postings of first enumerate candidate rows, and keep (the fused
// remaining-predicate check — other attribute predicates plus the
// exact spatial ones) refines them. Rows are yielded in postings
// (value, then row) order, not partition row order. Metrics mirror the
// R-tree probe: one IndexProbes per partition, candidates charged to
// CandidatesRefined.
func (s *SpatialDataset[V]) AttrFilter(first attr.Pred, keep func(Tuple[V]) bool) (*engine.Dataset[Tuple[V]], error) {
	idxs, laid, err := s.postings([]string{first.Field})
	if err != nil {
		return nil, err
	}
	ix := idxs[0]
	rec := s.recorder()
	out := engine.NewStream(s.ds.Context(), s.ds.Name()+".attrScan", len(laid),
		func(p int, yield func(Tuple[V]) bool) error {
			part := laid[p].Rows
			if len(part) == 0 {
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
				if kv := &part[row]; keep(*kv) && !yield(*kv) {
					stop = true
				}
			})
			rec.Add(engine.CandidatesRefined, cands)
			return nil
		})
	return out.WithRecorder(s.rec), nil
}
