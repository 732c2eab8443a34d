package core

import (
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/stobject"
)

// This file implements the scan-based (non-indexed) filter operator:
// every record of every relevant partition is checked against the
// full spatio-temporal predicate. The check is fused into the
// partition pipeline — records stream through the predicate without
// the partition ever being materialised — and partition pruning still
// applies when the dataset is spatially partitioned.

// scanFiltered builds the fused scanning-filter stage: a dataset that
// streams the records of s satisfying pred against q, charging every
// record that flows through the predicate to ElementsScanned (flushed
// once per partition, so the hot loop stays atomic-free).
func scanFiltered[V any](s *SpatialDataset[V], q stobject.STObject, pred stobject.Predicate) *engine.Dataset[Tuple[V]] {
	rec := s.recorder()
	ds := s.ds
	out := engine.NewStream(s.Context(), ds.Name()+".stScan", ds.NumPartitions(),
		func(p int, yield func(Tuple[V]) bool) error {
			var scanned int64
			err := ds.EachPartition(p, func(kv Tuple[V]) bool {
				scanned++
				if !pred(kv.Key, q) {
					return true
				}
				return yield(kv)
			})
			rec.ElementsScanned(scanned)
			return err
		})
	return out.WithRecorder(s.rec)
}

// Filter applies an arbitrary spatio-temporal predicate against q,
// visiting the partitions relevant for pruneEnv (pass the query
// envelope, expanded as needed for distance predicates).
func (s *SpatialDataset[V]) Filter(q stobject.STObject, pruneEnv geom.Envelope, pred stobject.Predicate) ([]Tuple[V], error) {
	filtered := scanFiltered(s, q, pred)
	if s.sp == nil || pruneEnv.IsEmpty() {
		return filtered.Collect()
	}
	return filtered.CollectPartitions(s.relevantPartitions(pruneEnv))
}
