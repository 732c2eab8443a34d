package core

import (
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/stobject"
)

// This file implements the scan-based (non-indexed) filter operator:
// every record of every relevant partition is checked against the
// spatio-temporal predicate. The check is fused into the partition
// plan — it runs over the batches the partition is handed out in and
// copies the rows that match — and partition pruning still applies when
// the dataset is spatially partitioned.

// scanFiltered builds the fused scanning-filter stage: the records of s
// satisfying pred against q, on the contract of IndexedDataset.Probe:
// the candidates are the rows whose key envelope meets pruneEnv, the
// exact predicate refines them. A row outside pruneEnv is rejected
// inside the batch loop (a point key: four compares) and never reaches
// pred; an empty pruneEnv means no such test. Every row is charged to
// ElementsScanned, rejected either way, once per batch so the loop
// stays atomic-free.
func scanFiltered[V any](s *SpatialDataset[V], q stobject.STObject, pruneEnv geom.Envelope, pred stobject.Predicate) *engine.Dataset[Tuple[V]] {
	rec := s.recorder()
	pretest := !pruneEnv.IsEmpty()
	out := engine.MapBatches(s.ds, ".stScan", func(in, out []Tuple[V]) int {
		n := 0
		for i := range in {
			if pretest && !in[i].Key.EnvelopeIntersects(pruneEnv) {
				continue
			}
			if pred(in[i].Key, q) {
				out[n] = in[i]
				n++
			}
		}
		rec.ElementsScanned(int64(len(in)))
		return n
	})
	return out.WithRecorder(s.rec)
}

// Filter applies an arbitrary spatio-temporal predicate against q to
// the rows whose envelope meets pruneEnv, in the partitions relevant
// for it (pass the query envelope, expanded as needed for distance
// predicates; an empty one scans everything).
func (s *SpatialDataset[V]) Filter(q stobject.STObject, pruneEnv geom.Envelope, pred stobject.Predicate) ([]Tuple[V], error) {
	filtered := scanFiltered(s, q, pruneEnv, pred)
	if s.sp == nil || pruneEnv.IsEmpty() {
		return filtered.Collect()
	}
	return filtered.CollectPartitions(s.relevantPartitions(pruneEnv))
}
