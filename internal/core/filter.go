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
// inside the batch loop and never reaches pred; an empty pruneEnv means
// no such test. A point key holds its coordinates in the row, so the
// test is four compares on the row itself, and pred refines the
// survivors through geom's point-first predicates without boxing them.
// Every row is charged to ElementsScanned, rejected either way, once
// per batch so the loop stays atomic-free.
func scanFiltered[V any](s *SpatialDataset[V], q stobject.STObject, pruneEnv geom.Envelope, pred stobject.Predicate) *engine.Dataset[Tuple[V]] {
	return engine.MapBatches(s.ds, ".stScan", scanBatch[V](s.recorder(), q, pruneEnv, pred, s.xOrdered)).WithRecorder(s.rec)
}

// scanBatch is scanFiltered's batch function; xOrdered says the batches
// come from rows ordered by x (SpatialDataset.xOrdered).
func scanBatch[V any](rec *engine.Recorder, q stobject.STObject, pruneEnv geom.Envelope, pred stobject.Predicate, xOrdered bool) func(in, out []Tuple[V]) int {
	pretest := !pruneEnv.IsEmpty()
	return func(in, out []Tuple[V]) int {
		rec.Add(engine.ElementsScanned, int64(len(in)))
		if xOrdered && pretest && len(in) > 0 {
			first, _ := in[0].Key.Point()
			last, _ := in[len(in)-1].Key.Point()
			if last.X < pruneEnv.MinX || first.X > pruneEnv.MaxX {
				return 0 // every x of the batch lies outside pruneEnv
			}
		}
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
		return n
	}
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
