package core

import (
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/stobject"
)

// This file provides the lazy, dataset-returning filters. Where*
// methods return a new SpatialDataset whose partitions are filtered
// on compute, so pipelines can chain further operators (joins, clustering, kNN)
// without materialising intermediate results — the RDD style of the
// original DSL. The spatial partitioner is preserved: a filter never
// moves a record out of its partition, so partition extents remain
// valid over-approximations and downstream pruning still applies.

// Where keeps the records whose key satisfies pred against q, lazily.
// pruneEnv is the envelope a matching record's envelope must meet (the
// query envelope, expanded for distance predicates): rows outside it
// never reach pred; an empty one hands every row to pred. The predicate
// is fused into the partition plan: chaining several Where steps (or a
// Where under a Collect/Count) executes as one pass per batch with no
// intermediate partition.
func (s *SpatialDataset[V]) Where(q stobject.STObject, pruneEnv geom.Envelope, pred stobject.Predicate) *SpatialDataset[V] {
	return newSpatial(scanFiltered(s, q, pruneEnv, pred), s.sp, s.rec)
}

// WhereRows keeps the records satisfying a payload-aware predicate,
// lazily and fused like Where. It is the inline execution form of
// typed attribute predicates: the compiled attribute checks run
// against each record's payload in the same pass as the spatial
// predicates, before any of them.
func (s *SpatialDataset[V]) WhereRows(keep func(key stobject.STObject, v V) bool) *SpatialDataset[V] {
	rec := s.recorder()
	out := engine.MapBatches(s.ds, ".attrRowScan", func(in, out []Tuple[V]) int {
		n := 0
		for i := range in {
			if keep(in[i].Key, in[i].Value) {
				out[n] = in[i]
				n++
			}
		}
		rec.ElementsScanned(int64(len(in)))
		return n
	})
	return newSpatial(out.WithRecorder(s.rec), s.sp, s.rec)
}

// WhereIntersects is Where with the Intersects predicate.
func (s *SpatialDataset[V]) WhereIntersects(q stobject.STObject) *SpatialDataset[V] {
	return s.Where(q, q.Envelope(), stobject.Intersects)
}

// MapValues transforms the payloads, preserving keys and
// partitioning.
func MapDatasetValues[V, W any](s *SpatialDataset[V], f func(V) W) *SpatialDataset[W] {
	mapped := engine.Map(s.ds, func(kv Tuple[V]) Tuple[W] {
		return engine.NewPair(kv.Key, f(kv.Value))
	})
	return newSpatial(mapped, s.sp, s.rec)
}

// ReKey replaces the spatio-temporal key of every record. The spatial
// partitioner is dropped because the new keys need not respect the
// old partitioning; repartition afterwards if needed.
func ReKey[V any](s *SpatialDataset[V], f func(key stobject.STObject, v V) stobject.STObject) *SpatialDataset[V] {
	mapped := engine.Map(s.ds, func(kv Tuple[V]) Tuple[V] {
		return engine.NewPair(f(kv.Key, kv.Value), kv.Value)
	})
	return newSpatial(mapped, nil, s.rec)
}
