package core

import (
	"context"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/index"
	"stark/internal/partition"
	"stark/internal/stobject"
)

// Actions only the tests run: collect-style shortcuts over the lazy
// operators, which the batteries compare access paths and joins with.

// Collect materialises all records.
func (s *SpatialDataset[V]) Collect() ([]Tuple[V], error) { return s.ds.Collect() }

// Partitioner returns the spatial partitioner, or nil.
func (s *IndexedDataset[V]) Partitioner() partition.SpatialPartitioner { return s.sp }

// Filter probes the index with pruneEnv (or q's envelope when empty)
// over the partitions whose extent it touches, refines the candidates
// with an arbitrary spatio-temporal predicate and collects the
// matches.
func (s *IndexedDataset[V]) Filter(q stobject.STObject, pruneEnv geom.Envelope, pred stobject.Predicate) ([]Tuple[V], error) {
	env := q.Envelope()
	if !pruneEnv.IsEmpty() {
		env = pruneEnv
	}
	keep := func(kv Tuple[V]) bool { return pred(kv.Key, q) }
	return s.Probe(env, keep).CollectPartitions(s.relevantPartitions(env))
}

// Flat returns the records as a lazily flattened engine dataset,
// preserving the partition structure.
func (s *IndexedDataset[V]) Flat() *engine.Dataset[Tuple[V]] {
	return engine.FlatMap(s.parts, func(l *index.Laid[V]) []Tuple[V] { return l.Rows })
}

// Collect returns all records of the indexed dataset.
func (s *IndexedDataset[V]) Collect() ([]Tuple[V], error) {
	return s.Flat().Collect()
}

// Count returns the number of records.
func (s *IndexedDataset[V]) Count() (int64, error) {
	return s.Flat().Count()
}

// KNN returns the k records nearest to q under df (nil selects the
// planar distance between q's geometry and each record's geometry).
// Results are sorted by ascending distance. Fewer than k records are
// returned when the dataset is smaller than k.
func (s *SpatialDataset[V]) KNN(q stobject.STObject, k int, df geom.DistanceFunc) ([]NeighborResult[V], error) {
	return s.KNNContext(context.Background(), q, k, df)
}

// KNN on an indexed dataset probes each relevant partition's R-tree
// with branch-and-bound and merges the per-partition results. The
// same extent-distance pruning as the scan version applies.
func (s *IndexedDataset[V]) KNN(q stobject.STObject, k int, df geom.DistanceFunc) ([]NeighborResult[V], error) {
	return s.KNNContext(context.Background(), q, k, df)
}

// Join computes the spatio-temporal join of l and r: Collect over
// JoinStream.
func Join[V, W any](l *SpatialDataset[V], r *SpatialDataset[W], opts JoinOptions) ([]Tuple[JoinRow[V, W]], error) {
	ds, visit, err := JoinStream(l, nil, r, nil, opts)
	if err != nil {
		return nil, err
	}
	return ds.CollectPartitions(visit)
}

// relevantPartitions mirrors SpatialDataset.relevantPartitions.
func (s *IndexedDataset[V]) relevantPartitions(q geom.Envelope) []int {
	if s.sp == nil {
		return engine.AllPartitions(s.parts.NumPartitions())
	}
	visit := partition.PruneByEnvelope(s.sp, q)
	if pruned := s.parts.NumPartitions() - len(visit); pruned > 0 {
		s.recorder().Add(engine.TasksSkipped, int64(pruned))
	}
	return visit
}
