package core

import (
	"context"

	"stark/internal/geom"
	"stark/internal/stobject"
)

// Actions only the tests run: collect-style shortcuts over the lazy
// operators, which the batteries compare access paths and joins with.

// Collect materialises all records.
func (s *SpatialDataset[V]) Collect() ([]Tuple[V], error) { return s.ds.Collect() }

// indexed is the index side of a dataset: its filters probe the
// partitions' trees, the resident ones or, at order > 0, transient ones
// of that order (live indexing), and so does its kNN.
type indexed[V any] struct {
	*SpatialDataset[V]
	order int
}

// Filter probes the trees with pruneEnv (or q's envelope when empty)
// over the partitions whose extent it touches, refines the candidates
// with an arbitrary spatio-temporal predicate and collects the
// matches.
func (s indexed[V]) Filter(q stobject.STObject, pruneEnv geom.Envelope, pred stobject.Predicate) ([]Tuple[V], error) {
	env := q.Envelope()
	if !pruneEnv.IsEmpty() {
		env = pruneEnv
	}
	keep := func(kv Tuple[V]) bool { return pred(kv.Key, q) }
	return s.Probe(s.order, env, keep).CollectPartitions(s.relevantPartitions(env))
}

// KNN is KNNContext at the view's order.
func (s indexed[V]) KNN(q stobject.STObject, k int, df geom.DistanceFunc) ([]NeighborResult[V], error) {
	return s.KNNContext(context.Background(), q, k, df, s.order)
}

// KNN returns the k records nearest to q under df (nil selects the
// planar distance between q's geometry and each record's geometry),
// searching resident trees and scanning any other partition. Results
// are sorted by ascending distance. Fewer than k records are returned
// when the dataset is smaller than k.
func (s *SpatialDataset[V]) KNN(q stobject.STObject, k int, df geom.DistanceFunc) ([]NeighborResult[V], error) {
	return s.KNNContext(context.Background(), q, k, df, 0)
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
