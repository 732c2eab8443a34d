package core

import (
	"context"
	"fmt"

	"stark/internal/cluster"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stobject"
)

// This file exposes STARK's density-based clustering operator on
// SpatialDataset, delegating to the MR-DBSCAN-style implementation in
// internal/cluster. Clustering operates on the centroids of the
// spatial components, as the paper's point-event use cases do.

// ClusterOptions configures SpatialDataset.Cluster.
type ClusterOptions struct {
	// Eps is the DBSCAN ε radius; must be > 0.
	Eps float64
	// MinPts is the density threshold (counting the point itself).
	MinPts int
}

// ClusteredRecord pairs an input record with its cluster label
// (cluster.Noise for noise points).
type ClusteredRecord[V any] struct {
	Key     stobject.STObject
	Value   V
	Cluster int
}

// Cluster runs distributed DBSCAN over the dataset and returns one
// ClusteredRecord per input record plus the number of clusters found.
// The dataset's spatial partitioner is reused when it provides
// space-tiling bounds (grid or BSP); otherwise a BSP partitioner with a
// cost bound of n/(2·parallelism)+1 is derived from the data. The
// collect and the DBSCAN job run under ctx: once it is done no further
// task is scheduled and Cluster returns its error.
func (s *SpatialDataset[V]) Cluster(ctx context.Context, opts ClusterOptions) ([]ClusteredRecord[V], int, error) {
	if opts.Eps <= 0 {
		return nil, 0, fmt.Errorf("core: cluster eps must be > 0, got %v", opts.Eps)
	}
	if opts.MinPts < 1 {
		return nil, 0, fmt.Errorf("core: cluster minPts must be >= 1, got %d", opts.MinPts)
	}
	parts, err := s.ds.ComputePartitions(ctx, engine.AllPartitions(s.ds.NumPartitions()))
	if err != nil {
		return nil, 0, err
	}
	n := 0
	for _, rows := range parts {
		n += len(rows)
	}
	if n == 0 {
		return nil, 0, nil
	}
	tuples := make([]Tuple[V], 0, n)
	for _, rows := range parts {
		tuples = append(tuples, rows...)
	}
	points := make([]geom.Point, len(tuples))
	objs := make([]stobject.STObject, len(tuples))
	for i, kv := range tuples {
		points[i] = kv.Key.Centroid()
		objs[i] = kv.Key
	}

	// Pick a region-based partitioner.
	var regions partition.SpatialPartitioner
	switch p := s.sp.(type) {
	case *partition.Grid:
		regions = p
	case *partition.BSP:
		regions = p
	default:
		maxCost := len(tuples)/(2*s.ds.Context().Parallelism()) + 1
		bsp, err := partition.NewBSP(partition.BSPConfig{MaxCost: maxCost}, objs)
		if err != nil {
			return nil, 0, err
		}
		regions = bsp
	}
	home := make([]int, len(objs))
	for i, o := range objs {
		home[i] = regions.PartitionFor(o)
	}
	res, err := cluster.DBSCANDistributed(points, cluster.DistributedConfig{
		Eps:     opts.Eps,
		MinPts:  opts.MinPts,
		Regions: regions,
		Home:    home,
		Run: func(tasks []int, task func(t int) error) error {
			return s.ds.Context().RunJobRecorder(ctx, nil, tasks, task)
		},
	})
	if err != nil {
		return nil, 0, err
	}
	out := make([]ClusteredRecord[V], len(tuples))
	for i, kv := range tuples {
		out[i] = ClusteredRecord[V]{Key: kv.Key, Value: kv.Value, Cluster: res.Labels[i]}
	}
	return out, res.NumClusters, nil
}
