package core

import (
	"context"
	"fmt"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/index"
	"stark/internal/partition"
	"stark/internal/stobject"
)

// This file implements STARK's density-based clustering operator,
// DBSCAN, on the join operator. Its output is the one Gan & Tao
// (SIGMOD 2015) define: the clusters are the connected components of
// the core points under the ε-neighbour relation, and each border
// point joins the cluster of one of its core neighbours. The symmetric
// self join under pairs (joinStream) lists exactly that relation, one
// task per reachable pair of partitions as in MR-DBSCAN (He et al.,
// ICPADS 2011); a serial union–find over the listed pairs then merges
// what the tasks found. Clustering operates on the centroids of the
// keys, as the paper's point-event use cases do, and ignores time.

// Noise is the label of a record that is in no cluster.
const Noise = -1

// ClusterOptions configures SpatialDataset.Cluster.
type ClusterOptions struct {
	// Eps is the DBSCAN ε radius; must be > 0.
	Eps float64
	// MinPts is the density threshold (counting the point itself).
	MinPts int
}

// ClusteredRecord pairs an input record with its cluster label (Noise
// for noise points).
type ClusteredRecord[V any] struct {
	Key     stobject.STObject
	Value   V
	Cluster int
}

// Cluster runs DBSCAN over the dataset and returns one ClusteredRecord
// per input record, in partition order, plus the number of clusters
// found. The rows are numbered in that order and self-joined on the
// dataset's own partitioner (any partitioner: the join needs only its
// extents); without one, on a BSP with at most n/(2·parallelism)+1
// rows a cell. Two rows are ε-neighbours when their key centroids lie
// within Eps; a record with an empty key has no neighbour but itself.
// A border record takes the cluster of its least-numbered core
// neighbour and clusters are numbered in the order of their first core
// rows, so the labels do not depend on the parallelism. The collect and
// the join run under ctx: once it is done no further task is scheduled
// and Cluster returns its error.
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
	out := make([]ClusteredRecord[V], 0, n)
	home := make([]int32, 0, n) // the partition of each row of out
	for p, rows := range parts {
		for _, kv := range rows {
			out = append(out, ClusteredRecord[V]{Key: kv.Key, Value: kv.Value})
			home = append(home, int32(p))
		}
	}
	sp := s.sp
	if sp == nil {
		// Without extents the self join would probe every pair of
		// partitions.
		keys := make([]stobject.STObject, n)
		for i := range out {
			keys[i] = out[i].Key
		}
		bsp, err := partition.NewBSP(partition.BSPConfig{MaxCost: n/(2*s.ds.Context().Parallelism()) + 1}, keys)
		if err != nil {
			return nil, 0, err
		}
		for i := range keys {
			home[i] = int32(bsp.PartitionFor(keys[i]))
		}
		sp = bsp
	}

	// The self join's input: (key, row number), each row in its home
	// partition.
	size := make([]int, sp.NumPartitions())
	for _, h := range home {
		size[h]++
	}
	idParts := make([][]Tuple[int32], len(size))
	for p, k := range size {
		idParts[p] = make([]Tuple[int32], 0, k)
	}
	for i, h := range home {
		idParts[h] = append(idParts[h], engine.NewPair(out[i].Key, int32(i)))
	}
	ids := newSpatial(engine.FromPartitions(s.ds.Context(), idParts), sp, s.rec)
	all := engine.AllPartitions(len(idParts))
	epsSq := opts.Eps * opts.Eps
	pairs, visit, err := joinStream(ids, all, ids, all, JoinOptions{
		Predicate: func(a, b stobject.STObject) bool {
			return geom.SquaredEuclidean(a.Centroid(), b.Centroid()) <= epsSq
		},
		IndexOrder:     index.DefaultOrder,
		ProbeExpansion: opts.Eps,
		Report:         &JoinReport{Strategy: JoinPairs},
	}, func(a, b Tuple[int32]) [2]int32 { return [2]int32{a.Value, b.Value} })
	if err != nil {
		return nil, 0, err
	}
	// Each unordered pair of distinct rows, once.
	edges, err := pairs.Filter(func(e [2]int32) bool { return e[0] < e[1] }).ComputePartitions(ctx, visit)
	if err != nil {
		return nil, 0, err
	}
	labels, k := dbscanLabels(n, edges, opts.MinPts)
	for i := range out {
		out[i].Cluster = labels[i]
	}
	return out, k, nil
}

// dbscanLabels labels n rows from their ε-neighbour pairs: a row with
// at least minPts-1 neighbours is core, core rows that are neighbours
// share a cluster, a border row joins its least-numbered core
// neighbour's cluster and every other row is Noise. Clusters are
// numbered in the order of their least-numbered core rows.
func dbscanLabels(n int, edges [][][2]int32, minPts int) ([]int, int) {
	degree := make([]int32, n)
	for _, es := range edges {
		for _, e := range es {
			degree[e[0]]++
			degree[e[1]]++
		}
	}
	isCore := func(i int32) bool { return int(degree[i])+1 >= minPts }
	// parent is a union–find forest over the core rows, each root its
	// tree's least row. A border row's entry is its least-numbered core
	// neighbour; a noise row's is itself.
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, es := range edges {
		for _, e := range es {
			a, b := e[0], e[1]
			switch ca, cb := isCore(a), isCore(b); {
			case ca && cb:
				ra, rb := find(a), find(b)
				parent[max(ra, rb)] = min(ra, rb)
			case ca && (parent[b] == b || a < parent[b]):
				parent[b] = a
			case cb && (parent[a] == a || b < parent[a]):
				parent[a] = b
			}
		}
	}
	labels := make([]int, n)
	next := 0
	for i := range labels {
		labels[i] = Noise
		if !isCore(int32(i)) {
			continue
		}
		if r := find(int32(i)); r == int32(i) {
			labels[i] = next
			next++
		} else {
			labels[i] = labels[r]
		}
	}
	for i, c := range parent {
		if !isCore(int32(i)) && c != int32(i) {
			labels[i] = labels[c]
		}
	}
	return labels, next
}
