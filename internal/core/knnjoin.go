package core

import (
	"container/heap"
	"fmt"
	"sort"

	"stark/internal/geom"
	"stark/internal/index"
)

// This file implements the k nearest neighbour join: for every record
// of the left dataset, the k nearest records of the right dataset.
// The right side is materialised once with one R-tree per partition;
// each left record then runs a bounded best-first search that visits
// right partitions in order of extent distance and stops as soon as
// the k-th neighbour is closer than the next partition's extent —
// the same pruning rule as the single-query kNN operator, amortised
// over the whole left side.

// KNNJoinRow is one result row: a left record, one of its neighbours,
// and their distance. Each left record yields up to k rows, ordered
// by ascending distance.
type KNNJoinRow[V, W any] struct {
	LeftKey  V
	RightKey W
	Distance float64
}

// KNNJoin computes, for every left record, its k nearest right
// records by planar distance between the spatial keys. Results are
// grouped per left record (k consecutive rows each) but the order of
// left records across partitions is unspecified.
func KNNJoin[V, W any](l *SpatialDataset[V], r *SpatialDataset[W], k int) ([]KNNJoinRow[V, W], error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: kNN join needs k >= 1, got %d", k)
	}
	// Materialise the right side once: per-partition records + trees
	// + extents.
	type rightPart struct {
		items []Tuple[W]
		tree  *index.RTree
		ext   geom.Envelope
	}
	nr := r.ds.NumPartitions()
	rights := make([]rightPart, nr)
	rec := l.recorder()
	err := r.Context().RunJobRecorder(nil, rec, allParts(nr), func(p int) error {
		items, err := r.ds.ComputePartition(p)
		if err != nil {
			return err
		}
		tree := index.New(index.DefaultOrder)
		ext := geom.EmptyEnvelope()
		for i, kv := range items {
			env := kv.Key.Envelope()
			_ = tree.Insert(env, int32(i))
			ext = ext.ExpandToInclude(env)
		}
		tree.Build()
		rights[p] = rightPart{items: items, tree: tree, ext: ext}
		return nil
	})
	if err != nil {
		return nil, err
	}

	nl := l.ds.NumPartitions()
	results := make([][]KNNJoinRow[V, W], nl)
	err = l.Context().RunJobRecorder(nil, rec, allParts(nl), func(p int) error {
		left, err := l.ds.ComputePartition(p)
		if err != nil {
			return err
		}
		var out []KNNJoinRow[V, W]
		// Partition visit order is recomputed per record; for records
		// in the same area the sort is nearly free (small nr).
		type pd struct {
			idx  int
			dist float64
		}
		order := make([]pd, 0, nr)
		for _, lkv := range left {
			c := lkv.Key.Centroid()
			order = order[:0]
			for i := 0; i < nr; i++ {
				if rights[i].ext.IsEmpty() {
					continue
				}
				order = append(order, pd{idx: i, dist: rights[i].ext.DistanceToPoint(c.X, c.Y)})
			}
			sort.Slice(order, func(i, j int) bool { return order[i].dist < order[j].dist })

			h := &maxHeap[W]{}
			heap.Init(h)
			for _, cand := range order {
				if h.Len() == k && cand.dist > (*h)[0].Distance {
					rec.TasksSkipped(1)
					continue
				}
				rp := rights[cand.idx]
				rec.IndexProbes(1)
				exact := func(id int32) float64 { return lkv.Key.Distance(rp.items[id].Key, nil) }
				for _, nb := range rp.tree.KNN(c.X, c.Y, k, exact) {
					kv := rp.items[nb.ID]
					h.offer(k, NeighborResult[W]{Key: kv.Key, Value: kv.Value, Distance: nb.Distance})
				}
			}
			// Emit ascending.
			tail := len(out)
			for h.Len() > 0 {
				nb := heap.Pop(h).(NeighborResult[W])
				out = append(out, KNNJoinRow[V, W]{LeftKey: lkv.Value, RightKey: nb.Value, Distance: nb.Distance})
			}
			reverseRows(out[tail:])
		}
		results[p] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	var all []KNNJoinRow[V, W]
	for _, rws := range results {
		all = append(all, rws...)
	}
	return all, nil
}

func reverseRows[V, W any](rows []KNNJoinRow[V, W]) {
	for i, j := 0, len(rows)-1; i < j; i, j = i+1, j-1 {
		rows[i], rows[j] = rows[j], rows[i]
	}
}

func allParts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
