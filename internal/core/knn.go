package core

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stobject"
)

// This file implements the k nearest neighbour operator. With a
// spatial partitioner the search probes partitions in order of their
// extent's distance to the query's envelope and stops as soon as the next
// partition's extent is farther than the current k-th neighbour — the
// pruning that makes partitioned kNN sub-linear in the number of
// partitions. Without a partitioner every partition is scanned.
//
// Partitions are processed in rounds of at most Parallelism tasks
// through the engine's task pool: within a round the per-partition
// scans (or index probes) run concurrently, and between rounds the
// merged heap re-checks the distance bound, preserving the pruning
// guarantee. The search takes a context and stops mid-scan once it is
// cancelled, so an abandoned /api query stops burning executors.

// knnCheckEvery is how many records a kNN partition scan processes
// between context cancellation checks.
const knnCheckEvery = 1024

// NeighborResult is one kNN result record with its distance.
type NeighborResult[V any] struct {
	Key      stobject.STObject
	Value    V
	Distance float64
}

// partDist orders partitions by a lower bound of their distance to
// the query point.
type partDist struct {
	idx  int
	dist float64
}

// knnOrder returns the non-empty partitions ordered ascending by their
// extent's distance to the query envelope q, a lower bound of the
// planar distance from any geometry inside q; with no partitioner every
// partition sorts at distance 0.
func knnOrder(sp partition.SpatialPartitioner, n int, q geom.Envelope) []partDist {
	order := make([]partDist, 0, n)
	for i := 0; i < n; i++ {
		d := 0.0
		if sp != nil {
			ext := sp.Extent(i)
			if ext.IsEmpty() {
				continue // empty partition can never contribute
			}
			d = ext.Distance(q)
		}
		order = append(order, partDist{idx: i, dist: d})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].dist < order[j].dist })
	return order
}

// offer keeps nb if it is among the k nearest the heap has seen.
func (h *maxHeap[V]) offer(k int, nb NeighborResult[V]) {
	if h.Len() < k {
		heap.Push(h, nb)
	} else if nb.Distance < (*h)[0].Distance {
		(*h)[0] = nb
		heap.Fix(h, 0)
	}
}

// drainHeap empties the heap into an ascending-distance slice.
func drainHeap[V any](h *maxHeap[V]) []NeighborResult[V] {
	out := make([]NeighborResult[V], h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(NeighborResult[V])
	}
	return out
}

// knnRounds drives the shared round loop: partitions are taken from
// order in rounds of the context's parallelism, each round's
// partitions are scanned concurrently by scan (returning the
// partition's local candidate list), and results merge into the heap
// between rounds. canPrune reports whether pruning by the extent
// lower bound is valid (Euclidean metric with a partitioner). k must be
// at least 1.
func knnRounds[V any](ctx context.Context, ec *engine.Context, rec *engine.Recorder, order []partDist, k int,
	canPrune bool, scan func(p int) ([]NeighborResult[V], error)) ([]NeighborResult[V], error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: kNN needs k >= 1, got %d", k)
	}
	h := &maxHeap[V]{}
	heap.Init(h)
	width := max(ec.Parallelism(), 1)
	for start := 0; start < len(order); {
		// Stop when even the extent lower bound of the next-nearest
		// partition exceeds the current k-th distance: order is
		// ascending, so every remaining partition prunes too.
		if canPrune && h.Len() == k && order[start].dist > (*h)[0].Distance {
			rec.Add(engine.TasksSkipped, int64(len(order)-start))
			break
		}
		end := min(start+width, len(order))
		round := order[start:end]
		start = end

		locals := make([][]NeighborResult[V], len(round))
		err := ec.RunJobRecorder(ctx, rec, engine.AllPartitions(len(round)), func(t int) error {
			nbrs, err := scan(round[t].idx)
			if err != nil {
				return err
			}
			locals[t] = nbrs
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, nbrs := range locals {
			for _, nb := range nbrs {
				h.offer(k, nb)
			}
		}
	}
	return drainHeap(h), nil
}

// KNNContext returns the k records nearest to q under df (nil selects
// the planar distance between q's geometry and each record's
// geometry), sorted by ascending distance; fewer than k when the
// dataset is smaller. For a point reference under the planar distance,
// a partition under its resident tree, or else, when order > 0 (live
// indexing), under a transient tree of that order, is searched with the
// tree's branch-and-bound; any other partition, and any other
// reference or metric, is scanned. Per-partition searches run through
// the task pool, no further partition is scheduled once ctx is done,
// and running scans abort within knnCheckEvery records.
func (s *SpatialDataset[V]) KNNContext(ctx context.Context, q stobject.STObject, k int, df geom.DistanceFunc, order int) ([]NeighborResult[V], error) {
	parts := knnOrder(s.sp, s.ds.NumPartitions(), q.Envelope())
	// The tree's branch-and-bound measures from a point, so it answers
	// for a point reference under the planar distance only.
	_, pointRef := q.Point()
	qc := q.Centroid()
	rec, laid := s.recorder(), s.resident()
	canPrune := s.sp != nil && df == nil
	return knnRounds(ctx, s.ds.Context(), rec, parts, k, canPrune, func(p int) ([]NeighborResult[V], error) {
		lh := &maxHeap[V]{}
		heap.Init(lh)
		if df == nil && pointRef {
			l, err := s.tree(laid, p, order, false)
			if err != nil {
				return nil, err
			}
			if l != nil {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				rec.Add(engine.IndexProbes, 1)
				var refined int64
				l.Tree.KNN(qc.X, qc.Y, k, func(pos int32) float64 { return q.Distance(l.Rows[pos].Key, nil) },
					func(pos int32, d float64) {
						refined++
						kv := &l.Rows[pos]
						lh.offer(k, NeighborResult[V]{Key: kv.Key, Value: kv.Value, Distance: d})
					})
				rec.Add(engine.CandidatesRefined, refined)
				return *lh, nil
			}
		}
		// Stream the partition through the local heap — the filter
		// chain upstream (if any) fuses into this scan.
		var scanned int64
		var ctxErr error
		err := s.ds.EachPartition(p, func(kv Tuple[V]) bool {
			scanned++
			if scanned%knnCheckEvery == 0 {
				if ctxErr = ctx.Err(); ctxErr != nil {
					return false
				}
			}
			lh.offer(k, NeighborResult[V]{Key: kv.Key, Value: kv.Value, Distance: q.Distance(kv.Key, df)})
			return true
		})
		rec.Add(engine.ElementsScanned, scanned)
		if err == nil {
			err = ctxErr
		}
		if err != nil {
			return nil, err
		}
		return *lh, nil
	})
}

// maxHeap keeps the k smallest distances with the largest on top.
type maxHeap[V any] []NeighborResult[V]

func (h maxHeap[V]) Len() int            { return len(h) }
func (h maxHeap[V]) Less(i, j int) bool  { return h[i].Distance > h[j].Distance }
func (h maxHeap[V]) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap[V]) Push(x interface{}) { *h = append(*h, x.(NeighborResult[V])) }
func (h *maxHeap[V]) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
