package core

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"stark/internal/engine"
	"stark/internal/geom"
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
// guarantee. Both variants take a context and stop mid-scan once it
// is cancelled, so an abandoned /api query stops burning executors.

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

// knnOrder returns the non-empty partitions ordered ascending by the
// extent's distance to the query envelope q, a lower bound of the
// planar distance from any geometry inside q; with a nil extent func
// (no partitioner) every partition sorts at distance 0.
func knnOrder(extent func(i int) (geom.Envelope, bool), n int, q geom.Envelope) []partDist {
	order := make([]partDist, 0, n)
	for i := 0; i < n; i++ {
		d := 0.0
		if extent != nil {
			ext, ok := extent(i)
			if !ok {
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
// lower bound is valid (Euclidean metric with a partitioner).
func knnRounds[V any](ctx context.Context, ec *engine.Context, rec *engine.Recorder, order []partDist, k int,
	canPrune bool, scan func(p int) ([]NeighborResult[V], error)) ([]NeighborResult[V], error) {
	h := &maxHeap[V]{}
	heap.Init(h)
	width := ec.Parallelism()
	if width < 1 {
		width = 1
	}
	for start := 0; start < len(order); {
		// Stop when even the extent lower bound of the next-nearest
		// partition exceeds the current k-th distance: order is
		// ascending, so every remaining partition prunes too.
		if canPrune && h.Len() == k && order[start].dist > (*h)[0].Distance {
			rec.Add(engine.TasksSkipped, int64(len(order)-start))
			break
		}
		end := start + width
		if end > len(order) {
			end = len(order)
		}
		round := order[start:end]
		start = end

		locals := make([][]NeighborResult[V], len(round))
		idx := make([]int, len(round))
		for i := range idx {
			idx[i] = i
		}
		err := ec.RunJobRecorder(ctx, rec, idx, func(t int) error {
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

// KNN returns the k records nearest to q under df (nil selects the
// planar distance between q's geometry and each record's geometry).
// Results are sorted by ascending distance. Fewer than k records are
// returned when the dataset is smaller than k.
func (s *SpatialDataset[V]) KNN(q stobject.STObject, k int, df geom.DistanceFunc) ([]NeighborResult[V], error) {
	return s.KNNContext(context.Background(), q, k, df)
}

// KNNContext is KNN with cooperative cancellation: per-partition
// scans run through the task pool, no further partition is scheduled
// once ctx is done, and running scans abort within knnCheckEvery
// records.
func (s *SpatialDataset[V]) KNNContext(ctx context.Context, q stobject.STObject, k int, df geom.DistanceFunc) ([]NeighborResult[V], error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: kNN needs k >= 1, got %d", k)
	}
	var extent func(i int) (geom.Envelope, bool)
	if s.sp != nil {
		extent = func(i int) (geom.Envelope, bool) {
			ext := s.sp.Extent(i)
			return ext, !ext.IsEmpty()
		}
	}
	order := knnOrder(extent, s.ds.NumPartitions(), q.Envelope())
	rec := s.recorder()
	canPrune := s.sp != nil && df == nil
	return knnRounds(ctx, s.Context(), rec, order, k, canPrune, func(p int) ([]NeighborResult[V], error) {
		// Stream the partition through a local heap — the filter
		// chain upstream (if any) fuses into this scan.
		lh := &maxHeap[V]{}
		heap.Init(lh)
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

// KNN on an indexed dataset probes each relevant partition's R-tree
// with branch-and-bound and merges the per-partition results. The
// same extent-distance pruning as the scan version applies.
func (s *IndexedDataset[V]) KNN(q stobject.STObject, k int, df geom.DistanceFunc) ([]NeighborResult[V], error) {
	return s.KNNContext(context.Background(), q, k, df)
}

// KNNContext is KNN with cooperative cancellation and pooled
// per-partition index probes.
func (s *IndexedDataset[V]) KNNContext(ctx context.Context, q stobject.STObject, k int, df geom.DistanceFunc) ([]NeighborResult[V], error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: kNN needs k >= 1, got %d", k)
	}
	qc := q.Centroid()
	var extent func(i int) (geom.Envelope, bool)
	if s.sp != nil {
		extent = func(i int) (geom.Envelope, bool) {
			ext := s.sp.Extent(i)
			return ext, !ext.IsEmpty()
		}
	}
	order := knnOrder(extent, s.parts.NumPartitions(), q.Envelope())
	// The tree's branch-and-bound measures from a point, so it answers
	// for a point reference under the planar distance only.
	_, pointRef := q.Point()
	rec := s.recorder()
	canPrune := s.sp != nil && df == nil
	return knnRounds(ctx, s.Context(), rec, order, k, canPrune, func(p int) ([]NeighborResult[V], error) {
		ips, err := s.parts.ComputePartition(p)
		if err != nil {
			return nil, err
		}
		lh := &maxHeap[V]{}
		heap.Init(lh)
		for _, ip := range ips {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rec.Add(engine.IndexProbes, 1)
			var nbrs []neighborRaw
			if df == nil && pointRef {
				exact := func(id int32) float64 { return q.Distance(ip.Items[id].Key, nil) }
				for _, nb := range ip.Tree.KNN(qc.X, qc.Y, k, exact) {
					nbrs = append(nbrs, neighborRaw{id: nb.ID, dist: nb.Distance})
				}
			} else {
				// Custom metric or a non-point reference: the tree's
				// bound is not valid, scan the partition items.
				for i, kv := range ip.Items {
					nbrs = append(nbrs, neighborRaw{id: int32(i), dist: q.Distance(kv.Key, df)})
				}
			}
			rec.Add(engine.CandidatesRefined, int64(len(nbrs)))
			for _, nb := range nbrs {
				kv := ip.Items[nb.id]
				lh.offer(k, NeighborResult[V]{Key: kv.Key, Value: kv.Value, Distance: nb.dist})
			}
		}
		return *lh, nil
	})
}

type neighborRaw struct {
	id   int32
	dist float64
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
