package engine

import (
	"sync"
)

// Pair is a key-value record. STARK datasets are Pair[STObject, V]:
// the spatio-temporal key plus an arbitrary payload, mirroring
// Spark's RDD[(K, V)].
type Pair[K, V any] struct {
	Key   K
	Value V
}

// NewPair builds a Pair.
func NewPair[K, V any](k K, v V) Pair[K, V] { return Pair[K, V]{Key: k, Value: v} }

// Partitioner assigns keys to partitions, mirroring Spark's
// org.apache.spark.Partitioner. STARK's spatial partitioners
// implement this interface over STObject keys.
type Partitioner[K any] interface {
	// NumPartitions returns the number of target partitions.
	NumPartitions() int
	// PartitionFor maps a key to its partition index in
	// [0, NumPartitions()).
	PartitionFor(key K) int
}

// FuncPartitioner adapts a function to the Partitioner interface.
type FuncPartitioner[K any] struct {
	N  int
	Fn func(key K) int
}

// NumPartitions implements Partitioner.
func (f FuncPartitioner[K]) NumPartitions() int { return f.N }

// PartitionFor implements Partitioner.
func (f FuncPartitioner[K]) PartitionFor(key K) int { return f.Fn(key) }

// PartitionBy shuffles the dataset so that every record lands in the
// partition its key maps to — the engine's wide transformation. The
// returned dataset is materialised eagerly (shuffles are barriers in
// Spark too) and therefore behaves as if cached.
func PartitionBy[K, V any](d *Dataset[Pair[K, V]], part Partitioner[K]) (*Dataset[Pair[K, V]], error) {
	n := part.NumPartitions()
	buckets := make([][]Pair[K, V], n)
	var mu sync.Mutex

	err := d.ctx.runJob(d.recorder(), AllPartitions(d.numPart), func(p int) error {
		// Route straight off the fused pipeline into local buckets
		// (no input slice), then merge under one lock per source task.
		local := make([][]Pair[K, V], n)
		var routed int64
		if err := d.EachPartition(p, func(kv Pair[K, V]) bool {
			t := part.PartitionFor(kv.Key)
			if t < 0 {
				t = 0
			} else if t >= n {
				t = n - 1
			}
			local[t] = append(local[t], kv)
			routed++
			return true
		}); err != nil {
			return err
		}
		d.recorder().ShuffledRecords(routed)
		mu.Lock()
		for t := 0; t < n; t++ {
			if len(local[t]) > 0 {
				buckets[t] = append(buckets[t], local[t]...)
			}
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return FromPartitions(d.ctx, buckets), nil
}

// FlatMapToPair re-keys a dataset; a convenience composing FlatMap
// over pair construction.
func FlatMapToPair[T, K, V any](d *Dataset[T], f func(T) []Pair[K, V]) *Dataset[Pair[K, V]] {
	return FlatMap(d, f)
}

// Keys projects the keys of a pair dataset.
func Keys[K, V any](d *Dataset[Pair[K, V]]) *Dataset[K] {
	return Map(d, func(p Pair[K, V]) K { return p.Key })
}

// Values projects the values of a pair dataset.
func Values[K, V any](d *Dataset[Pair[K, V]]) *Dataset[V] {
	return Map(d, func(p Pair[K, V]) V { return p.Value })
}

// MapValues transforms only the values, preserving keys and
// partitioning.
func MapValues[K, V, W any](d *Dataset[Pair[K, V]], f func(V) W) *Dataset[Pair[K, W]] {
	return Map(d, func(p Pair[K, V]) Pair[K, W] {
		return Pair[K, W]{Key: p.Key, Value: f(p.Value)}
	})
}

// GroupByKey gathers all values per comparable key. It shuffles by
// key hash into the same number of partitions as the input.
func GroupByKey[K comparable, V any](d *Dataset[Pair[K, V]], hash func(K) int) (*Dataset[Pair[K, []V]], error) {
	n := d.numPart
	if n == 0 {
		n = 1
	}
	shuffled, err := PartitionBy(d, FuncPartitioner[K]{N: n, Fn: func(k K) int {
		h := hash(k) % n
		if h < 0 {
			h += n
		}
		return h
	}})
	if err != nil {
		return nil, err
	}
	return MapPartitions(shuffled, func(_ int, in []Pair[K, V]) ([]Pair[K, []V], error) {
		groups := make(map[K][]V)
		var order []K
		for _, kv := range in {
			if _, ok := groups[kv.Key]; !ok {
				order = append(order, kv.Key)
			}
			groups[kv.Key] = append(groups[kv.Key], kv.Value)
		}
		out := make([]Pair[K, []V], 0, len(order))
		for _, k := range order {
			out = append(out, Pair[K, []V]{Key: k, Value: groups[k]})
		}
		return out, nil
	}), nil
}

// ReduceByKey combines values per comparable key with f.
func ReduceByKey[K comparable, V any](d *Dataset[Pair[K, V]], hash func(K) int, f func(a, b V) V) (*Dataset[Pair[K, V]], error) {
	grouped, err := GroupByKey(d, hash)
	if err != nil {
		return nil, err
	}
	return Map(grouped, func(p Pair[K, []V]) Pair[K, V] {
		acc := p.Value[0]
		for _, v := range p.Value[1:] {
			acc = f(acc, v)
		}
		return Pair[K, V]{Key: p.Key, Value: acc}
	}), nil
}

// CountByKey returns the number of records per key.
func CountByKey[K comparable, V any](d *Dataset[Pair[K, V]]) (map[K]int64, error) {
	var mu sync.Mutex
	counts := make(map[K]int64)
	err := d.ctx.runJob(d.recorder(), AllPartitions(d.numPart), func(p int) error {
		local := make(map[K]int64)
		if err := d.EachPartition(p, func(kv Pair[K, V]) bool {
			local[kv.Key]++
			return true
		}); err != nil {
			return err
		}
		mu.Lock()
		for k, c := range local {
			counts[k] += c
		}
		mu.Unlock()
		return nil
	})
	return counts, err
}

// CartesianPartitions runs fn over every pair of partitions of a and
// b — the building block for the naive (broadcast nested loop) join
// baselines. fn receives both partition slices and returns the join
// outputs for that partition pair; the results of all pairs are
// concatenated in an unspecified order.
func CartesianPartitions[A, B, R any](a *Dataset[A], b *Dataset[B], fn func(pa []A, pb []B) []R) ([]R, error) {
	type pairIdx struct{ i, j int }
	tasks := make([]pairIdx, 0, a.numPart*b.numPart)
	for i := 0; i < a.numPart; i++ {
		for j := 0; j < b.numPart; j++ {
			tasks = append(tasks, pairIdx{i, j})
		}
	}
	results := make([][]R, len(tasks))
	idxs := AllPartitions(len(tasks))
	err := a.ctx.runJob(a.recorder(), idxs, func(t int) error {
		pa, err := a.ComputePartition(tasks[t].i)
		if err != nil {
			return err
		}
		pb, err := b.ComputePartition(tasks[t].j)
		if err != nil {
			return err
		}
		results[t] = fn(pa, pb)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []R
	for _, r := range results {
		out = append(out, r...)
	}
	return out, nil
}
