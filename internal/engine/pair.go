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
// Spark too) and therefore behaves as if cached, and it holds the only
// reference to its rows: nothing of d is retained.
//
// The shuffle decides how the rows lie in memory. It is a counting
// shuffle: the first pass computes every row's target once and counts,
// the output partitions are then cut at their final lengths from one
// allocation, and the second pass scatters the rows without a lock.
// Inside an output partition the rows keep source order (source
// partition, then position in it), so two shuffles of one input are
// element-for-element equal — positional structures built over a
// partition (tree entry IDs, persisted indexes) may rely on that.
func PartitionBy[K, V any](d *Dataset[Pair[K, V]], part Partitioner[K]) (*Dataset[Pair[K, V]], error) {
	n := part.NumPartitions()
	rec := d.recorder()
	// A task owns a contiguous run of source partitions, so the table of
	// write offsets is tasks × n however many partitions the source has.
	tasks := min(d.numPart, d.ctx.parallelism)
	run := func(g int) (lo, hi int) { return g * d.numPart / tasks, (g + 1) * d.numPart / tasks }
	src := make([][]Pair[K, V], d.numPart)
	targets := make([][]int32, d.numPart)
	offsets := make([][]int, tasks)
	err := d.ctx.RunJobRecorder(nil, rec, AllPartitions(tasks), func(g int) error {
		counts := make([]int, n)
		lo, hi := run(g)
		for p := lo; p < hi; p++ {
			rows, err := d.ComputePartition(p)
			if err != nil {
				return err
			}
			ts := make([]int32, len(rows))
			for i := range rows {
				t := part.PartitionFor(rows[i].Key)
				if t < 0 {
					t = 0
				} else if t >= n {
					t = n - 1
				}
				ts[i] = int32(t)
				counts[t]++
			}
			src[p], targets[p] = rows, ts
			rec.ShuffledRecords(int64(len(rows)))
		}
		offsets[g] = counts
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Turn the counts into each task's first write position per target,
	// and cut the partitions from one allocation, which the heap rounds
	// up to whole pages once rather than once per partition.
	rows := 0
	for _, ts := range targets {
		rows += len(ts)
	}
	all, at := make([]Pair[K, V], rows), 0
	out := make([][]Pair[K, V], n)
	for t := range out {
		total := 0
		for _, o := range offsets {
			o[t], total = total, total+o[t]
		}
		if total > 0 {
			out[t], at = all[at:at+total:at+total], at+total
		}
	}
	err = d.ctx.RunJobRecorder(nil, rec, AllPartitions(tasks), func(g int) error {
		next := offsets[g]
		lo, hi := run(g)
		for p := lo; p < hi; p++ {
			for i, t := range targets[p] {
				out[t][next[t]] = src[p][i]
				next[t]++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return FromPartitions(d.ctx, out), nil
}

// CountByKey returns the number of records per key.
func CountByKey[K comparable, V any](d *Dataset[Pair[K, V]]) (map[K]int64, error) {
	var mu sync.Mutex
	counts := make(map[K]int64)
	err := d.ctx.RunJobRecorder(nil, d.recorder(), AllPartitions(d.numPart), func(p int) error {
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
