package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// Dataset is an immutable, lazily evaluated, partitioned collection —
// the engine's RDD. A Dataset records how to compute each of its
// partitions from its parents (its lineage); nothing is materialised
// until an action (Collect, Count, Reduce, Foreach) runs a job.
//
// The lineage is a pull-based streaming plan: each(p, yield) drives
// every element of partition p through yield, one at a time. A chain
// of narrow transformations (Map, Filter, FlatMap, Sample) therefore
// compiles into a single fused loop per partition with no intermediate
// slices — the per-partition pipeline execution Spark gives STARK for
// free. Fusion breaks only at explicit materialisation points: Cache,
// shuffles (PartitionBy), and MapPartitions, which needs the whole
// partition as a slice. yield returning false stops the stream
// mid-partition, so actions like Take, First and Exists terminate
// early without computing elements they will never consume.
//
// Transformations that change the element type are package functions
// (Map, FlatMap, MapPartitions) because Go methods cannot introduce
// type parameters; same-type transformations (Filter, Union, Sample)
// are methods.
type Dataset[T any] struct {
	ctx     *Context
	name    string
	numPart int
	// id is the lineage node's generation number, unique across the
	// process (see Dataset.ID).
	id int64

	// each streams partition p through yield; it returns early (nil)
	// when yield returns false.
	each func(p int, yield func(T) bool) error
	// source, when non-nil, materialises partition p without running
	// the streaming plan — set for datasets that already hold their
	// partitions as slices (Parallelize, FromPartitions), so
	// ComputePartition on them stays zero-copy.
	source func(p int) ([]T, error)
	// hint, when non-nil, returns an upper bound on the element count
	// of partition p (or a negative value when unknown). Narrow
	// count-preserving or shrinking transformations propagate it so
	// materialisation can preallocate instead of growing by appends.
	hint func(p int) int

	// rec, when non-nil, is the recorder the dataset's actions charge
	// their tasks to (see WithRecorder); nil selects the context's
	// root recorder. Narrow transformations propagate it.
	rec *Recorder

	// cacheOn may be read by ComputePartition/EachPartition without
	// holding cacheMu (the hot path of every task), so it is atomic;
	// the cached/cachedOK slices are only touched under cacheMu.
	cacheMu  sync.Mutex
	cacheOn  atomic.Bool
	cached   [][]T
	cachedOK []bool
}

// datasetGen issues process-wide unique lineage node IDs. The counter
// never resets, so a dataset built later always has a larger ID: the
// ID doubles as a generation number for consumers that key caches on
// dataset identity (re-building a source invalidates by construction).
var datasetGen atomic.Int64

// newStream wires a lineage node from a streaming plan.
func newStream[T any](ctx *Context, name string, numPart int, each func(p int, yield func(T) bool) error) *Dataset[T] {
	return &Dataset[T]{ctx: ctx, name: name, numPart: numPart, id: datasetGen.Add(1), each: each}
}

// NewStream builds a dataset directly from a streaming partition plan
// — the extension point operators outside the engine use to splice
// custom fused stages (counting scans, probe pipelines) into a
// lineage. each must stream partition p through yield and stop as
// soon as yield returns false.
func NewStream[T any](ctx *Context, name string, numPart int, each func(p int, yield func(T) bool) error) *Dataset[T] {
	return newStream(ctx, name, numPart, each)
}

// newDataset wires a lineage node from a slice-producing compute
// function — the pre-fusion representation, kept for sources and
// tests that naturally produce whole partitions.
func newDataset[T any](ctx *Context, name string, numPart int, compute func(p int) ([]T, error)) *Dataset[T] {
	return newSource(ctx, name, numPart, compute)
}

// newSource wires a lineage node whose partitions already exist as
// slices; the streaming plan iterates them.
func newSource[T any](ctx *Context, name string, numPart int, source func(p int) ([]T, error)) *Dataset[T] {
	d := &Dataset[T]{ctx: ctx, name: name, numPart: numPart, id: datasetGen.Add(1), source: source}
	d.each = func(p int, yield func(T) bool) error {
		in, err := source(p)
		if err != nil {
			return err
		}
		for _, v := range in {
			if !yield(v) {
				return nil
			}
		}
		return nil
	}
	return d
}

// Parallelize distributes data across numPartitions partitions as
// contiguous index ranges — Spark's default slicing — so element
// order and locality are preserved within each partition.
func Parallelize[T any](ctx *Context, data []T, numPartitions int) *Dataset[T] {
	if numPartitions <= 0 {
		numPartitions = ctx.parallelism
	}
	n := len(data)
	np := numPartitions
	d := newSource(ctx, "parallelize", np, func(p int) ([]T, error) {
		lo := p * n / np
		hi := (p + 1) * n / np
		return data[lo:hi], nil
	})
	d.hint = func(p int) int { return (p+1)*n/np - p*n/np }
	return d
}

// FromPartitions builds a dataset whose partitions are exactly the
// given slices. The slices are not copied.
func FromPartitions[T any](ctx *Context, parts [][]T) *Dataset[T] {
	d := newSource(ctx, "fromPartitions", len(parts), func(p int) ([]T, error) {
		return parts[p], nil
	})
	d.hint = func(p int) int { return len(parts[p]) }
	return d
}

// Context returns the owning context.
func (d *Dataset[T]) Context() *Context { return d.ctx }

// Name returns the lineage node name, for diagnostics.
func (d *Dataset[T]) Name() string { return d.name }

// ID returns the process-wide unique generation number of this
// lineage node. Two Dataset values share an ID only when they are the
// same node; re-creating a logically identical dataset yields a fresh
// ID. Result caches key on it so re-registering a dataset invalidates
// every cached entry by construction.
func (d *Dataset[T]) ID() int64 { return d.id }

// NumPartitions returns the partition count.
func (d *Dataset[T]) NumPartitions() int { return d.numPart }

// recorder returns the recorder actions on this dataset charge, the
// context's root recorder unless WithRecorder installed another.
func (d *Dataset[T]) recorder() *Recorder {
	if d.rec != nil {
		return d.rec
	}
	return &d.ctx.rootRec
}

// WithRecorder returns a view of the dataset whose actions charge
// their tasks to rec instead of the context's root recorder. The view
// shares the receiver's lineage ID and — by delegating through the
// parent's accessor methods — its cache state and zero-copy source,
// so it is purely an attribution overlay: same partitions, same
// compute-once semantics, different ledger. A nil rec returns the
// receiver unchanged.
func (d *Dataset[T]) WithRecorder(rec *Recorder) *Dataset[T] {
	if rec == nil || d.rec == rec {
		return d
	}
	v := &Dataset[T]{
		ctx:     d.ctx,
		name:    d.name,
		numPart: d.numPart,
		id:      d.id,
		rec:     rec,
		each:    d.EachPartition,
		hint:    d.partitionHint,
	}
	if d.source != nil {
		// Preserve the zero-copy materialisation path (and the chunked
		// window iteration it enables) through the parent's cache.
		v.source = d.ComputePartition
	}
	return v
}

// maxMaterialiseHint caps how much capacity a size hint may
// preallocate, bounding transient overcommit when a highly selective
// filter reports its parent's size as the upper bound.
const maxMaterialiseHint = 1 << 16

// partitionHint returns the upper-bound size of partition p, or -1
// when unknown.
func (d *Dataset[T]) partitionHint(p int) int {
	if d.hint == nil {
		return -1
	}
	return d.hint(p)
}

// materialise runs the partition into a slice, preferring the
// zero-copy source when the dataset holds its partitions already.
func (d *Dataset[T]) materialise(p int) ([]T, error) {
	if d.source != nil {
		return d.source(p)
	}
	var out []T
	if h := d.partitionHint(p); h > 0 {
		if h > maxMaterialiseHint {
			h = maxMaterialiseHint
		}
		out = make([]T, 0, h)
	}
	err := d.each(p, func(v T) bool {
		out = append(out, v)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ComputePartition materialises one partition, honouring the cache.
// For a chain of narrow transformations this runs the whole fused
// pipeline into a single output slice — no intermediates.
func (d *Dataset[T]) ComputePartition(p int) ([]T, error) {
	if p < 0 || p >= d.numPart {
		return nil, fmt.Errorf("engine: partition %d out of range [0, %d)", p, d.numPart)
	}
	if !d.cacheOn.Load() {
		return d.materialise(p)
	}
	d.cacheMu.Lock()
	if d.cachedOK == nil {
		// Unpersist raced with the flag read; behave as uncached.
		d.cacheMu.Unlock()
		return d.materialise(p)
	}
	if d.cachedOK[p] {
		out := d.cached[p]
		d.cacheMu.Unlock()
		return out, nil
	}
	d.cacheMu.Unlock()
	out, err := d.materialise(p)
	if err != nil {
		return nil, err
	}
	d.cacheMu.Lock()
	if d.cachedOK != nil {
		d.cached[p] = out
		d.cachedOK[p] = true
	}
	d.cacheMu.Unlock()
	return out, nil
}

// EachPartition streams partition p through yield, stopping as soon
// as yield returns false. On an uncached dataset this pulls elements
// straight through the fused pipeline; on a cached one the partition
// is materialised (at most once) and the cached slice is replayed, so
// caching keeps its compute-once guarantee and remains a fusion
// barrier.
func (d *Dataset[T]) EachPartition(p int, yield func(T) bool) error {
	if p < 0 || p >= d.numPart {
		return fmt.Errorf("engine: partition %d out of range [0, %d)", p, d.numPart)
	}
	if !d.cacheOn.Load() {
		return d.each(p, yield)
	}
	out, err := d.ComputePartition(p)
	if err != nil {
		return err
	}
	for _, v := range out {
		if !yield(v) {
			return nil
		}
	}
	return nil
}

// EachPartitionChunks streams partition p through yield in slices of
// at most chunk elements, stopping when yield returns false. Sourced
// and cached datasets hand out zero-copy windows of their backing
// slice — callers must treat chunks as read-only and valid only until
// the next yield; other datasets fall back to accumulating chunk-sized
// buffers from the fused element stream. Batch consumers (the columnar
// scan kernels) use this to sweep columns without a per-element call.
func (d *Dataset[T]) EachPartitionChunks(p int, chunk int, yield func([]T) bool) error {
	if p < 0 || p >= d.numPart {
		return fmt.Errorf("engine: partition %d out of range [0, %d)", p, d.numPart)
	}
	if chunk <= 0 {
		chunk = 1 << 12
	}
	if d.source != nil || d.cacheOn.Load() {
		out, err := d.ComputePartition(p)
		if err != nil {
			return err
		}
		for len(out) > 0 {
			n := chunk
			if n > len(out) {
				n = len(out)
			}
			if !yield(out[:n]) {
				return nil
			}
			out = out[n:]
		}
		return nil
	}
	buf := make([]T, 0, chunk)
	stopped := false
	err := d.each(p, func(v T) bool {
		buf = append(buf, v)
		if len(buf) == chunk {
			if !yield(buf) {
				stopped = true
				return false
			}
			buf = buf[:0]
		}
		return true
	})
	if err != nil {
		return err
	}
	if !stopped && len(buf) > 0 {
		yield(buf)
	}
	return nil
}

// Cache marks the dataset for materialisation: each partition is
// computed at most once and retained in memory, mirroring
// RDD.cache(). It returns the receiver for chaining. Cache is a
// fusion barrier: downstream pipelines stream from the cached slices
// instead of re-running the upstream plan.
func (d *Dataset[T]) Cache() *Dataset[T] {
	d.cacheMu.Lock()
	defer d.cacheMu.Unlock()
	if !d.cacheOn.Load() {
		d.cached = make([][]T, d.numPart)
		d.cachedOK = make([]bool, d.numPart)
		d.cacheOn.Store(true)
	}
	return d
}

// Unpersist drops cached partitions and disables caching.
func (d *Dataset[T]) Unpersist() {
	d.cacheMu.Lock()
	defer d.cacheMu.Unlock()
	d.cacheOn.Store(false)
	d.cached = nil
	d.cachedOK = nil
}

// ---- Narrow transformations ----
// Each one wraps the parent's streaming plan: chains fuse into one
// loop per partition.

// Map applies f to every element.
func Map[T, U any](d *Dataset[T], f func(T) U) *Dataset[U] {
	m := newStream(d.ctx, d.name+".map", d.numPart, func(p int, yield func(U) bool) error {
		return d.EachPartition(p, func(v T) bool {
			return yield(f(v))
		})
	})
	m.hint = d.partitionHint // count-preserving
	m.rec = d.rec
	return m
}

// FlatMap applies f to every element and concatenates the results.
func FlatMap[T, U any](d *Dataset[T], f func(T) []U) *Dataset[U] {
	m := newStream(d.ctx, d.name+".flatMap", d.numPart, func(p int, yield func(U) bool) error {
		return d.EachPartition(p, func(v T) bool {
			for _, u := range f(v) {
				if !yield(u) {
					return false
				}
			}
			return true
		})
	})
	m.rec = d.rec
	return m
}

// MapPartitions transforms whole partitions at once; idx is the
// partition index (Spark's mapPartitionsWithIndex). It is a
// materialisation point: the parent partition is computed into a
// slice before f runs (f needs random access), and fusion restarts
// downstream of the result.
func MapPartitions[T, U any](d *Dataset[T], f func(idx int, in []T) ([]U, error)) *Dataset[U] {
	m := newStream(d.ctx, d.name+".mapPartitions", d.numPart, func(p int, yield func(U) bool) error {
		in, err := d.ComputePartition(p)
		if err != nil {
			return err
		}
		out, err := f(p, in)
		if err != nil {
			return err
		}
		for _, v := range out {
			if !yield(v) {
				return nil
			}
		}
		return nil
	})
	m.rec = d.rec
	return m
}

// Filter keeps the elements for which pred is true.
func (d *Dataset[T]) Filter(pred func(T) bool) *Dataset[T] {
	f := newStream(d.ctx, d.name+".filter", d.numPart, func(p int, yield func(T) bool) error {
		return d.EachPartition(p, func(v T) bool {
			if !pred(v) {
				return true
			}
			return yield(v)
		})
	})
	f.hint = d.partitionHint // parent size stays an upper bound
	f.rec = d.rec
	return f
}

// Union concatenates two datasets partition-wise (their partitions
// are kept side by side, as in RDD.union).
func (d *Dataset[T]) Union(o *Dataset[T]) *Dataset[T] {
	n1 := d.numPart
	u := newStream(d.ctx, d.name+".union", n1+o.numPart, func(p int, yield func(T) bool) error {
		if p < n1 {
			return d.EachPartition(p, yield)
		}
		return o.EachPartition(p-n1, yield)
	})
	u.hint = func(p int) int {
		if p < n1 {
			return d.partitionHint(p)
		}
		return o.partitionHint(p - n1)
	}
	u.rec = d.rec
	return u
}

// Sample returns a dataset keeping each element with probability
// fraction, deterministically derived from seed and the partition
// index.
func (d *Dataset[T]) Sample(fraction float64, seed int64) *Dataset[T] {
	s := newStream(d.ctx, d.name+".sample", d.numPart, func(p int, yield func(T) bool) error {
		rng := rand.New(rand.NewSource(seed + int64(p)*2654435761))
		return d.EachPartition(p, func(v T) bool {
			if rng.Float64() >= fraction {
				return true
			}
			return yield(v)
		})
	})
	s.hint = d.partitionHint // parent size stays an upper bound
	s.rec = d.rec
	return s
}

// Coalesce reduces the partition count to n without a shuffle by
// concatenating ranges of parent partitions.
func (d *Dataset[T]) Coalesce(n int) *Dataset[T] {
	if n <= 0 || n >= d.numPart {
		return d
	}
	old := d.numPart
	c := newStream(d.ctx, d.name+".coalesce", n, func(p int, yield func(T) bool) error {
		lo := p * old / n
		hi := (p + 1) * old / n
		for i := lo; i < hi; i++ {
			stopped := false
			err := d.EachPartition(i, func(v T) bool {
				if !yield(v) {
					stopped = true
					return false
				}
				return true
			})
			if err != nil || stopped {
				return err
			}
		}
		return nil
	})
	c.rec = d.rec
	return c
}

// ---- Actions ----

// Collect materialises every partition (in parallel) and returns the
// concatenated elements in partition order.
func (d *Dataset[T]) Collect() ([]T, error) {
	return d.CollectPartitions(AllPartitions(d.numPart))
}

// ComputePartitions materialises the listed partitions in parallel and
// returns them under their partition index, nil for the unlisted ones.
// Sourced and cached datasets hand out their own slices (zero-copy, as
// in ComputePartition): treat the result as read-only.
func (d *Dataset[T]) ComputePartitions(parts []int) ([][]T, error) {
	results := make([][]T, d.numPart)
	err := d.ctx.runJob(d.recorder(), parts, func(p int) error {
		out, err := d.ComputePartition(p)
		results[p] = out
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// CollectPartitions materialises only the listed partitions. Spatial
// operators use this to execute partition-pruned queries: partitions
// whose bounds cannot match are never scheduled.
func (d *Dataset[T]) CollectPartitions(parts []int) ([]T, error) {
	results, err := d.ComputePartitions(parts)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, r := range results {
		total += len(r)
	}
	if total == 0 {
		return nil, nil
	}
	all := make([]T, 0, total)
	for _, r := range results {
		all = append(all, r...)
	}
	return all, nil
}

// Count returns the number of elements. No partition is materialised:
// elements stream through the fused pipeline and only a counter
// survives.
func (d *Dataset[T]) Count() (int64, error) {
	return d.CountPartitions(AllPartitions(d.numPart))
}

// CountPartitions counts the elements of only the listed partitions —
// the counting counterpart of CollectPartitions, used by
// partition-pruned queries.
func (d *Dataset[T]) CountPartitions(parts []int) (int64, error) {
	var total atomic.Int64
	err := d.ctx.runJob(d.recorder(), parts, func(p int) error {
		var local int64
		if err := d.EachPartition(p, func(T) bool {
			local++
			return true
		}); err != nil {
			return err
		}
		total.Add(local)
		return nil
	})
	return total.Load(), err
}

// Reduce combines all elements with f, streaming each partition
// through a local accumulator; it returns false when the dataset is
// empty. f must be associative and commutative, as in Spark.
func (d *Dataset[T]) Reduce(f func(a, b T) T) (T, bool, error) {
	return d.ReducePartitions(AllPartitions(d.numPart), f)
}

// ReducePartitions is Reduce restricted to the listed partitions —
// the reducing counterpart of CollectPartitions for partition-pruned
// queries.
func (d *Dataset[T]) ReducePartitions(parts []int, f func(a, b T) T) (T, bool, error) {
	var (
		mu   sync.Mutex
		acc  T
		have bool
	)
	err := d.ctx.runJob(d.recorder(), parts, func(p int) error {
		var (
			local     T
			haveLocal bool
		)
		if err := d.EachPartition(p, func(v T) bool {
			if haveLocal {
				local = f(local, v)
			} else {
				local, haveLocal = v, true
			}
			return true
		}); err != nil {
			return err
		}
		if !haveLocal {
			return nil
		}
		mu.Lock()
		if have {
			acc = f(acc, local)
		} else {
			acc, have = local, true
		}
		mu.Unlock()
		return nil
	})
	return acc, have, err
}

// Foreach runs fn on every element, partition-parallel, streaming —
// no partition is materialised.
func (d *Dataset[T]) Foreach(fn func(T)) error {
	return d.ForeachPartitions(AllPartitions(d.numPart), fn)
}

// ForeachPartitions is Foreach restricted to the listed partitions —
// the side-effecting counterpart of CollectPartitions for
// partition-pruned queries.
func (d *Dataset[T]) ForeachPartitions(parts []int, fn func(T)) error {
	return d.ctx.runJob(d.recorder(), parts, func(p int) error {
		return d.EachPartition(p, func(v T) bool {
			fn(v)
			return true
		})
	})
}

// Take returns up to n elements, scanning partitions in order. The
// scan short-circuits: as soon as n elements are gathered the current
// partition's pipeline stops mid-stream and no further partition is
// touched.
func (d *Dataset[T]) Take(n int) ([]T, error) {
	return d.TakePartitions(AllPartitions(d.numPart), n)
}

// TakePartitions is Take restricted to the listed partitions, in the
// order given — the short-circuiting counterpart of CollectPartitions
// for partition-pruned queries.
func (d *Dataset[T]) TakePartitions(parts []int, n int) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	// n is caller-controlled ("take a lot" may mean "everything"), so
	// cap the speculative preallocation like materialise does.
	capHint := n
	if capHint > maxMaterialiseHint {
		capHint = maxMaterialiseHint
	}
	out := make([]T, 0, capHint)
	for _, p := range parts {
		if err := d.EachPartition(p, func(v T) bool {
			out = append(out, v)
			return len(out) < n
		}); err != nil {
			return nil, err
		}
		if len(out) >= n {
			break
		}
	}
	return out, nil
}

// First returns the first element in partition order, streaming and
// stopping at the very first element produced; ok is false when the
// dataset is empty.
func (d *Dataset[T]) First() (T, bool, error) {
	var (
		first T
		found bool
	)
	for p := 0; p < d.numPart && !found; p++ {
		if err := d.EachPartition(p, func(v T) bool {
			first, found = v, true
			return false
		}); err != nil {
			var zero T
			return zero, false, err
		}
	}
	return first, found, nil
}

// Exists reports whether any element satisfies pred. Partitions are
// scanned in parallel; every task stops mid-stream as soon as one
// finds a match.
func (d *Dataset[T]) Exists(pred func(T) bool) (bool, error) {
	return d.ExistsPartitions(AllPartitions(d.numPart), pred)
}

// ExistsPartitions is Exists restricted to the listed partitions,
// keeping the parallel short-circuiting scan for partition-pruned
// queries.
func (d *Dataset[T]) ExistsPartitions(parts []int, pred func(T) bool) (bool, error) {
	var found atomic.Bool
	err := d.ctx.runJob(d.recorder(), parts, func(p int) error {
		return d.EachPartition(p, func(v T) bool {
			if found.Load() {
				return false
			}
			if pred(v) {
				found.Store(true)
				return false
			}
			return true
		})
	})
	return found.Load(), err
}

// Stream drives every element through fn sequentially, in partition
// order, without materialising anything; fn returning false stops the
// whole scan. This is the entry point for consumers that need ordered
// streaming output (e.g. encoding rows onto a network socket).
func (d *Dataset[T]) Stream(fn func(T) bool) error {
	return d.StreamPartitions(AllPartitions(d.numPart), fn)
}

// StreamPartitions is Stream restricted to the listed partitions, in
// the order given — the streaming counterpart of CollectPartitions
// for partition-pruned queries.
func (d *Dataset[T]) StreamPartitions(parts []int, fn func(T) bool) error {
	stopped := false
	for _, p := range parts {
		if err := d.EachPartition(p, func(v T) bool {
			if !fn(v) {
				stopped = true
				return false
			}
			return true
		}); err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}

// StreamPartitionsParallelContext delivers the rows of the listed
// partitions to fn sequentially, in the given partition order, while
// computing the partitions in parallel: partitions are processed in
// windows of `width` (<= 0 selects the context parallelism), each
// window's pipelines run as one parallel job, and the buffered results
// are replayed in order. Compared to StreamPartitions this trades
// bounded buffering (at most one window of partitions) for
// partition-parallel compute — the right default for network consumers
// whose per-row cost is small relative to the scan. fn returning false
// stops the stream; windows past the current one are never computed.
// Cancellation is cooperative: once ctx is done no further window is
// computed, no further row is delivered, and the stream returns
// ctx.Err() — the hook a server uses to stop a scan when the client
// hangs up or a deadline fires. A nil ctx streams to completion.
func (d *Dataset[T]) StreamPartitionsParallelContext(ctx context.Context, parts []int, width int, fn func(T) bool) error {
	return streamWindows(ctx, d, parts, width, d.ComputePartition, func(rows []T) bool {
		for _, v := range rows {
			if !fn(v) {
				return false
			}
		}
		return true
	})
}

// StreamPartitionsEncodedContext is StreamPartitionsParallelContext
// for consumers that want bytes, not rows: each partition task folds
// its rows through enc (append the encoding of v to dst, return the
// grown slice) straight off the fused pipeline into one buffer, so no
// slice of rows is materialised and the encoding runs on every
// executor instead of on the consumer's goroutine (enc must be safe
// for concurrent calls). sink receives each partition's bytes and row
// count sequentially, in the given partition order; partitions without
// rows are skipped. The chunk is recycled as soon as sink returns —
// copy what must outlive the call. sink returning false stops the
// stream, an enc error fails it, and cancellation works as in
// StreamPartitionsParallelContext; in all three cases windows past the
// current one are never computed.
func (d *Dataset[T]) StreamPartitionsEncodedContext(ctx context.Context, parts []int, width int,
	enc func(dst []byte, v T) ([]byte, error), sink func(chunk []byte, rows int) bool) error {
	type encoded struct {
		buf  *[]byte
		rows int
	}
	return streamWindows(ctx, d, parts, width, func(p int) (encoded, error) {
		out := encoded{buf: chunkPool.Get().(*[]byte)}
		buf := (*out.buf)[:0]
		var encErr error
		err := d.EachPartition(p, func(v T) bool {
			if buf, encErr = enc(buf, v); encErr != nil {
				return false
			}
			out.rows++
			return true
		})
		*out.buf = buf
		if err == nil {
			err = encErr
		}
		if err != nil {
			putChunk(out.buf)
			return encoded{}, err
		}
		return out, nil
	}, func(e encoded) bool {
		more := e.rows == 0 || sink(*e.buf, e.rows)
		putChunk(e.buf)
		return more
	})
}

// chunkPool recycles the per-partition buffers of encoded streams. A
// buffer that grew past maxPooledChunk is left to the collector, so one
// huge partition does not pin its encoding for the life of the process.
var chunkPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledChunk = 4 << 20

func putChunk(b *[]byte) {
	if cap(*b) <= maxPooledChunk {
		chunkPool.Put(b)
	}
}

// streamWindows is the one windowed streaming loop behind the parallel
// stream actions: parts are processed in windows of width (<= 0
// selects the context parallelism), each window runs task once per
// partition as one parallel job charged to d's recorder, and the
// results go to deliver sequentially, in partition order. deliver
// returning false ends the stream; later windows are never computed.
// Once a non-nil ctx is done no further window is computed, nothing
// more is delivered, and the stream returns ctx.Err().
func streamWindows[T, R any](ctx context.Context, d *Dataset[T], parts []int, width int,
	task func(p int) (R, error), deliver func(R) bool) error {
	if width <= 0 {
		width = d.ctx.parallelism
	}
	results := make([]R, width)
	idxs := AllPartitions(width)
	for start := 0; start < len(parts); start += width {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		window := parts[start:min(start+width, len(parts))]
		err := d.ctx.RunJobRecorder(ctx, d.recorder(), idxs[:len(window)], func(i int) error {
			r, err := task(window[i])
			if err != nil {
				return err
			}
			results[i] = r
			return nil
		})
		if err != nil {
			return err
		}
		for _, r := range results[:len(window)] {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if !deliver(r) {
				return nil
			}
		}
	}
	return nil
}

// PartitionSizes returns the element count of every partition,
// streaming — the balance statistic the partitioning ablation
// reports.
func (d *Dataset[T]) PartitionSizes() ([]int, error) {
	sizes := make([]int, d.numPart)
	err := d.ctx.runJob(d.recorder(), AllPartitions(d.numPart), func(p int) error {
		n := 0
		if err := d.EachPartition(p, func(T) bool {
			n++
			return true
		}); err != nil {
			return err
		}
		sizes[p] = n
		return nil
	})
	return sizes, err
}

// SortedCollect is Collect followed by a stable sort with less; a
// convenience for deterministic test assertions.
func (d *Dataset[T]) SortedCollect(less func(a, b T) bool) ([]T, error) {
	out, err := d.Collect()
	if err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out, nil
}
