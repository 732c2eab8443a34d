package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Dataset is an immutable, lazily evaluated, partitioned collection —
// the engine's RDD. A Dataset records how to compute each of its
// partitions from its parents (its lineage); nothing is materialised
// until an action (Collect, Count, Take, a stream) runs a job.
//
// The lineage is a pull-based batch plan: each(p, lo, hi, yield) drives
// the rows of partition p that derive from rows [lo, hi) of its source
// through yield, a slice at a time. A sourced partition hands out
// in[lo:hi] itself; a narrow transformation (Map, Filter, FlatMap,
// Sample) runs once over the batch it is handed and copies a row only
// when it survives, into a pooled scratch batch. A chain of them is one
// fused pass per row range with no intermediate partition, and a row
// range (a morsel) is the task of the parallel stream actions. Fusion
// breaks only at explicit materialisation points: Cache, shuffles
// (PartitionBy), and MapPartitions, which needs the whole partition.
//
// A batch is read-only and valid only until yield returns; yield
// returning false stops the plan. An operator hands on what an input
// batch produced before it asks for the next, so the row adapter
// EachPartition (and Take, First, Exists on it) pulls exactly the rows
// it consumes from a row producer (NewStream: batches of one) and at
// most one scratch batch more from a sourced partition.
//
// Transformations that change the element type are package functions
// (Map, FlatMap, MapPartitions) because Go methods cannot introduce
// type parameters; same-type transformations (Filter, Sample) are
// methods.
type Dataset[T any] struct {
	ctx     *Context
	name    string
	numPart int
	// id is the lineage node's generation number, unique across the
	// process (see Dataset.ID).
	id int64

	// each is the plan; hi < 0 means through the last row.
	each func(p, lo, hi int, yield func([]T) bool) error
	// source, when non-nil, materialises partition p without running
	// the plan — set for datasets that already hold their partitions as
	// slices (Parallelize, FromPartitions), so ComputePartition on them
	// stays zero-copy.
	source func(p int) ([]T, error)
	// size, when non-nil, describes partition p before it runs (negative:
	// unknown). rows bounds its element count, so materialisation can
	// preallocate. span is the number of source rows the plan may be cut
	// over: the outputs of consecutive ranges inside it concatenate to the
	// partition. Without a span the partition runs whole: row producers,
	// and operators whose output depends on a row's position in the
	// partition's stream (Sample's per-partition random sequence).
	size func(p int) (rows, span int)

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

// newPlan wires a lineage node from a batch plan.
func newPlan[T any](ctx *Context, name string, numPart int, each func(p, lo, hi int, yield func([]T) bool) error) *Dataset[T] {
	return &Dataset[T]{ctx: ctx, name: name, numPart: numPart, id: datasetGen.Add(1), each: each}
}

// narrow wires a transformation that turns every row range of d into
// the same range of its output, of no more rows: it keeps d's size.
func narrow[T, U any](d *Dataset[T], name string, each func(p, lo, hi int, yield func([]U) bool) error) *Dataset[U] {
	n := newPlan(d.ctx, d.name+name, d.numPart, each)
	n.size = d.partitionSize
	n.rec = d.rec
	return n
}

// NewStream builds a dataset from a row producer — the extension point
// for stages outside the engine that find their rows one at a time
// (index and postings probes, the join). rows must stream partition p
// through yield and stop as soon as yield returns false. It is lifted
// into the batch plan as batches of one row, so a consumer that stops
// after n rows has pulled exactly n; its partitions run whole.
func NewStream[T any](ctx *Context, name string, numPart int, rows func(p int, yield func(T) bool) error) *Dataset[T] {
	return newPlan(ctx, name, numPart, func(p, _, _ int, yield func([]T) bool) error {
		var one [1]T
		return rows(p, func(v T) bool {
			one[0] = v
			return yield(one[:])
		})
	})
}

// newSource wires a lineage node whose partitions already exist as
// slices; the plan hands out windows of them.
func newSource[T any](ctx *Context, name string, numPart int, source func(p int) ([]T, error)) *Dataset[T] {
	d := newPlan(ctx, name, numPart, func(p, lo, hi int, yield func([]T) bool) error {
		in, err := source(p)
		if err != nil {
			return err
		}
		if hi < 0 || hi > len(in) {
			hi = len(in)
		}
		if lo < hi {
			yield(in[lo:hi])
		}
		return nil
	})
	d.source = source
	return d
}

// sized records the partition lengths of a sourced dataset: its row
// bound and its span.
func (d *Dataset[T]) sized(size func(p int) int) *Dataset[T] {
	d.size = func(p int) (rows, span int) {
		n := size(p)
		return n, n
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
	return newSource(ctx, "parallelize", np, func(p int) ([]T, error) {
		lo := p * n / np
		hi := (p + 1) * n / np
		return data[lo:hi], nil
	}).sized(func(p int) int { return (p+1)*n/np - p*n/np })
}

// FromPartitions builds a dataset whose partitions are exactly the
// given slices. The slices are not copied.
func FromPartitions[T any](ctx *Context, parts [][]T) *Dataset[T] {
	return newSource(ctx, "fromPartitions", len(parts), func(p int) ([]T, error) {
		return parts[p], nil
	}).sized(func(p int) int { return len(parts[p]) })
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
		each:    d.eachRange,
		size:    d.partitionSize,
	}
	if d.source != nil {
		// Preserve the zero-copy materialisation path through the
		// parent's cache.
		v.source = d.ComputePartition
	}
	return v
}

// maxMaterialiseHint caps how much capacity a size hint may
// preallocate, bounding transient overcommit when a highly selective
// filter reports its parent's size as the upper bound.
const maxMaterialiseHint = 1 << 16

// partitionSize returns the upper bound on the element count of
// partition p and the number of source rows its plan can be cut over,
// each -1 when there is none. A cached dataset has no span: its
// partitions are computed once, in one piece.
func (d *Dataset[T]) partitionSize(p int) (rows, span int) {
	if d.size == nil {
		return -1, -1
	}
	rows, span = d.size(p)
	if d.cacheOn.Load() {
		span = -1
	}
	return rows, span
}

// materialise runs the partition into a slice, preferring the
// zero-copy source when the dataset holds its partitions already.
func (d *Dataset[T]) materialise(p int) ([]T, error) {
	if d.source != nil {
		return d.source(p)
	}
	var out []T
	if h, _ := d.partitionSize(p); h > 0 {
		out = make([]T, 0, min(h, maxMaterialiseHint))
	}
	err := d.each(p, 0, -1, func(b []T) bool {
		out = append(out, b...)
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
	d.cached[p] = out
	d.cachedOK[p] = true
	d.cacheMu.Unlock()
	return out, nil
}

// eachRange runs the plan over source rows [lo, hi) of partition p
// (hi < 0: through the last row), honouring the cache. Only a whole
// partition is served from the cache or fills it: a row range is cut
// over the plan's span, which a materialised partition no longer has, so
// a range that was cut before the dataset was cached runs the plan.
func (d *Dataset[T]) eachRange(p, lo, hi int, yield func([]T) bool) error {
	if p < 0 || p >= d.numPart {
		return fmt.Errorf("engine: partition %d out of range [0, %d)", p, d.numPart)
	}
	if !d.cacheOn.Load() || lo > 0 || hi >= 0 {
		return d.each(p, lo, hi, yield)
	}
	out, err := d.ComputePartition(p)
	if err == nil && len(out) > 0 {
		yield(out)
	}
	return err
}

// EachPartition is the row adapter of the batch plan: it streams
// partition p through yield one row at a time, in order, and stops the
// plan as soon as yield returns false — inside the batch in flight, so
// over a row producer no further row is pulled (see Dataset). On a
// cached dataset the partition is materialised (at most once) and the
// cached slice is replayed, so caching keeps its compute-once guarantee
// and remains a fusion barrier.
func (d *Dataset[T]) EachPartition(p int, yield func(T) bool) error {
	return d.eachRange(p, 0, -1, func(b []T) bool {
		for i := range b {
			if !yield(b[i]) {
				return false
			}
		}
		return true
	})
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

// ---- Narrow transformations ----
// Each one wraps the parent's plan: chains fuse into one pass per row
// range.

// scratchRows is the length of the batch a narrow transformation fills
// before it hands it on.
const scratchRows = 256

// scratchPools holds one pool of scratch batches per element type
// (scratchKey[T]{} → *sync.Pool of *[scratchRows]T) for every plan of
// the process: a task takes one scratch per operator and a query runs
// several tasks per partition, so fresh ones would be most of what a
// scan allocates.
var scratchPools sync.Map

type scratchKey[T any] struct{}

func scratchPool[T any]() *sync.Pool {
	pool, ok := scratchPools.Load(scratchKey[T]{})
	if !ok {
		pool, _ = scratchPools.LoadOrStore(scratchKey[T]{}, &sync.Pool{New: func() any { return new([scratchRows]T) }})
	}
	return pool.(*sync.Pool)
}

// batched drives source rows [lo, hi) of partition p of d through fill,
// at most scratchRows at a time: fill writes the rows in produces to the
// front of out, which is as long as in, and returns how many; they go to
// yield before the next batch is read.
func batched[T, U any](d *Dataset[T], p, lo, hi int, fill func(in []T, out []U) int, yield func([]U) bool) error {
	pool := scratchPool[U]()
	out := pool.Get().(*[scratchRows]U)
	defer func() {
		clear(out[:]) // a pooled scratch must not pin the rows it last held
		pool.Put(out)
	}()
	return d.eachRange(p, lo, hi, func(in []T) bool {
		for len(in) > 0 {
			n := min(len(in), len(out))
			if k := fill(in[:n], out[:n]); k > 0 && !yield(out[:k]) {
				return false
			}
			in = in[n:]
		}
		return true
	})
}

// MapBatches is the narrow transformation with the loop in the caller's
// hands, for operators whose work is cheaper over a batch than through a
// call per row (the spatio-temporal scan rejects most rows on four
// compares): fill writes the rows in produces, at most one each and in
// order, to the front of out (len(out) == len(in)) and returns how many.
// It is called from several tasks at once. name is appended to d's name.
func MapBatches[T, U any](d *Dataset[T], name string, fill func(in []T, out []U) int) *Dataset[U] {
	return narrow(d, name, func(p, lo, hi int, yield func([]U) bool) error {
		return batched(d, p, lo, hi, fill, yield)
	})
}

// Map applies f to every element.
func Map[T, U any](d *Dataset[T], f func(T) U) *Dataset[U] {
	return MapBatches(d, ".map", func(in []T, out []U) int {
		for i := range in {
			out[i] = f(in[i])
		}
		return len(in)
	})
}

// Filter keeps the elements for which pred is true.
func (d *Dataset[T]) Filter(pred func(T) bool) *Dataset[T] {
	return MapBatches(d, ".filter", func(in, out []T) int {
		n := 0
		for i := range in {
			if pred(in[i]) {
				out[n] = in[i]
				n++
			}
		}
		return n
	})
}

// FlatMap applies f to every element and concatenates the results.
func FlatMap[T, U any](d *Dataset[T], f func(T) []U) *Dataset[U] {
	m := narrow(d, ".flatMap", func(p, lo, hi int, yield func([]U) bool) error {
		return d.eachRange(p, lo, hi, func(in []T) bool {
			for i := range in {
				if out := f(in[i]); len(out) > 0 && !yield(out) {
					return false
				}
			}
			return true
		})
	})
	m.size = func(p int) (rows, span int) { // any number of rows, same ranges
		_, span = d.partitionSize(p)
		return -1, span
	}
	return m
}

// MapPartitions transforms whole partitions at once; idx is the
// partition index (Spark's mapPartitionsWithIndex). It is a
// materialisation point: the parent partition is computed into a
// slice before f runs (f needs random access), and fusion restarts
// downstream of the result.
func MapPartitions[T, U any](d *Dataset[T], f func(idx int, in []T) ([]U, error)) *Dataset[U] {
	m := newPlan(d.ctx, d.name+".mapPartitions", d.numPart, func(p, _, _ int, yield func([]U) bool) error {
		in, err := d.ComputePartition(p)
		if err != nil {
			return err
		}
		out, err := f(p, in)
		if err == nil && len(out) > 0 {
			yield(out)
		}
		return err
	})
	m.rec = d.rec
	return m
}

// Sample returns a dataset keeping each element with probability
// fraction, deterministically derived from seed and the partition
// index. Whether a row is kept depends on how many rows of its
// partition were drawn before it, so a sampled partition runs whole.
func (d *Dataset[T]) Sample(fraction float64, seed int64) *Dataset[T] {
	s := newPlan(d.ctx, d.name+".sample", d.numPart, func(p, _, _ int, yield func([]T) bool) error {
		rng := rand.New(rand.NewSource(seed + int64(p)*2654435761))
		return batched(d, p, 0, -1, func(in, out []T) int {
			n := 0
			for i := range in {
				if rng.Float64() < fraction {
					out[n] = in[i]
					n++
				}
			}
			return n
		}, yield)
	})
	s.size = func(p int) (rows, span int) { // no more rows, no ranges
		rows, _ = d.partitionSize(p)
		return rows, -1
	}
	s.rec = d.rec
	return s
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
	err := d.ctx.RunJobRecorder(nil, d.recorder(), parts, func(p int) error {
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
	err := d.ctx.RunJobRecorder(nil, d.recorder(), parts, func(p int) error {
		var local int64
		if err := d.eachRange(p, 0, -1, func(b []T) bool {
			local += int64(len(b))
			return true
		}); err != nil {
			return err
		}
		total.Add(local)
		return nil
	})
	return total.Load(), err
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
	out := make([]T, 0, min(n, maxMaterialiseHint))
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

// morselRows bounds the rows of one task of the parallel stream
// actions: a partition with a span (see Dataset.size) of n rows is cut
// into ⌈n/morselRows⌉ equal row ranges.
const morselRows = 4096

// morsel is one task of a parallel stream: source rows [lo, hi) of
// partition p, hi < 0 for a partition that runs whole.
type morsel struct{ p, lo, hi int }

// morsels cuts the listed partitions into the tasks of one stream, in
// (partition, range) order.
func (d *Dataset[T]) morsels(parts []int) []morsel {
	ms := make([]morsel, 0, len(parts))
	for _, p := range parts {
		n := -1
		if p >= 0 && p < d.numPart { // an unknown partition fails in its task
			_, n = d.partitionSize(p)
		}
		if n <= morselRows {
			ms = append(ms, morsel{p, 0, -1})
			continue
		}
		k := (n + morselRows - 1) / morselRows
		for i := 0; i < k; i++ {
			ms = append(ms, morsel{p, i * n / k, (i + 1) * n / k})
		}
	}
	return ms
}

// StreamPartitionsParallelContext delivers the rows of the listed
// partitions to fn sequentially, in the given partition order, while
// computing them in parallel: the partitions are cut into morsels, the
// morsels run as one ordered job (see streamOrdered) and each one's
// rows are replayed as soon as all before it have been, buffering the
// rows of at most 2 × parallelism morsels.
// fn returning false stops the stream. Cancellation is cooperative:
// once ctx is done no further morsel is started, no further row is
// delivered, and the stream returns ctx.Err() — the hook a server uses
// to stop a scan when the client hangs up or a deadline fires. A nil
// ctx streams to completion.
func (d *Dataset[T]) StreamPartitionsParallelContext(ctx context.Context, parts []int, fn func(T) bool) error {
	ms := d.morsels(parts)
	return streamOrdered(ctx, d.ctx, d.recorder(), len(ms), lookAhead*d.ctx.parallelism, func(i int) ([]T, error) {
		var rows []T
		err := d.eachRange(ms[i].p, ms[i].lo, ms[i].hi, func(b []T) bool {
			rows = append(rows, b...)
			return true
		})
		return rows, err
	}, func(rows []T) bool {
		for i := range rows {
			if !fn(rows[i]) {
				return false
			}
		}
		return true
	}, func([]T) {})
}

// StreamPartitionsEncodedContext is StreamPartitionsParallelContext
// for consumers that want bytes, not rows: each morsel task folds its
// rows through enc (append the encoding of v to dst, return the grown
// slice) straight off the plan's batches into one buffer, so no slice
// of rows is materialised and the encoding runs on every executor
// instead of on the consumer's goroutine (enc must be safe for
// concurrent calls). sink receives each morsel's bytes and row count
// sequentially, in (partition, row range) order; morsels without rows
// are skipped, and at most 2 × parallelism chunks are encoded and not
// yet through sink. The chunk is recycled as soon as sink returns —
// copy what must outlive the call. sink returning false stops the
// stream, an enc error fails it once the chunks before the failing
// morsel's are delivered, and cancellation works as in
// StreamPartitionsParallelContext; in all three cases no further morsel
// is started and the chunks already encoded are recycled undelivered.
func (d *Dataset[T]) StreamPartitionsEncodedContext(ctx context.Context, parts []int,
	enc func(dst []byte, v T) ([]byte, error), sink func(chunk []byte, rows int) bool) error {
	type encoded struct {
		buf  *[]byte
		rows int
	}
	ms := d.morsels(parts)
	return streamOrdered(ctx, d.ctx, d.recorder(), len(ms), lookAhead*d.ctx.parallelism, func(i int) (encoded, error) {
		out := encoded{buf: chunkPool.Get().(*[]byte)}
		buf := (*out.buf)[:0]
		var encErr error
		err := d.eachRange(ms[i].p, ms[i].lo, ms[i].hi, func(b []T) bool {
			for j := range b {
				if buf, encErr = enc(buf, b[j]); encErr != nil {
					return false
				}
			}
			out.rows += len(b)
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
	}, func(e encoded) { putChunk(e.buf) })
}

// chunkPool recycles the per-morsel buffers of encoded streams. A
// buffer that grew past maxPooledChunk is left to the collector, so one
// huge partition does not pin its encoding for the life of the process.
var chunkPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledChunk = 4 << 20

func putChunk(b *[]byte) {
	if cap(*b) <= maxPooledChunk {
		chunkPool.Put(b)
	}
}

// lookAhead is how many results per executor a parallel stream lets be
// claimed and not yet delivered.
const lookAhead = 2

// streamOrdered is the engine's one job loop, behind the parallel stream
// actions and RunJobRecorder: it runs task(0) … task(n-1) fork-join,
// charged to rec, and hands the results to deliver on the calling
// goroutine, in task order, each as soon as all before it have been.
//
// The caller and up to parallelism-1 helpers claim tasks in order off a
// shared counter. A claim takes one of window tokens and a delivery
// hands one back, so that bounds the results claimed and undelivered:
// what the job buffers, and how far it runs past a consumer that stops.
// The caller runs a task itself whenever the result due next is not
// ready, so it parks only while that result is being computed elsewhere
// and nothing can be claimed; with parallelism 1 it runs every task, in
// order, and starts no goroutine. A helper the scheduler is slow to
// start costs only the parallelism it would have added, and a job of
// short tasks is done before a second thread has woken up: the wall
// time depends little on how quickly the OS wakes an idle thread, which
// on a shared box varies by an order of magnitude.
//
// The stream ends when deliver returns false (nil), when the task whose
// result is due failed (its error: a failure stops the claims at once,
// the results before it are still delivered) or when ctx is done
// (ctx.Err(), in preference to a task's error; a nil ctx never is).
// Either way no further task is claimed, every helper has returned
// before streamOrdered does, and every result computed but not
// delivered goes to discard; deliver owns the ones it is handed.
func streamOrdered[R any](ctx context.Context, c *Context, rec *Recorder, n, window int,
	task func(i int) (R, error), deliver func(R) bool, discard func(R)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	type slot struct {
		done atomic.Bool // r, err are set; cleared again at delivery
		r    R
		err  error
	}
	// Task i reports in ring[i%len(ring)]: a token per slot, taken before
	// the claim and handed back after the delivery, keeps a slot from
	// being claimed twice. Closing tokens sends the helpers home.
	ring := make([]slot, min(window, n))
	tokens := make(chan struct{}, len(ring))
	for range ring {
		tokens <- struct{}{}
	}
	var (
		next    atomic.Int64
		stop    atomic.Bool
		wake    = make(chan struct{}, 1) // a result is ready: one pending signal is enough
		helpers sync.WaitGroup
	)
	// claim runs the next task if there is one; the caller holds a token.
	// An index taken off the counter always reports, whatever happens
	// meanwhile: the deliverer may be waiting for it.
	claim := func() bool {
		if stop.Load() {
			return false
		}
		i := int(next.Add(1)) - 1
		if i >= n {
			return false
		}
		s := &ring[i%len(ring)]
		if s.err = ctx.Err(); s.err == nil {
			if n > 1 { // a one-task job takes no executor slot: it may run inside a task
				c.sem <- struct{}{}
			}
			rec.Add(TasksLaunched, 1)
			s.err = runTask(i, func(i int) (err error) {
				s.r, err = task(i)
				return err
			})
			if n > 1 {
				<-c.sem
			}
		}
		if s.err != nil {
			stop.Store(true)
		}
		s.done.Store(true)
		select {
		case wake <- struct{}{}:
		default:
		}
		return true
	}
	for h := min(n, c.parallelism) - 1; h > 0; h-- {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			for range tokens {
				if !claim() {
					return
				}
			}
		}()
	}
	defer func() {
		stop.Store(true)
		close(tokens)
		helpers.Wait()
		for i := range ring {
			if s := &ring[i]; s.done.Load() && s.err == nil {
				discard(s.r)
			}
		}
	}()
	for d := 0; d < n; d++ {
		s := &ring[d%len(ring)]
		for !s.done.Load() {
			// Not ready: work instead of waiting, if a task and a token are
			// to be had. If not, task d is claimed (everything up to the
			// last claim is, and the window starts at d) and will report.
			select {
			case <-tokens:
				if claim() {
					continue
				}
			default:
			}
			select {
			case <-wake:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.err != nil {
			return s.err
		}
		r := s.r
		s.r = *new(R)
		s.done.Store(false)
		if !deliver(r) {
			return nil
		}
		tokens <- struct{}{}
	}
	return nil
}
