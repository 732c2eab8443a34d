package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// This file asserts that the fused streaming pipelines are
// semantically identical to the seed slice-per-step execution model:
// same elements, same partition order, with and without cache
// barriers, under concurrency, and with early-terminating actions.

// ---- reference (seed-style) implementations ----
// These replicate the pre-fusion transformations, materialising a
// fresh slice at every step, and serve both as the correctness oracle
// and as the allocation baseline.

func seedMap[T, U any](d *Dataset[T], f func(T) U) *Dataset[U] {
	return newSource(d.ctx, d.name+".seedMap", d.numPart, func(p int) ([]U, error) {
		in, err := d.ComputePartition(p)
		if err != nil {
			return nil, err
		}
		out := make([]U, len(in))
		for i, v := range in {
			out[i] = f(v)
		}
		return out, nil
	})
}

func seedFilter[T any](d *Dataset[T], pred func(T) bool) *Dataset[T] {
	return newSource(d.ctx, d.name+".seedFilter", d.numPart, func(p int) ([]T, error) {
		in, err := d.ComputePartition(p)
		if err != nil {
			return nil, err
		}
		var out []T
		for _, v := range in {
			if pred(v) {
				out = append(out, v)
			}
		}
		return out, nil
	})
}

func seedFlatMap[T, U any](d *Dataset[T], f func(T) []U) *Dataset[U] {
	return newSource(d.ctx, d.name+".seedFlatMap", d.numPart, func(p int) ([]U, error) {
		in, err := d.ComputePartition(p)
		if err != nil {
			return nil, err
		}
		var out []U
		for _, v := range in {
			out = append(out, f(v)...)
		}
		return out, nil
	})
}

// chain applies the canonical 3-step narrow chain used throughout
// these tests: map(×2) ∘ filter(%3≠0) ∘ flatMap(v → [v, v+1]).
var (
	chainMapF     = func(v int) int { return v * 2 }
	chainFilterF  = func(v int) bool { return v%3 != 0 }
	chainFlatMapF = func(v int) []int { return []int{v, v + 1} }
)

func fusedChain(d *Dataset[int]) *Dataset[int] {
	return FlatMap(Map(d, chainMapF).Filter(chainFilterF), chainFlatMapF)
}

func seedChain(d *Dataset[int]) *Dataset[int] {
	return seedFlatMap(seedFilter(seedMap(d, chainMapF), chainFilterF), chainFlatMapF)
}

// TestFusionMatchesSeedSemantics drives randomised datasets through
// the fused chain and the seed slice-per-step chain and requires
// byte-identical results — same elements, same partition order.
func TestFusionMatchesSeedSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(2000)
		parts := 1 + rng.Intn(8)
		data := make([]int, n)
		for i := range data {
			data[i] = rng.Intn(10000) - 5000
		}
		ctx := NewContext(4)
		fused, err := fusedChain(Parallelize(ctx, data, parts)).Collect()
		if err != nil {
			t.Fatal(err)
		}
		seed, err := seedChain(Parallelize(ctx, data, parts)).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fused, seed) {
			t.Fatalf("trial %d (n=%d parts=%d): fused %v != seed %v", trial, n, parts, fused, seed)
		}
		// Partition-level equality, not just the concatenation.
		fd := fusedChain(Parallelize(ctx, data, parts))
		sd := seedChain(Parallelize(ctx, data, parts))
		for p := 0; p < parts; p++ {
			fp, err := fd.ComputePartition(p)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := sd.ComputePartition(p)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(fp) != fmt.Sprint(sp) {
				t.Fatalf("trial %d partition %d: %v != %v", trial, p, fp, sp)
			}
		}
	}
}

// TestFusionWithCacheBarrier inserts Cache() mid-chain and checks the
// results stay identical to the seed semantics while the cached stage
// computes each partition exactly once.
func TestFusionWithCacheBarrier(t *testing.T) {
	ctx := NewContext(4)
	data := intRange(1000)

	var upstreamRuns atomic.Int64
	source := NewStream(ctx, "counting", 4, func(p int, yield func(int) bool) error {
		upstreamRuns.Add(1)
		lo, hi := p*250, (p+1)*250
		for v := lo; v < hi; v++ {
			if !yield(data[v]) {
				return nil
			}
		}
		return nil
	})

	mid := Map(source, chainMapF).Filter(chainFilterF).Cache()
	tail := FlatMap(mid, chainFlatMapF)

	want, err := seedChain(Parallelize(ctx, data, 4)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		got, err := tail.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: fused+cache differs from seed semantics", run)
		}
	}
	// The upstream of the cache barrier ran once per partition, not
	// once per action.
	if got := upstreamRuns.Load(); got != 4 {
		t.Errorf("upstream computed %d times, want 4 (once per partition)", got)
	}
}

// countingSource returns a dataset over [0, n) in parts partitions
// that counts every element actually pulled through the pipeline.
func countingSource(ctx *Context, n, parts int) (*Dataset[int], *atomic.Int64) {
	var pulled atomic.Int64
	d := NewStream(ctx, "countingSource", parts, func(p int, yield func(int) bool) error {
		lo := p * n / parts
		hi := (p + 1) * n / parts
		for v := lo; v < hi; v++ {
			pulled.Add(1)
			if !yield(v) {
				return nil
			}
		}
		return nil
	})
	return d, &pulled
}

// TestTakeStopsConsuming verifies the acceptance criterion: Take(n)
// stops pulling from a partition's iterator after n elements.
func TestTakeStopsConsuming(t *testing.T) {
	ctx := NewContext(2)
	d, pulled := countingSource(ctx, 100_000, 4)

	got, err := take(d, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2 3 4]" {
		t.Fatalf("take = %v", got)
	}
	if n := pulled.Load(); n != 5 {
		t.Errorf("take(5) pulled %d elements from the source, want exactly 5", n)
	}

	// Through a fused filter chain: only as many source elements are
	// pulled as needed to let n survivors through — not the partition.
	d2, pulled2 := countingSource(ctx, 100_000, 4)
	got2, err := take(d2.Filter(func(v int) bool { return v%10 == 0 }), 3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got2) != "[0 10 20]" {
		t.Fatalf("filtered take = %v", got2)
	}
	if n := pulled2.Load(); n != 21 {
		t.Errorf("filtered take(3) pulled %d source elements, want 21 (0..20)", n)
	}
}

// TestTakeRacesConcurrentActions runs early-terminating Take against
// concurrent full actions on the same cached chain; run with -race.
// An early-terminated task must never poison the shared cache.
func TestTakeRacesConcurrentActions(t *testing.T) {
	ctx := NewContext(4)
	data := intRange(8000)
	base := Parallelize(ctx, data, 8)
	mid := Map(base, chainMapF).Filter(chainFilterF).Cache()
	tail := FlatMap(mid, chainFlatMapF)

	wantCount, err := seedChain(Parallelize(ctx, data, 8)).Count()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch w % 2 {
				case 0:
					out, err := take(tail, 7)
					if err != nil {
						t.Error(err)
						return
					}
					if len(out) != 7 {
						t.Errorf("take = %d rows, want 7", len(out))
						return
					}
				case 1:
					n, err := tail.Count()
					if err != nil {
						t.Error(err)
						return
					}
					if n != wantCount {
						t.Errorf("count = %d, want %d", n, wantCount)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestStreamOrderAndStop checks the ordered streaming action: strict
// partition order, early stop respected across partitions.
func TestStreamOrderAndStop(t *testing.T) {
	ctx := NewContext(4)
	d := Parallelize(ctx, intRange(100), 5)
	var got []int
	if err := d.StreamPartitionsParallelContext(context.Background(), AllPartitions(5), func(v int) bool {
		got = append(got, v)
		return len(got) < 42
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 42 {
		t.Fatalf("streamed %d elements, want 42", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("stream out of order at %d: %d", i, v)
		}
	}

	// Restricted to chosen partitions, in the given order.
	var fromParts []int
	if err := d.StreamPartitionsParallelContext(context.Background(), []int{3, 1}, func(v int) bool {
		fromParts = append(fromParts, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := append(intRange(100)[60:80], intRange(100)[20:40]...)
	if !reflect.DeepEqual(fromParts, want) {
		t.Fatalf("streamPartitions = %v, want %v", fromParts, want)
	}
}

// TestSinglePartitionJobRecoversPanic pins the one-task job:
// a job with exactly one task must report a panicking task as an
// error exactly like the pooled N-task path, not crash the process.
func TestSinglePartitionJobRecoversPanic(t *testing.T) {
	ctx := NewContext(2)
	for _, parts := range []int{1, 4} {
		d := newSource(ctx, "panicking", parts, func(p int) ([]int, error) {
			panic("kaboom")
		})
		if _, err := d.Collect(); err == nil {
			t.Errorf("%d-partition job: panic must surface as error", parts)
		}
		// CollectPartitions with a single listed task exercises the
		// inline fast path even on a multi-partition dataset.
		if _, err := d.CollectPartitions([]int{0}); err == nil {
			t.Errorf("%d-partition dataset, 1-task job: panic must surface as error", parts)
		}
	}
}

// allocChain is the 3-step narrow chain used for allocation
// measurements: map(×2) ∘ filter(%3≠0) ∘ map(+1). It deliberately
// avoids flatMap, whose per-element result slices allocate
// identically under both execution models and would mask the
// pipeline's own allocation behaviour.
var allocMapF2 = func(v int) int { return v + 1 }

func fusedAllocChain(d *Dataset[int]) *Dataset[int] {
	return Map(Map(d, chainMapF).Filter(chainFilterF), allocMapF2)
}

func seedAllocChain(d *Dataset[int]) *Dataset[int] {
	return seedMap(seedFilter(seedMap(d, chainMapF), chainFilterF), allocMapF2)
}

// TestFusedChainAllocations is the acceptance gate: on a 100k-element
// dataset, running the fused 3-step narrow chain must cost at most
// half the allocations of the seed slice-per-step implementation. The
// race detector's runtime drops pooled scratch at random, so under
// -race only the semantics are checked.
func TestFusedChainAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on 100k elements")
	}
	ctx := NewContext(2)
	data := intRange(100_000)
	base := Parallelize(ctx, data, 4)

	// Semantics check before measuring.
	fusedOut, err := fusedAllocChain(base).Collect()
	if err != nil {
		t.Fatal(err)
	}
	seedOut, err := seedAllocChain(base).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fusedOut, seedOut) {
		t.Fatal("alloc chains disagree")
	}
	if raceEnabled {
		t.Skip("allocation counts under the race detector vary with load")
	}

	fusedCount := testing.AllocsPerRun(5, func() {
		if _, err := fusedAllocChain(base).Count(); err != nil {
			t.Fatal(err)
		}
	})
	seedCount := testing.AllocsPerRun(5, func() {
		if _, err := seedAllocChain(base).Count(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Count allocs/op: fused=%.0f seed=%.0f", fusedCount, seedCount)
	if fusedCount > seedCount/2 {
		t.Errorf("fused Count allocates %.0f, want <= half of seed's %.0f", fusedCount, seedCount)
	}

	// Collect must materialise its result either way, but the fused
	// plan skips every intermediate slice and preallocates the output
	// from the size hint.
	fusedCollect := testing.AllocsPerRun(5, func() {
		if _, err := fusedAllocChain(base).Collect(); err != nil {
			t.Fatal(err)
		}
	})
	seedCollect := testing.AllocsPerRun(5, func() {
		if _, err := seedAllocChain(base).Collect(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Collect allocs/op: fused=%.0f seed=%.0f", fusedCollect, seedCollect)
	if fusedCollect > seedCollect/2 {
		t.Errorf("fused Collect allocates %.0f, want <= half of seed's %.0f", fusedCollect, seedCollect)
	}
}

// pulledWithin checks how far a stream ran past its consumer: it may
// have run whole partitions only (100 rows each), at least those it
// delivered, and at most lookAhead × parallelism more than it delivered
// completely — the tokens of streamOrdered.
func pulledWithin(t *testing.T, what string, pulled int64, ctx *Context, delivered, complete int) {
	t.Helper()
	lo, hi := int64(100*delivered), int64(100*(complete+lookAhead*ctx.Parallelism()))
	if pulled%100 != 0 || pulled < lo || pulled > hi {
		t.Errorf("%s: pulled %d source elements, want whole partitions of 100 between %d and %d (the look-ahead bound)",
			what, pulled, lo, hi)
	}
}

// TestStreamPartitionsParallelContext checks the parallel ordered
// stream: same rows and order as Collect, early stop
// honoured, nothing computed beyond the look-ahead.
func TestStreamPartitionsParallelContext(t *testing.T) {
	ctx := NewContext(3)
	d := fusedChain(Parallelize(ctx, intRange(500), 10))

	seq, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var par []int
	if err := d.StreamPartitionsParallelContext(context.Background(), AllPartitions(d.NumPartitions()), func(v int) bool {
		par = append(par, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel stream differs from sequential (%d vs %d rows)", len(par), len(seq))
	}

	// Early stop inside the first partition's rows: nothing has been
	// delivered completely, so at most the look-ahead was computed.
	src, pulled := countingSource(ctx, 1000, 10) // 10 partitions of 100
	n := 0
	if err := src.StreamPartitionsParallelContext(context.Background(), AllPartitions(10), func(int) bool {
		n++
		return n < 50
	}); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("streamed %d rows, want 50", n)
	}
	pulledWithin(t, "early stop", pulled.Load(), ctx, 1, 0)
}

// appendInt is the test encoder: one decimal per line.
func appendInt(dst []byte, v int) ([]byte, error) {
	return append(strconv.AppendInt(dst, int64(v), 10), '\n'), nil
}

// TestStreamPartitionsEncoded checks the encoded form of the parallel
// stream against the row form it shares its loop with: the same rows in
// the same order, row counts per chunk, empty partitions skipped, and
// the same stop, failure and cancellation behaviour — each of them
// inside the look-ahead bound.
func TestStreamPartitionsEncoded(t *testing.T) {
	ctx := NewContext(3)
	d := fusedChain(Parallelize(ctx, intRange(500), 10))
	parts := AllPartitions(d.NumPartitions())

	var want []byte
	if err := d.StreamPartitionsParallelContext(context.Background(), parts, func(v int) bool {
		want, _ = appendInt(want, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	rows := 0
	if err := d.StreamPartitionsEncodedContext(context.Background(), parts, appendInt, func(chunk []byte, n int) bool {
		if n == 0 || len(chunk) == 0 {
			t.Errorf("empty chunk delivered (%d rows, %d bytes)", n, len(chunk))
		}
		if lines := bytes.Count(chunk, []byte("\n")); lines != n {
			t.Errorf("chunk holds %d lines, reported %d rows", lines, n)
		}
		got = append(got, chunk...) // chunks are recycled after the call
		rows += n
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded stream differs from the row stream (%d vs %d bytes)", len(got), len(want))
	}
	if rows != bytes.Count(want, []byte("\n")) {
		t.Fatalf("encoded stream reported %d rows, want %d", rows, bytes.Count(want, []byte("\n")))
	}

	// Only partitions 3 and 7 hold rows: two chunks, in that order.
	sparse := NewStream(ctx, "sparse", 10, func(p int, yield func(int) bool) error {
		if p == 3 || p == 7 {
			yield(p)
		}
		return nil
	})
	var chunks []string
	if err := sparse.StreamPartitionsEncodedContext(context.Background(), AllPartitions(10), appendInt, func(chunk []byte, n int) bool {
		chunks = append(chunks, string(chunk))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(chunks, []string{"3\n", "7\n"}) {
		t.Fatalf("sparse stream delivered %q", chunks)
	}

	// sink false on the first chunk: one call, and only the look-ahead
	// beyond it ever ran.
	src, pulled := countingSource(ctx, 1000, 10)
	calls := 0
	if err := src.StreamPartitionsEncodedContext(context.Background(), AllPartitions(10), appendInt, func([]byte, int) bool {
		calls++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("after sink returned false: %d sink calls, want 1", calls)
	}
	pulledWithin(t, "sink false", pulled.Load(), ctx, 1, 0)

	// An encoder error fails the stream with that error and stops its own
	// partition mid-stream. The chunk before the failing one is delivered
	// first, the ones after it never are, and no partition beyond the
	// look-ahead of the failing task was started.
	src, pulled = countingSource(ctx, 1000, 10)
	boom := errors.New("unencodable")
	calls = 0
	err := src.StreamPartitionsEncodedContext(context.Background(), AllPartitions(10), func(dst []byte, v int) ([]byte, error) {
		if v == 150 {
			return dst, boom
		}
		return appendInt(dst, v)
	}, func(chunk []byte, n int) bool {
		if calls++; n != 100 || !bytes.HasPrefix(chunk, []byte("0\n1\n")) {
			t.Errorf("sink call %d got %d rows starting %.8q, want partition 0 only", calls, n, chunk)
		}
		return true
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("stream returned %v after %d chunks, want the encoder's error after partition 0's", err, calls)
	}
	if got := pulled.Load(); got < 100+51 || got > int64(51+100*lookAhead*ctx.Parallelism()) || got%100 != 51 {
		t.Errorf("pulled %d source elements, want partition 1 up to the failing row (51) and whole partitions inside the look-ahead", got)
	}

	// Cancellation: the sink cancels while it holds the first chunk; the
	// stream returns ctx.Err(), delivers nothing more and starts nothing
	// beyond the look-ahead.
	src, pulled = countingSource(ctx, 1000, 10)
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls = 0
	err = src.StreamPartitionsEncodedContext(cctx, AllPartitions(10), appendInt, func([]byte, int) bool {
		calls++
		cancel()
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream returned %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("after cancel: %d sink calls, want 1", calls)
	}
	pulledWithin(t, "cancel", pulled.Load(), ctx, 1, 0)
}

// TestStreamPartitionsEncodedConcurrent runs encoded streams from many
// goroutines at once: they share the chunk pool, and a recycled buffer
// must never reach two sinks.
func TestStreamPartitionsEncodedConcurrent(t *testing.T) {
	ctx := NewContext(4)
	d := fusedChain(Parallelize(ctx, intRange(2000), 16))
	parts := AllPartitions(d.NumPartitions())
	rows, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, v := range rows {
		want, _ = appendInt(want, v)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var got []byte
				if err := d.StreamPartitionsEncodedContext(context.Background(), parts, appendInt, func(chunk []byte, _ int) bool {
					got = append(got, chunk...)
					return true
				}); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("concurrent encoded stream returned %d bytes, want %d", len(got), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
}
