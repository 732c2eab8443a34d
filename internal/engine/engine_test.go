package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func intRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizeCollect(t *testing.T) {
	ctx := NewContext(4)
	data := intRange(100)
	d := Parallelize(ctx, data, 8)
	if d.NumPartitions() != 8 {
		t.Fatalf("partitions = %d", d.NumPartitions())
	}
	got, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestParallelizeUnevenSplit(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, intRange(10), 3)
	var sizes []int
	total := 0
	for p := 0; p < d.NumPartitions(); p++ {
		rows, err := d.ComputePartition(p)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(rows))
		total += len(rows)
	}
	if total != 10 {
		t.Errorf("sizes = %v", sizes)
	}
}

func TestParallelizeDefaultPartitions(t *testing.T) {
	ctx := NewContext(3)
	d := Parallelize(ctx, intRange(10), 0)
	if d.NumPartitions() != 3 {
		t.Errorf("partitions = %d, want parallelism 3", d.NumPartitions())
	}
}

func TestMapFilterChain(t *testing.T) {
	ctx := NewContext(4)
	d := Parallelize(ctx, intRange(50), 5)
	doubled := Map(d, func(v int) int { return v * 2 })
	big := doubled.Filter(func(v int) bool { return v >= 80 })
	got, err := big.Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{80, 82, 84, 86, 88, 90, 92, 94, 96, 98}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestFlatMap(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, []int{1, 2, 3}, 2)
	dup := FlatMap(d, func(v int) []int { return []int{v, v} })
	got, _ := dup.Collect()
	if len(got) != 6 {
		t.Errorf("got %v", got)
	}
}

func TestMapPartitionsIndex(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, intRange(8), 4)
	idxOnly := MapPartitions(d, func(idx int, in []int) ([]int, error) {
		return []int{idx}, nil
	})
	got, _ := idxOnly.Collect()
	sort.Ints(got)
	if fmt.Sprint(got) != "[0 1 2 3]" {
		t.Errorf("got %v", got)
	}
}

func TestCountReduce(t *testing.T) {
	ctx := NewContext(4)
	d := Parallelize(ctx, intRange(101), 7)
	n, err := d.Count()
	if err != nil || n != 101 {
		t.Fatalf("count = %d err=%v", n, err)
	}
	sum, ok, err := d.Reduce(func(a, b int) int { return a + b })
	if err != nil || !ok || sum != 5050 {
		t.Fatalf("sum = %d ok=%v err=%v", sum, ok, err)
	}
	empty := Parallelize(ctx, []int{}, 3)
	_, ok, err = empty.Reduce(func(a, b int) int { return a + b })
	if err != nil || ok {
		t.Fatalf("empty reduce ok=%v err=%v", ok, err)
	}
}

func TestForeach(t *testing.T) {
	ctx := NewContext(4)
	d := Parallelize(ctx, intRange(1000), 10)
	var sum atomic.Int64
	if err := d.Foreach(func(v int) { sum.Add(int64(v)) }); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 499500 {
		t.Errorf("sum = %d", sum.Load())
	}
}

func TestTake(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, intRange(100), 10)
	got, err := d.Take(7)
	if err != nil || len(got) != 7 {
		t.Fatalf("take = %v err=%v", got, err)
	}
	got, _ = d.Take(1000)
	if len(got) != 100 {
		t.Errorf("over-take len = %d", len(got))
	}
}

func TestSampleDeterministic(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, intRange(10000), 8)
	s1, _ := d.Sample(0.1, 42).Collect()
	s2, _ := d.Sample(0.1, 42).Collect()
	if fmt.Sprint(s1) != fmt.Sprint(s2) {
		t.Error("same seed must give same sample")
	}
	if len(s1) < 800 || len(s1) > 1200 {
		t.Errorf("sample size = %d, want ≈1000", len(s1))
	}
	s3, _ := d.Sample(0.1, 43).Collect()
	if fmt.Sprint(s1) == fmt.Sprint(s3) {
		t.Error("different seeds should differ")
	}
}

// TestSampleMatchesRowAtATimeDraws pins which rows a sample keeps: one
// draw per row in partition order from the partition's generator, as the
// row-at-a-time plan drew them — also when the partition is larger than
// a morsel and the stream actions would like to cut it.
func TestSampleMatchesRowAtATimeDraws(t *testing.T) {
	ctx := NewContext(2)
	const seed, fraction = 77, 0.3
	parts := [][]int{intRange(2*morselRows + 500), intRange(300)}
	var want []int
	for p, rows := range parts {
		rng := rand.New(rand.NewSource(seed + int64(p)*2654435761))
		for _, v := range rows {
			if rng.Float64() < fraction {
				want = append(want, v)
			}
		}
	}
	sampled := FromPartitions(ctx, parts).Sample(fraction, seed)
	got, err := sampled.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Collect of the sample: %d rows, the per-row draws keep %d", len(got), len(want))
	}
	var streamed []int
	if err := sampled.StreamPartitionsParallelContext(nil, []int{0, 1}, func(v int) bool {
		streamed = append(streamed, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(streamed, want) {
		t.Fatalf("stream of the sample: %d rows, the per-row draws keep %d", len(streamed), len(want))
	}
}

func TestCacheComputesOnce(t *testing.T) {
	ctx := NewContext(2)
	var computes atomic.Int64
	d := newSource(ctx, "test", 4, func(p int) ([]int, error) {
		computes.Add(1)
		return []int{p}, nil
	})
	d.Cache()
	if _, err := d.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Collect(); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 4 {
		t.Errorf("computes = %d, want 4", computes.Load())
	}
}

func TestErrorPropagation(t *testing.T) {
	ctx := NewContext(2)
	wantErr := errors.New("boom")
	d := newSource(ctx, "failing", 4, func(p int) ([]int, error) {
		if p == 2 {
			return nil, wantErr
		}
		return []int{p}, nil
	})
	if _, err := d.Collect(); !errors.Is(err, wantErr) {
		t.Errorf("err = %v", err)
	}
	if _, err := d.Count(); !errors.Is(err, wantErr) {
		t.Errorf("count err = %v", err)
	}
}

func TestTaskPanicBecomesError(t *testing.T) {
	ctx := NewContext(2)
	d := newSource(ctx, "panicking", 4, func(p int) ([]int, error) {
		if p == 1 {
			panic("kaboom")
		}
		return nil, nil
	})
	if _, err := d.Collect(); err == nil {
		t.Error("panic must surface as error")
	}
}

// TestRunJobCallerWorks pins the fork-join shape of a job: every task
// runs exactly once, never more than Parallelism at a time, the
// calling goroutine is one of the workers (a job needs no second
// goroutine to finish), and two tasks of one job do overlap when the
// context has two executors.
func TestRunJobCallerWorks(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		ctx := NewContext(par)
		const n = 64
		var ran [n]atomic.Int32
		var inFlight, peak atomic.Int32
		err := ctx.RunJob(intRange(n), func(i int) error {
			now := inFlight.Add(1)
			for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
			}
			ran[i].Add(1)
			inFlight.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("parallelism %d: task %d ran %d times", par, i, got)
			}
		}
		if int(peak.Load()) > par {
			t.Errorf("parallelism %d: %d tasks in flight", par, peak.Load())
		}
		if got := ctx.Metrics().Snapshot().TasksLaunched; got != n {
			t.Errorf("parallelism %d: TasksLaunched = %d, want %d", par, got, n)
		}
	}

	// With one executor there are no helpers: the caller runs every
	// task itself, in order.
	var order []int
	if err := NewContext(1).RunJob(intRange(5), func(i int) error {
		order = append(order, i) // no lock: one goroutine only, -race would object otherwise
		return nil
	}); err != nil || !slices.Equal(order, intRange(5)) {
		t.Errorf("serial job ran %v (err %v)", order, err)
	}

	// Two tasks that each wait for the other only finish if they run at
	// the same time.
	meet := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- NewContext(2).RunJob(intRange(2), func(int) error {
			select {
			case meet <- struct{}{}:
			case <-meet:
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("two tasks of a two-executor job did not overlap")
	}
}

func TestComputePartitionBounds(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, intRange(10), 2)
	if _, err := d.ComputePartition(-1); err == nil {
		t.Error("negative partition must error")
	}
	if _, err := d.ComputePartition(2); err == nil {
		t.Error("out-of-range partition must error")
	}
}

func TestCollectPartitionsPrunes(t *testing.T) {
	ctx := NewContext(2)
	var computed atomic.Int64
	d := newSource(ctx, "test", 10, func(p int) ([]int, error) {
		computed.Add(1)
		return []int{p}, nil
	})
	got, err := d.CollectPartitions([]int{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(got)
	if fmt.Sprint(got) != "[3 7]" {
		t.Errorf("got %v", got)
	}
	if computed.Load() != 2 {
		t.Errorf("computed %d partitions, want 2", computed.Load())
	}
}

func TestPartitionBy(t *testing.T) {
	ctx := NewContext(4)
	pairs := make([]Pair[int, string], 100)
	for i := range pairs {
		pairs[i] = NewPair(i, fmt.Sprintf("v%d", i))
	}
	d := Parallelize(ctx, pairs, 5)
	byMod, err := PartitionBy(d, FuncPartitioner[int]{N: 4, Fn: func(k int) int { return k % 4 }})
	if err != nil {
		t.Fatal(err)
	}
	if byMod.NumPartitions() != 4 {
		t.Fatalf("partitions = %d", byMod.NumPartitions())
	}
	// Every partition holds exactly the keys with matching residue.
	for p := 0; p < 4; p++ {
		part, err := byMod.ComputePartition(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(part) != 25 {
			t.Errorf("partition %d has %d records", p, len(part))
		}
		for _, kv := range part {
			if kv.Key%4 != p {
				t.Errorf("key %d in partition %d", kv.Key, p)
			}
		}
	}
	// Shuffle metric counted all records.
	if got := ctx.Metrics().ShuffledRecords.Load(); got != 100 {
		t.Errorf("shuffled = %d", got)
	}
}

// TestPartitionByKeepsSourceOrder pins the layout contract of the
// shuffle: inside an output partition rows lie in source order (source
// partition, then position), whichever task finishes first, so two
// shuffles of one input are element-for-element equal.
func TestPartitionByKeepsSourceOrder(t *testing.T) {
	ctx := NewContext(4)
	pairs := make([]Pair[int, int], 20000)
	for i := range pairs {
		pairs[i] = NewPair(i*7919%1000, i)
	}
	part := FuncPartitioner[int]{N: 13, Fn: func(k int) int { return k % 13 }}
	var first [][]Pair[int, int]
	for round := 0; round < 10; round++ {
		shuffled, err := PartitionBy(Parallelize(ctx, pairs, 7), part)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]Pair[int, int], part.N)
		for p := range got {
			if got[p], err = shuffled.ComputePartition(p); err != nil {
				t.Fatal(err)
			}
			for i, kv := range got[p] {
				if kv.Key%13 != p {
					t.Fatalf("round %d: key %d in partition %d", round, kv.Key, p)
				}
				if i > 0 && kv.Value <= got[p][i-1].Value {
					t.Fatalf("round %d partition %d: row %d follows row %d", round, p, kv.Value, got[p][i-1].Value)
				}
			}
		}
		if first == nil {
			first = got
		}
		for p := range got {
			if !slices.Equal(first[p], got[p]) {
				t.Fatalf("round %d: partition %d differs from the first shuffle", round, p)
			}
		}
	}
}

func TestPartitionByClampsOutOfRange(t *testing.T) {
	ctx := NewContext(2)
	pairs := []Pair[int, int]{NewPair(1, 1), NewPair(2, 2)}
	d := Parallelize(ctx, pairs, 1)
	shuffled, err := PartitionBy(d, FuncPartitioner[int]{N: 2, Fn: func(k int) int { return k * 100 }})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := shuffled.Count()
	if n != 2 {
		t.Errorf("count = %d, want 2 (clamped, not dropped)", n)
	}
}

func TestCountByKey(t *testing.T) {
	ctx := NewContext(2)
	pairs := []Pair[string, int]{
		NewPair("a", 1), NewPair("b", 2), NewPair("a", 3),
	}
	d := Parallelize(ctx, pairs, 2)
	counts, err := CountByKey(d)
	if err != nil {
		t.Fatal(err)
	}
	if counts["a"] != 2 || counts["b"] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestMetricsSnapshotReset(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, intRange(10), 5)
	if _, err := d.Collect(); err != nil {
		t.Fatal(err)
	}
	snap := ctx.Metrics().Snapshot()
	if snap.TasksLaunched != 5 {
		t.Errorf("tasks = %d", snap.TasksLaunched)
	}
	ctx.Metrics().Reset()
	if ctx.Metrics().Snapshot().TasksLaunched != 0 {
		t.Error("reset failed")
	}
}

func TestPropShufflePreservesMultiset(t *testing.T) {
	ctx := NewContext(4)
	f := func(keys []int16, nPart uint8) bool {
		if len(keys) == 0 {
			return true
		}
		n := int(nPart%8) + 1
		pairs := make([]Pair[int, int], len(keys))
		for i, k := range keys {
			pairs[i] = NewPair(int(k), i)
		}
		d := Parallelize(ctx, pairs, 3)
		shuffled, err := PartitionBy(d, FuncPartitioner[int]{N: n, Fn: func(k int) int {
			h := k % n
			if h < 0 {
				h += n
			}
			return h
		}})
		if err != nil {
			return false
		}
		out, err := shuffled.Collect()
		if err != nil || len(out) != len(pairs) {
			return false
		}
		// Compare multisets of (key, value).
		count := make(map[Pair[int, int]]int)
		for _, kv := range pairs {
			count[kv]++
		}
		for _, kv := range out {
			count[kv]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestContextDefaults(t *testing.T) {
	ctx := NewContext(0)
	if ctx.Parallelism() <= 0 {
		t.Error("default parallelism must be positive")
	}
}

// TestEachPartitionChunks checks the batch plan under the row ranges the parallel
// streams cut it into: the outputs of consecutive ranges concatenate to
// the partition, for a sourced dataset (zero-copy windows), through a
// narrow chain (scratch batches) and for whichever way a range is cut;
// a cached dataset replays its slices and runs whole; a sampled one runs
// whole and returns what it returns uncut.
func TestEachPartitionChunks(t *testing.T) {
	ctx := NewContext(2)
	data := intRange(1000)

	// ranged streams every partition of d in ranges of at most step source
	// rows and checks the batches against the scratch bound.
	ranged := func(d *Dataset[int], step, maxBatch int) []int {
		t.Helper()
		var got []int
		for p := 0; p < d.NumPartitions(); p++ {
			_, n := d.partitionSize(p)
			if n < 0 {
				t.Fatalf("partition %d of %s cannot be cut", p, d.Name())
			}
			for lo := 0; lo < n; lo += step {
				if err := d.eachRange(p, lo, min(lo+step, n), func(batch []int) bool {
					if len(batch) == 0 || len(batch) > maxBatch {
						t.Fatalf("batch of %d rows, want 1..%d", len(batch), maxBatch)
					}
					got = append(got, batch...)
					return true
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return got
	}

	src := Parallelize(ctx, data, 7)
	chain := fusedChain(src)
	want, err := chain.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []int{1, 3, 64, 143, 5000} {
		if got := ranged(src, step, step); !slices.Equal(got, data) {
			t.Fatalf("step=%d: sourced ranges returned %d rows, want the data", step, len(got))
		}
		if got := ranged(chain, step, scratchRows); !slices.Equal(got, want) {
			t.Fatalf("step=%d: ranges of the fused chain differ from Collect (%d vs %d rows)", step, len(got), len(want))
		}
	}
	// A sourced window is the partition's own memory.
	if err := src.eachRange(0, 10, 20, func(batch []int) bool {
		if &batch[0] != &data[10] || len(batch) != 10 {
			t.Errorf("sourced range is a copy or misplaced (%d rows)", len(batch))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}

	// Cached: one batch, the cached slice itself, and no cutting.
	cached := Map(src, func(v int) int { return v * 2 }).Cache()
	if _, err := cached.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, n := cached.partitionSize(0); n != -1 {
		t.Errorf("cached dataset reports a span of %d, want -1", n)
	}
	whole, _ := cached.ComputePartition(0)
	batches := 0
	if err := cached.eachRange(0, 0, -1, func(batch []int) bool {
		batches++
		if &batch[0] != &whole[0] || len(batch) != len(whole) {
			t.Error("cached partition was not replayed from its slice")
		}
		return true
	}); err != nil || batches != 1 {
		t.Fatalf("cached replay: %d batches, err %v", batches, err)
	}
	// A range cut before the dataset was cached still means rows of the
	// plan's source, not of the cached slice.
	filtered := src.Filter(func(v int) bool { return v%2 == 0 }).Cache()
	if _, err := filtered.Collect(); err != nil {
		t.Fatal(err)
	}
	var half []int
	if err := filtered.eachRange(0, 0, 70, func(batch []int) bool {
		half = append(half, batch...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(half) != 35 || half[34] != 68 {
		t.Errorf("range [0,70) of a cached filter returned %v", half)
	}

	// Sample draws per row in partition order: it cannot be cut, and a
	// chain on top of it cannot either.
	sampled := src.Sample(0.3, 9)
	if _, n := sampled.partitionSize(0); n != -1 {
		t.Errorf("sampled dataset reports a span of %d, want -1", n)
	}
	if _, n := Map(sampled, chainMapF).partitionSize(0); n != -1 {
		t.Errorf("map over a sample reports a span of %d, want -1", n)
	}

	// Early stop: yield=false ends the partition's stream.
	calls := 0
	if err := chain.eachRange(0, 0, -1, func([]int) bool {
		calls++
		return false
	}); err != nil || calls != 1 {
		t.Fatalf("early stop: %d yields, err %v", calls, err)
	}
	if err := src.eachRange(99, 0, -1, func([]int) bool { return true }); err == nil {
		t.Fatal("out-of-range partition did not error")
	}
}
