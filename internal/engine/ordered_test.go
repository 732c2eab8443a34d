package engine

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// These tests pin streamOrdered, the one job behind the parallel stream
// actions, and the morsels the actions cut for it. Run them with -race,
// and with GOMAXPROCS=1 as CI does: the caller-works and token paths
// interleave differently with one P.

// orderedProbe instruments one streamOrdered call over n tasks whose
// results are their indices: it counts what was started, computed,
// delivered and discarded, and checks on every claim that no more than
// lookAhead × parallelism tasks are claimed beyond the last delivered.
type orderedProbe struct {
	t         *testing.T
	c         *Context
	started   atomic.Int64
	running   atomic.Int64
	computed  atomic.Int64
	delivered atomic.Int64
	discarded atomic.Int64
	got       []int
}

func (o *orderedProbe) task(i int) (int, error) {
	o.running.Add(1)
	defer o.running.Add(-1)
	// delivered is read after started is bumped: every delivery counted
	// here handed its token back before this claim took one.
	if ahead := o.started.Add(1) - o.delivered.Load(); ahead > int64(lookAhead*o.c.Parallelism()) {
		o.t.Errorf("task %d: %d tasks claimed beyond the last delivered, want at most %d", i, ahead, lookAhead*o.c.Parallelism())
	}
	for spin := (i * 7) % 5; spin > 0; spin-- { // uneven tasks, so they finish out of order
		runtime.Gosched()
	}
	o.computed.Add(1)
	return i, nil
}

func (o *orderedProbe) deliver(i int) bool {
	o.got = append(o.got, i)
	o.delivered.Add(1)
	return true
}

func (o *orderedProbe) discard(int) { o.discarded.Add(1) }

// settled checks what must hold when the call has returned: no task is
// running, none starts afterwards, and every result computed was either
// delivered or discarded.
func (o *orderedProbe) settled(what string) {
	o.t.Helper()
	started := o.started.Load()
	for i := 0; i < 50; i++ {
		runtime.Gosched()
	}
	if r := o.running.Load(); r != 0 {
		o.t.Errorf("%s: %d tasks still running after the call returned", what, r)
	}
	if s := o.started.Load(); s != started {
		o.t.Errorf("%s: %d tasks started after the call returned", what, s-started)
	}
	if c, d, x := o.computed.Load(), int64(len(o.got)), o.discarded.Load(); c != d+x {
		o.t.Errorf("%s: %d results computed, %d delivered and %d discarded: %d lost", what, c, d, x, c-d-x)
	}
	if !slices.Equal(o.got, AllPartitions(len(o.got))) {
		o.t.Errorf("%s: delivered out of task order: %v", what, o.got)
	}
}

func TestStreamOrderedDeliversInTaskOrder(t *testing.T) {
	for _, par := range []int{1, 2, 3} {
		for _, n := range []int{0, 1, 2, 5, 64} {
			c := NewContext(par)
			o := &orderedProbe{t: t, c: c}
			before := c.Metrics().Snapshot().TasksLaunched
			if err := streamOrdered(context.Background(), c, c.Recorder(), n, lookAhead*par, o.task, o.deliver, o.discard); err != nil {
				t.Fatal(err)
			}
			o.settled("complete")
			if len(o.got) != n || o.discarded.Load() != 0 {
				t.Errorf("parallelism %d: %d of %d results delivered, %d discarded", par, len(o.got), n, o.discarded.Load())
			}
			if launched := c.Metrics().Snapshot().TasksLaunched - before; launched != int64(n) {
				t.Errorf("parallelism %d: %d tasks charged for %d", par, launched, n)
			}
		}
	}
}

// With parallelism 1 the caller is the only worker: it computes a result
// when it is due and delivers it before it computes the next, on its own
// goroutine (the test's frame is on every task's stack).
func TestStreamOrderedCallerRunsEverythingAtParallelismOne(t *testing.T) {
	c := NewContext(1)
	var log []int // +i: task i ran, -i: result i delivered (from 1)
	err := streamOrdered(nil, c, c.Recorder(), 6, lookAhead, func(i int) (int, error) {
		pcs := make([]uintptr, 64)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(0, pcs)])
		onCaller := false
		for more := true; more && !onCaller; {
			var f runtime.Frame
			f, more = frames.Next()
			onCaller = strings.Contains(f.Function, "TestStreamOrderedCallerRunsEverything")
		}
		if !onCaller {
			t.Errorf("task %d ran on a goroutine of its own", i)
		}
		log = append(log, i+1)
		return i, nil
	}, func(i int) bool {
		log = append(log, -(i + 1))
		return true
	}, func(int) { t.Error("result discarded") })
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6}; !slices.Equal(log, want) {
		t.Errorf("events %v, want %v", log, want)
	}
}

func TestStreamOrderedStops(t *testing.T) {
	const n, at = 40, 7
	boom := errors.New("task failed")
	for _, par := range []int{1, 2, 3} {
		c := NewContext(par)
		window := int64(lookAhead * par)

		// deliver returns false on result `at`.
		o := &orderedProbe{t: t, c: c}
		err := streamOrdered(context.Background(), c, c.Recorder(), n, lookAhead*par, o.task, func(i int) bool {
			o.deliver(i)
			return i < at
		}, o.discard)
		o.settled("deliver false")
		if err != nil || len(o.got) != at+1 {
			t.Errorf("parallelism %d, deliver false: error %v after %d results, want nil after %d", par, err, len(o.got), at+1)
		}
		// Result `at` never handed its token back.
		if s := o.started.Load(); s > at+window {
			t.Errorf("parallelism %d, deliver false: %d tasks started, want at most %d", par, s, at+window)
		}

		// Cancelled while result `at` is being delivered.
		o = &orderedProbe{t: t, c: c}
		cctx, cancel := context.WithCancel(context.Background())
		err = streamOrdered(cctx, c, c.Recorder(), n, lookAhead*par, o.task, func(i int) bool {
			if o.deliver(i); i == at {
				cancel()
			}
			return true
		}, o.discard)
		o.settled("cancel")
		if !errors.Is(err, context.Canceled) || len(o.got) != at+1 {
			t.Errorf("parallelism %d, cancel: error %v after %d results, want context.Canceled after %d", par, err, len(o.got), at+1)
		}
		if s := o.started.Load(); s > at+window {
			t.Errorf("parallelism %d, cancel: %d tasks started, want at most %d", par, s, at+window)
		}
		cancel()

		// Task `at` fails: everything before it is delivered, nothing after,
		// and the failure stops the claims.
		o = &orderedProbe{t: t, c: c}
		err = streamOrdered(context.Background(), c, c.Recorder(), n, lookAhead*par, func(i int) (int, error) {
			if i == at {
				o.started.Add(1)
				return 0, boom
			}
			return o.task(i)
		}, o.deliver, o.discard)
		o.settled("task error")
		if !errors.Is(err, boom) || len(o.got) != at {
			t.Errorf("parallelism %d, task error: error %v after %d results, want the task's after %d", par, err, len(o.got), at)
		}
		if s := o.started.Load(); s > at+window {
			t.Errorf("parallelism %d, task error: %d tasks started, want at most %d", par, s, at+window)
		}

		// A panicking task is a failing task.
		err = streamOrdered(nil, c, c.Recorder(), 3, lookAhead*par, func(i int) (int, error) {
			if i == 1 {
				panic("kaboom")
			}
			return i, nil
		}, func(int) bool { return true }, func(int) {})
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("parallelism %d: a panicking task returned %v", par, err)
		}
	}
}

// TestStreamPartitionsMorsels checks how the stream actions cut their
// tasks: a partition larger than a morsel into equal row ranges, a
// smaller one and an uncuttable one whole — and that the cut changes
// neither the rows nor their order.
func TestStreamPartitionsMorsels(t *testing.T) {
	c := NewContext(2)
	sizes := []int{2*morselRows + 10, 100, 0, morselRows, morselRows + 1}
	parts := make([][]int, len(sizes))
	next := 0
	for p, n := range sizes {
		parts[p] = make([]int, n)
		for i := range parts[p] {
			parts[p][i] = next
			next++
		}
	}
	src := FromPartitions(c, parts)
	even := func(v int) bool { return v%2 == 0 }
	for _, tc := range []struct {
		name  string
		d     *Dataset[int]
		tasks int64
	}{
		{"source", src, 3 + 1 + 1 + 1 + 2},
		{"filter∘map", Map(src, chainMapF).Filter(chainFilterF), 3 + 1 + 1 + 1 + 2},
		{"flatMap", FlatMap(src, chainFlatMapF), 3 + 1 + 1 + 1 + 2},
		{"sample", src.Sample(0.5, 3).Filter(even), 5},
		{"cached", src.Filter(even).Cache(), 5},
		{"row producer", NewStream(c, "rows", len(parts), func(p int, yield func(int) bool) error {
			for _, v := range parts[p] {
				if !yield(v) {
					break
				}
			}
			return nil
		}), 5},
	} {
		want, err := tc.d.Collect()
		if err != nil {
			t.Fatal(err)
		}
		rec := c.NewJobRecorder()
		d := tc.d.WithRecorder(rec)
		var rows []int
		if err := d.StreamPartitionsParallelContext(context.Background(), AllPartitions(len(parts)), func(v int) bool {
			rows = append(rows, v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rows, want) {
			t.Errorf("%s: the row stream returned %d rows, Collect %d, or in another order", tc.name, len(rows), len(want))
		}
		if got := rec.Snapshot().TasksLaunched; got != tc.tasks {
			t.Errorf("%s: the row stream ran %d tasks, want %d", tc.name, got, tc.tasks)
		}
		var enc []byte
		chunks := 0
		if err := d.StreamPartitionsEncodedContext(context.Background(), AllPartitions(len(parts)), appendInt, func(chunk []byte, _ int) bool {
			enc = append(enc, chunk...)
			chunks++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		var wantEnc []byte
		for _, v := range want {
			wantEnc, _ = appendInt(wantEnc, v)
		}
		if string(enc) != string(wantEnc) {
			t.Errorf("%s: the encoded stream differs from the encoding of Collect (%d vs %d bytes)", tc.name, len(enc), len(wantEnc))
		}
		// One chunk per task that had rows (partition 2 is empty).
		if got := rec.Snapshot().TasksLaunched; got != 2*tc.tasks || int64(chunks) != tc.tasks-1 {
			t.Errorf("%s: the encoded stream ran %d tasks and delivered %d chunks, want %d and %d",
				tc.name, got-tc.tasks, chunks, tc.tasks, tc.tasks-1)
		}
	}
	if _, err := src.Collect(); err != nil {
		t.Fatal(err)
	}
	if err := src.StreamPartitionsParallelContext(nil, []int{0, 99}, func(int) bool { return true }); err == nil {
		t.Error("a partition out of range did not fail the stream")
	}
}

// TestStreamPartitionsFirstChunkLeavesEarly is the acceptance test of
// the morsel stream: the first chunk of a one-partition dataset reaches
// the sink before the partition's last row has been scanned.
func TestStreamPartitionsFirstChunkLeavesEarly(t *testing.T) {
	for _, par := range []int{1, 2} {
		c := NewContext(par)
		n := (lookAhead*par + 3) * morselRows
		var last atomic.Int64
		last.Store(-1)
		d := Parallelize(c, intRange(n), 1).Filter(func(v int) bool {
			for seen := last.Load(); int64(v) > seen && !last.CompareAndSwap(seen, int64(v)); seen = last.Load() {
			}
			return v%64 == 0
		})
		chunks := 0
		if err := d.StreamPartitionsEncodedContext(context.Background(), []int{0}, appendInt, func(chunk []byte, rows int) bool {
			if chunks++; chunks == 1 {
				if !strings.HasPrefix(string(chunk), "0\n64\n") {
					t.Errorf("first chunk starts %.10q", chunk)
				}
				if seen := last.Load(); seen >= int64(n-morselRows) {
					t.Errorf("parallelism %d: row %d of %d was scanned before the first chunk left", par, seen, n)
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if want := lookAhead*par + 3; chunks != want {
			t.Errorf("parallelism %d: %d chunks, want one per morsel (%d)", par, chunks, want)
		}
		if last.Load() != int64(n-1) {
			t.Errorf("parallelism %d: the scan ended at row %d of %d", par, last.Load(), n)
		}
	}
}
