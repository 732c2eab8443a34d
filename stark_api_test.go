// Tests for the public fluent DSL: the quickstart round trip
// (load → partition → index → filter → join → collect), agreement of
// the three indexing modes, and deferred-error propagation — the
// first failed step is the error the terminal action reports, without
// panicking.
package stark_test

import (
	"context"
	"strings"
	"testing"

	"stark"
	"stark/internal/engine"
	"stark/internal/workload"
)

func apiTuples(t testing.TB, n int) []stark.Tuple[int] {
	t.Helper()
	return workload.Tuples(workload.Config{
		N: n, Seed: 11, Dist: workload.Skewed, Width: 1000, Height: 1000, TimeRange: 1000,
	})
}

// apiSpatialTuples returns tuples without a temporal component, for
// spatial-only queries (the combined semantics reject timed/untimed
// mixes).
func apiSpatialTuples(t testing.TB, n int) []stark.Tuple[int] {
	t.Helper()
	return workload.SpatialTuples(workload.Config{
		N: n, Seed: 11, Dist: workload.Skewed, Width: 1000, Height: 1000,
	})
}

// TestFluentRoundTrip drives the full pipeline through the DSL and
// cross-checks every stage against a brute-force reference.
func TestFluentRoundTrip(t *testing.T) {
	ctx := stark.NewContext(4)
	tuples := apiTuples(t, 5_000)

	q := stark.NewSTObjectWithInterval(
		stark.NewEnvelope(200, 200, 600, 600).ToPolygon(),
		stark.MustInterval(0, 400))

	// Brute-force reference for the filter.
	var want []stark.Tuple[int]
	for _, kv := range tuples {
		if kv.Key.ContainedBy(q) {
			want = append(want, kv)
		}
	}
	if len(want) == 0 {
		t.Fatal("degenerate query")
	}

	// load → partition → index → filter → collect, one chain.
	events := stark.Parallelize(ctx, tuples, 8).
		PartitionBy(stark.BSP(500)).
		Index(stark.Live(8))
	filtered := events.ContainedBy(q)
	got, err := filtered.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("filter: got %d records, want %d", len(got), len(want))
	}
	n, err := filtered.Count()
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != len(want) {
		t.Fatalf("count: got %d, want %d", n, len(want))
	}

	// join: regions of interest × filtered events. The regions carry
	// no time, so the events are re-keyed spatially first (mixed
	// timed/untimed pairs never match under the combined semantics).
	regions := workload.Regions(workload.Config{Seed: 5, Width: 1000, Height: 1000}, 200)
	regionTuples := make([]stark.Tuple[int], len(regions))
	for i, r := range regions {
		regionTuples[i] = stark.NewTuple(r, i)
	}
	regionDS := stark.Parallelize(ctx, regionTuples, 2)
	spatial := stark.ReKey(filtered, func(key stark.STObject, _ int) stark.STObject {
		return stark.NewSTObject(key.Geo())
	})
	joined, err := stark.Join(regionDS, spatial, stark.JoinOptions{IndexOrder: -1}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	wantJoin := 0
	for _, r := range regionTuples {
		for _, kv := range want {
			if r.Key.Intersects(stark.NewSTObject(kv.Key.Geo())) {
				wantJoin++
			}
		}
	}
	if len(joined) != wantJoin {
		t.Fatalf("join: got %d pairs, want %d", len(joined), wantJoin)
	}
	if wantJoin == 0 {
		t.Fatal("degenerate join")
	}

	// The headline chain: filter then kNN off the same builder.
	ref := stark.NewSTObject(stark.NewPoint(400, 400))
	nbrs, err := events.Intersects(q).KNN(ref, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != 5 {
		t.Fatalf("kNN returned %d neighbours, want 5", len(nbrs))
	}
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i].Distance < nbrs[i-1].Distance {
			t.Fatal("kNN results not sorted by distance")
		}
	}
}

// TestIndexModesAgree runs one query under all three indexing modes
// and demands identical results — the unified Index(mode) surface
// must not change semantics.
func TestIndexModesAgree(t *testing.T) {
	ctx := stark.NewContext(4)
	tuples := apiSpatialTuples(t, 4_000)
	q := stark.NewSTObject(stark.NewEnvelope(300, 300, 700, 700).ToPolygon())

	base := stark.Parallelize(ctx, tuples, 8).PartitionBy(stark.Grid(4)).Cache()
	ids := func(mode stark.IndexMode) map[int]bool {
		t.Helper()
		rows, err := base.Index(mode).Intersects(q).Collect()
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		out := make(map[int]bool, len(rows))
		for _, kv := range rows {
			out[kv.Value] = true
		}
		return out
	}
	none := ids(stark.NoIndexing)
	live := ids(stark.Live(8))
	persistent := ids(stark.Persistent(8))
	if len(none) == 0 {
		t.Fatal("degenerate query")
	}
	if len(live) != len(none) || len(persistent) != len(none) {
		t.Fatalf("result sizes differ: none=%d live=%d persistent=%d",
			len(none), len(live), len(persistent))
	}
	for id := range none {
		if !live[id] || !persistent[id] {
			t.Fatalf("record %d missing from an indexed mode", id)
		}
	}
}

// TestDeferredErrorPropagation checks that a mid-chain failure is
// carried to the action — and that the FIRST failed step wins even
// when later steps would also fail.
func TestDeferredErrorPropagation(t *testing.T) {
	ctx := stark.NewContext(2)
	tuples := apiTuples(t, 100)
	q := stark.NewSTObject(stark.NewEnvelope(0, 0, 10, 10).ToPolygon())

	// Grid(0) is invalid; Live(1) would be invalid too — the grid
	// error must be the one reported, from every action, sans panic.
	chain := stark.Parallelize(ctx, tuples).
		PartitionBy(stark.Grid(0)).
		Index(stark.Live(1)).
		Intersects(q)

	if _, err := chain.Collect(); err == nil {
		t.Fatal("Collect on failed chain returned nil error")
	} else {
		if !strings.Contains(err.Error(), "partitionBy") {
			t.Errorf("error %q does not name the failing step", err)
		}
		if !strings.Contains(err.Error(), "ppd") {
			t.Errorf("error %q lost the underlying cause", err)
		}
		if strings.Contains(err.Error(), "index order") {
			t.Errorf("error %q reports a later failure, not the first", err)
		}
	}
	if _, err := chain.Count(); err == nil {
		t.Error("Count on failed chain returned nil error")
	}
	if _, err := chain.KNN(q, 3); err == nil {
		t.Error("KNN on failed chain returned nil error")
	}
	if err := chain.Run(); err == nil {
		t.Error("Run on failed chain returned nil error")
	}

	// A failed input poisons a join the same way.
	if _, err := stark.Join(chain, stark.Parallelize(ctx, tuples), stark.JoinOptions{}).Count(); err == nil {
		t.Error("Join with failed left input returned nil error")
	}

	// Errors born in the middle of an otherwise healthy chain.
	if _, err := stark.Parallelize(ctx, tuples).Index(stark.Live(1)).Collect(); err == nil {
		t.Error("invalid index order not reported")
	}
	if _, err := stark.Parallelize(ctx, tuples).Intersects(stark.STObject{}).Collect(); err == nil {
		t.Error("empty query object not reported")
	}

	// A healthy chain still works after all that.
	if _, err := stark.Parallelize(ctx, tuples).Intersects(q).Collect(); err != nil {
		t.Fatalf("healthy chain failed: %v", err)
	}
}

// TestPartitionPruningAtAction verifies that a lazily filtered,
// spatially partitioned chain skips non-overlapping partitions at the
// action — the paper's pruning, preserved through the DSL.
func TestPartitionPruningAtAction(t *testing.T) {
	ctx := stark.NewContext(4)
	tuples := apiSpatialTuples(t, 4_000)
	// A small window around one known record: data to find, but far
	// from most of the skewed clusters, so pruning has partitions to
	// skip.
	c := tuples[0].Key.Centroid()
	q := stark.NewSTObject(stark.NewEnvelope(c.X-40, c.Y-40, c.X+40, c.Y+40).ToPolygon())

	parted := stark.Parallelize(ctx, tuples, 8).PartitionBy(stark.Grid(4))
	if err := parted.Run(); err != nil {
		t.Fatal(err)
	}
	before := ctx.Recorder().Snapshot()[engine.TasksSkipped]
	got, err := parted.Intersects(q).Collect()
	if err != nil {
		t.Fatal(err)
	}
	after := ctx.Recorder().Snapshot()[engine.TasksSkipped]
	if after <= before {
		t.Errorf("no partitions pruned (skipped %d -> %d)", before, after)
	}
	var want int
	for _, kv := range tuples {
		if kv.Key.Intersects(q) {
			want++
		}
	}
	if len(got) != want || want == 0 {
		t.Fatalf("pruned collect returned %d records, want %d", len(got), want)
	}
}

// TestStreamingActions exercises the streaming / short-circuiting
// action surface of the DSL: Count, Take and the ordered stream must
// agree with Collect on the same chain — with and without a spatial
// partitioner (i.e. with partition pruning pending), through persistent
// partition trees and through the concurrent trees of a mutable-dataset
// snapshot — and every action must leave exactly one phase in the
// chain's trace. On the two indexed layouts the probes run inside the
// action, so Take(1) probes one partition and refines fewer candidates
// than Collect. The join mode runs the same battery on a join whose
// left input is the filtered chain: a join is a lazy chain like any
// other.
func TestStreamingActions(t *testing.T) {
	ctx := stark.NewContext(4)
	tuples := apiSpatialTuples(t, 3_000)
	q := stark.NewSTObject(stark.NewEnvelope(100, 100, 700, 700).ToPolygon())

	keys := make([]stark.STObject, len(tuples))
	recs := make([]stark.LiveRecord[int], len(tuples))
	for i, kv := range tuples {
		keys[i] = kv.Key
		recs[i] = stark.LiveRecord[int]{ID: int64(i), Key: kv.Key, Value: kv.Value}
	}
	sp, err := stark.Grid(4).Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	md := stark.NewMutableDataset[int](ctx, "streaming-live", sp, 8)
	if _, err := md.Insert(recs...); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []string{"plain", "partitioned", "indexed", "live", "join"} {
		ds := stark.Parallelize(ctx, tuples, 6)
		switch mode {
		case "partitioned", "join":
			ds = ds.PartitionBy(stark.Grid(4))
		case "indexed":
			ds = ds.PartitionBy(stark.Grid(4)).Index(stark.Persistent(8))
		case "live":
			ds = md.Snapshot()
		}
		filtered := ds.Intersects(q)
		if mode == "join" {
			joined := stark.Join(filtered, ds, stark.JoinOptions{IndexOrder: -1})
			checkStreamingActions(t, mode, joined, func(r stark.JoinRow[int, int]) int { return r.Left })
			streamingJoinChecks(t, ds, q)
			continue
		}
		checkStreamingActions(t, mode, filtered, func(v int) int { return v })

		if mode == "indexed" {
			// Folding a filter through the index keeps the layout.
			n, _ := filtered.NumPartitions()
			sp, err := filtered.Partitioner()
			if err != nil || n != 16 || sp == nil {
				t.Errorf("indexed: filtered chain reports %d partitions, partitioner %v, err=%v; want the grid's 16", n, sp, err)
			}
		}
		if mode == "indexed" || mode == "live" {
			all, one := ds.Intersects(q), ds.Intersects(q)
			if _, err := all.Collect(); err != nil {
				t.Fatal(err)
			}
			if _, err := one.Take(1); err != nil {
				t.Fatal(err)
			}
			full, head := all.Trace(), one.Trace()
			if head.Counter("index_probes") > 1 || full.Counter("index_probes") < 2 {
				t.Errorf("%s: take(1) probed %d partitions, collect %d; want at most 1 and several",
					mode, head.Counter("index_probes"), full.Counter("index_probes"))
			}
			if head.Counter("candidates_refined") >= full.Counter("candidates_refined") {
				t.Errorf("%s: take(1) refined %d candidates, collect %d; want fewer",
					mode, head.Counter("candidates_refined"), full.Counter("candidates_refined"))
			}
		}
	}
}

// checkStreamingActions runs the actions of TestStreamingActions on one
// chain; val reads the payload the rows are compared by.
func checkStreamingActions[V any](t *testing.T, mode string, filtered *stark.Dataset[V], val func(V) int) {
	t.Helper()
	// Planning is its own phase; each action then adds one.
	if err := filtered.Run(); err != nil {
		t.Fatal(err)
	}
	phases := 1
	onePhase := func(name string) {
		t.Helper()
		kids := filtered.Trace().Children
		if len(kids) != phases+1 || kids[len(kids)-1].Op != name {
			t.Errorf("%s: %d phases after %s (last %q), want %d ending in it",
				mode, len(kids), name, kids[len(kids)-1].Op, phases+1)
		}
		phases = len(kids)
	}

	want, err := filtered.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("degenerate query")
	}
	onePhase("collect")

	// A second action on the same Dataset runs the lazy plan again.
	n64, err := filtered.Count()
	if err != nil || n64 != int64(len(want)) {
		t.Errorf("%s: count after collect = %d err=%v, want %d", mode, n64, err, len(want))
	}
	onePhase("count")

	// The ordered stream sees exactly the Collect rows, in partition order.
	var streamed []stark.Tuple[V]
	if err := filtered.StreamParallelContext(context.Background(), func(kv stark.Tuple[V]) bool {
		streamed = append(streamed, kv)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(want) {
		t.Fatalf("%s: stream saw %d rows, collect %d", mode, len(streamed), len(want))
	}
	for i := range streamed {
		if val(streamed[i].Value) != val(want[i].Value) {
			t.Fatalf("%s: stream row %d differs from collect", mode, i)
		}
	}
	onePhase("stream")

	// Early stop.
	n := 0
	if err := filtered.StreamParallelContext(context.Background(), func(stark.Tuple[V]) bool {
		n++
		return n < 7
	}); err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Errorf("%s: stream stop saw %d rows, want 7", mode, n)
	}
	onePhase("stream")

	// Take short-circuits but returns the same prefix.
	head, err := filtered.Take(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(head) != 5 {
		t.Fatalf("%s: take = %d rows", mode, len(head))
	}
	for i := range head {
		if val(head[i].Value) != val(want[i].Value) {
			t.Errorf("%s: take row %d differs from collect", mode, i)
		}
	}
	onePhase("take")
}

// streamingJoinChecks is the join row of TestStreamingActions: under
// every forced strategy the slots load inside the actions, so Take(1)
// builds at most one tree and refines fewer candidates than Collect,
// and a second action on one joined Dataset probes again without
// building again.
func streamingJoinChecks(t *testing.T, ds *stark.Dataset[int], q stark.STObject) {
	t.Helper()
	for _, strategy := range []stark.JoinStrategy{stark.JoinPairs, stark.JoinBroadcast, stark.JoinCoPartition} {
		var repAll, repOne stark.JoinReport
		opts := stark.JoinOptions{IndexOrder: -1, Strategy: strategy}
		opts.Report = &repAll
		all := stark.Join(ds.Intersects(q), ds, opts)
		opts.Report = &repOne
		one := stark.Join(ds.Intersects(q), ds, opts)

		if err := all.Run(); err != nil {
			t.Fatal(err)
		}
		if repAll.Strategy != strategy || repAll.Tasks == 0 || repAll.TreesBuilt != 0 {
			t.Errorf("%v: after Run the report reads strategy=%v tasks=%d trees_built=%d; want the plan and no build",
				strategy, repAll.Strategy, repAll.Tasks, repAll.TreesBuilt)
		}
		n, err := all.Count()
		if err != nil {
			t.Fatal(err)
		}
		counted := repAll
		rows, err := all.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 || int64(len(rows)) != n {
			t.Errorf("%v: count %d, then collect %d rows", strategy, n, len(rows))
		}
		if repAll != counted {
			t.Errorf("%v: the second action changed the report from %+v to %+v", strategy, counted, repAll)
		}
		kids := all.Trace().Children
		if len(kids) != 3 || kids[1].Op != "count" || kids[2].Op != "collect" {
			t.Fatalf("%v: trace holds %d phases, want plan, count, collect", strategy, len(kids))
		}
		if kids[0].Counter("index_probes") != 0 || kids[2].Counter("index_probes") != kids[1].Counter("index_probes") {
			t.Errorf("%v: probes per phase %d/%d/%d, want none while planning and the same for both actions", strategy,
				kids[0].Counter("index_probes"), kids[1].Counter("index_probes"), kids[2].Counter("index_probes"))
		}

		if _, err := one.Take(1); err != nil {
			t.Fatal(err)
		}
		if strategy != stark.JoinBroadcast && repAll.TreesBuilt < 2 {
			t.Fatalf("%v: collect built %d trees; the comparison is vacuous", strategy, repAll.TreesBuilt)
		}
		if repOne.TreesBuilt > 1 {
			t.Errorf("%v: take(1) built %d trees, want at most 1", strategy, repOne.TreesBuilt)
		}
		if head, full := one.Trace().Counter("candidates_refined"), kids[2].Counter("candidates_refined"); head >= full {
			t.Errorf("%v: take(1) refined %d candidates, collect %d; want fewer", strategy, head, full)
		}
	}
}

// TestStreamingActionErrors checks that deferred chain errors and nil
// arguments surface through the streaming actions.
func TestStreamingActionErrors(t *testing.T) {
	ctx := stark.NewContext(2)
	tuples := apiSpatialTuples(t, 100)
	bad := stark.Parallelize(ctx, tuples).Intersects(stark.STObject{})

	if _, err := bad.Take(1); err == nil {
		t.Error("Take on failed chain must error")
	}
	if err := bad.StreamParallelContext(context.Background(), func(stark.Tuple[int]) bool { return true }); err == nil {
		t.Error("StreamParallelContext on failed chain must error")
	}
	if err := stark.Parallelize(ctx, tuples).StreamParallelContext(context.Background(), nil); err == nil {
		t.Error("StreamParallelContext(nil) must error")
	}
}

// TestStreamParallelAgrees pins the parallel ordered stream against
// Collect on plain and partitioned chains.
func TestStreamParallelAgrees(t *testing.T) {
	ctx := stark.NewContext(4)
	tuples := apiSpatialTuples(t, 2_000)
	q := stark.NewSTObject(stark.NewEnvelope(100, 100, 700, 700).ToPolygon())

	for _, mode := range []string{"plain", "partitioned"} {
		ds := stark.Parallelize(ctx, tuples, 6)
		if mode == "partitioned" {
			ds = ds.PartitionBy(stark.Grid(4))
		}
		filtered := ds.Intersects(q)
		want, err := filtered.Collect()
		if err != nil {
			t.Fatal(err)
		}
		var got []stark.Tuple[int]
		if err := filtered.StreamParallelContext(context.Background(), func(kv stark.Tuple[int]) bool {
			got = append(got, kv)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: streamParallel %d rows, collect %d", mode, len(got), len(want))
		}
		for i := range got {
			if got[i].Value != want[i].Value {
				t.Fatalf("%s: row %d differs", mode, i)
			}
		}
	}
}
