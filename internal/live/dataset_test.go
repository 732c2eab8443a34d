package live

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stats"
	"stark/internal/stobject"
)

// gridOver builds a ppd×ppd grid partitioner spanning [0,100)².
func gridOver(t testing.TB, ppd int) partition.SpatialPartitioner {
	t.Helper()
	sp, err := partition.NewGrid(ppd, []stobject.STObject{pt(0, 0), pt(100, 100)})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func collectTuples(t testing.TB, s *Snapshot[int]) map[int64]int {
	t.Helper()
	ds := s.Tuples()
	out := make(map[int64]int)
	for p := 0; p < ds.NumPartitions(); p++ {
		err := ds.EachPartition(p, func(kv engine.Pair[stobject.STObject, int]) bool {
			out[int64(kv.Value)]++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestApplyBatchSemantics(t *testing.T) {
	ctx := engine.NewContext(4)
	d := NewDataset[int](ctx, "t", gridOver(t, 2), 8)

	res, err := d.Apply([]Op[int]{
		Insert(1, pt(10, 10), 1),
		Insert(2, pt(90, 90), 2),
		Upsert(3, pt(50, 50), 3),
		Delete[int](99),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 3 || res.Replaced != 0 || res.Deleted != 0 || res.Missing != 1 || res.Gen != 1 {
		t.Fatalf("unexpected result %+v", res)
	}
	if d.Count() != 3 || d.Generation() != 1 {
		t.Fatalf("count=%d gen=%d, want 3/1", d.Count(), d.Generation())
	}

	res, err = d.Apply([]Op[int]{
		Upsert(1, pt(20, 20), 100),
		Delete[int](2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replaced != 1 || res.Deleted != 1 || res.Gen != 2 {
		t.Fatalf("unexpected result %+v", res)
	}
	got := collectTuples(t, d.Snapshot())
	if len(got) != 2 || got[100] != 1 || got[3] != 1 {
		t.Fatalf("live set = %v, want values {100,3}", got)
	}

	if m := ctx.Recorder().Snapshot(); m[engine.LiveBatches] != 2 || m[engine.LiveMutations] != 6 {
		t.Fatalf("metrics batches/mutations = %d/%d, want 2/6", m[engine.LiveBatches], m[engine.LiveMutations])
	}
}

func TestApplyRejectsBadBatchesAtomically(t *testing.T) {
	ctx := engine.NewContext(2)
	d := NewDataset[int](ctx, "t", nil, 8)
	if _, err := d.Apply([]Op[int]{Insert(1, pt(1, 1), 1)}); err != nil {
		t.Fatal(err)
	}

	bad := [][]Op[int]{
		{Insert(2, pt(2, 2), 2), Insert(2, pt(3, 3), 3)}, // duplicate in batch
		{Insert(5, pt(5, 5), 5), Insert(1, pt(1, 1), 1)}, // insert of existing
		{Insert(6, stobject.STObject{}, 6)},              // empty geometry
		{Upsert(7, pt(7, 7), 7), {Kind: OpKind(9)}},      // unknown kind
		{Insert(8, pt(8, 8), 8), Delete[int](8)},         // same id twice
	}
	for i, ops := range bad {
		if _, err := d.Apply(ops); err == nil {
			t.Fatalf("batch %d: expected error", i)
		}
	}
	// Nothing may have leaked from the rejected batches.
	if d.Generation() != 1 || d.Count() != 1 {
		t.Fatalf("gen=%d count=%d after rejected batches, want 1/1", d.Generation(), d.Count())
	}
	got := collectTuples(t, d.Snapshot())
	if len(got) != 1 || got[1] != 1 {
		t.Fatalf("live set = %v, want {1}", got)
	}
}

func TestSnapshotPinsGenerationAcrossVacuum(t *testing.T) {
	ctx := engine.NewContext(2)
	d := NewDataset[int](ctx, "t", nil, 8)

	var ops []Op[int]
	for i := 0; i < 300; i++ {
		ops = append(ops, Insert(int64(i), pt(float64(i%20), float64(i/20)), i))
	}
	if _, err := d.Apply(ops); err != nil {
		t.Fatal(err)
	}
	pinned := d.Snapshot()

	// Delete most records: tombstones exceed live, so vacuum rebuilds.
	ops = ops[:0]
	for i := 0; i < 250; i++ {
		ops = append(ops, Delete[int](int64(i)))
	}
	if _, err := d.Apply(ops); err != nil {
		t.Fatal(err)
	}
	if pa := d.view.Load().parts[0]; pa.dead != 0 {
		t.Fatalf("expected vacuum to rebuild (dead=%d live=%d)", pa.dead, pa.live)
	}

	if got := collectTuples(t, pinned); len(got) != 300 {
		t.Fatalf("pinned snapshot sees %d records after vacuum, want 300", len(got))
	}
	if got := collectTuples(t, d.Snapshot()); len(got) != 50 {
		t.Fatalf("fresh snapshot sees %d records, want 50", len(got))
	}
}

func TestIncrementalStatsMatchCollect(t *testing.T) {
	ctx := engine.NewContext(4)
	d := NewDataset[int](ctx, "t", gridOver(t, 3), 8)
	rng := rand.New(rand.NewSource(11))

	nextID := int64(0)
	liveIDs := make([]int64, 0)
	for batch := 0; batch < 20; batch++ {
		var ops []Op[int]
		for i := 0; i < 40; i++ {
			id := nextID
			nextID++
			key := stobject.NewWithTime(geom.NewPoint(rng.Float64()*100, rng.Float64()*100), stobject.Instant(rng.Int63n(1000)))
			ops = append(ops, Op[int]{Kind: OpInsert, Rec: Record[int]{ID: id, Key: key, Value: int(id)}})
			liveIDs = append(liveIDs, id)
		}
		for i := 0; i < 10 && len(liveIDs) > 0; i++ {
			j := rng.Intn(len(liveIDs))
			id := liveIDs[j]
			liveIDs = append(liveIDs[:j], liveIDs[j+1:]...)
			// Skip if the ID is already in this batch.
			dup := false
			for _, op := range ops {
				if op.Rec.ID == id {
					dup = true
				}
			}
			if dup {
				continue
			}
			ops = append(ops, Delete[int](id))
		}
		if _, err := d.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}

	snap := d.Snapshot()
	inc := snap.Stats()
	exact, err := stats.Collect(snap.Tuples(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Count != exact.Count {
		t.Fatalf("incremental count %d != exact %d", inc.Count, exact.Count)
	}
	if inc.Timed != exact.Timed {
		t.Fatalf("incremental timed %d != exact %d", inc.Timed, exact.Timed)
	}
	if !inc.MBR.ContainsEnvelope(exact.MBR) {
		t.Fatalf("incremental MBR %v does not contain exact %v", inc.MBR, exact.MBR)
	}
	if inc.TimeMin > exact.TimeMin || inc.TimeMax < exact.TimeMax {
		t.Fatalf("incremental time extent [%d,%d] does not contain exact [%d,%d]",
			inc.TimeMin, inc.TimeMax, exact.TimeMin, exact.TimeMax)
	}
	for p := range inc.Parts {
		if inc.Parts[p].Count != exact.Parts[p].Count {
			t.Fatalf("partition %d: incremental count %d != exact %d", p, inc.Parts[p].Count, exact.Parts[p].Count)
		}
		if exact.Parts[p].Count > 0 && !inc.Parts[p].MBR.ContainsEnvelope(exact.Parts[p].MBR) {
			t.Fatalf("partition %d: incremental MBR does not contain exact MBR", p)
		}
	}
	if inc.Grid == nil {
		t.Fatal("incremental summary has no histogram")
	}
	if got, want := inc.Grid.Total, float64(exact.Count); got != want {
		t.Fatalf("histogram total %v != live count %v", got, want)
	}
}

func TestProbeMatchesBruteForce(t *testing.T) {
	ctx := engine.NewContext(4)
	sp := gridOver(t, 3)
	d := NewDataset[int](ctx, "t", sp, 6)
	rng := rand.New(rand.NewSource(3))

	type rec struct{ x, y float64 }
	recs := make(map[int64]rec)
	var ops []Op[int]
	for i := 0; i < 1500; i++ {
		r := rec{rng.Float64() * 100, rng.Float64() * 100}
		recs[int64(i)] = r
		ops = append(ops, Insert(int64(i), pt(r.x, r.y), i))
	}
	if _, err := d.Apply(ops); err != nil {
		t.Fatal(err)
	}

	q := geom.NewEnvelope(20, 20, 70, 55)
	snap := d.Snapshot()
	visit := make([]int, snap.NumPartitions())
	for i := range visit {
		visit[i] = i
	}
	rows, err := snap.Probe(nil, q, func(kv engine.Pair[stobject.STObject, int]) bool {
		c := kv.Key.Centroid()
		return q.ContainsPoint(c.X, c.Y)
	}).CollectPartitions(visit)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, kv := range rows {
		got = append(got, int64(kv.Value))
	}
	var want []int64
	for id, r := range recs {
		if q.ContainsPoint(r.x, r.y) {
			want = append(want, id)
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("probe found %d records, brute force %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("probe result diverges at %d: %d != %d", i, got[i], want[i])
		}
	}

	// The probe is a stream: a consumer that stops after one row stops
	// the search with it.
	all, one := ctx.NewJobRecorder(), ctx.NewJobRecorder()
	keep := func(engine.Pair[stobject.STObject, int]) bool { return true }
	if _, err := snap.Probe(all, q, keep).CollectPartitions(visit); err != nil {
		t.Fatal(err)
	}
	if rows, err := snap.Probe(one, q, keep).TakePartitions(visit, 1); err != nil || len(rows) != 1 {
		t.Fatalf("take(1) over the probe: %d rows, err %v", len(rows), err)
	}
	full, head := all.Snapshot(), one.Snapshot()
	if full[engine.IndexProbes] != int64(len(visit)) || head[engine.IndexProbes] != 1 || head[engine.CandidatesRefined] >= full[engine.CandidatesRefined] {
		t.Errorf("take(1) probed %d partitions and refined %d candidates; collect %d and %d",
			head[engine.IndexProbes], head[engine.CandidatesRefined], full[engine.IndexProbes], full[engine.CandidatesRefined])
	}
}

// TestHammerSnapshotIsolation runs concurrent batch writers... no —
// ONE writer applying deterministic batches while many readers pin
// snapshots and assert batch atomicity: at any published generation g
// the visible set is exactly the deterministic state after g batches.
// Run with -race this is the subsystem's main concurrency gate.
func TestHammerSnapshotIsolation(t *testing.T) {
	const (
		batches   = 120
		batchSize = 25
	)
	ctx := engine.NewContext(8)
	d := NewDataset[int](ctx, "hammer", gridOver(t, 2), 5)

	// expectedCount(g) for the deterministic schedule below: batch k
	// (1-based) inserts batchSize records and deletes the first
	// batchSize/2 records of batch k-2.
	expectedCount := func(g uint64) int {
		n := int(g) * batchSize
		if g >= 3 {
			n -= (int(g) - 2) * (batchSize / 2)
		}
		return n
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 16)
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := d.Snapshot()
				g := snap.Gen()
				want := expectedCount(g)
				switch worker % 3 {
				case 0: // full stream
					got := 0
					ds := snap.Tuples()
					for p := 0; p < ds.NumPartitions(); p++ {
						err := ds.EachPartition(p, func(engine.Pair[stobject.STObject, int]) bool {
							got++
							return true
						})
						if err != nil {
							errCh <- err
							return
						}
					}
					if got != want {
						errCh <- fmt.Errorf("gen %d: streamed %d records, want %d (mixed generations?)", g, got, want)
						return
					}
				case 1: // stats view must agree with the pinned generation
					if c := snap.Count(); int(c) != want {
						errCh <- fmt.Errorf("gen %d: stats count %d, want %d", g, c, want)
						return
					}
				case 2: // index probe over everything
					visit := make([]int, snap.NumPartitions())
					for i := range visit {
						visit[i] = i
					}
					rows, err := snap.Probe(nil, everything, func(engine.Pair[stobject.STObject, int]) bool { return true }).CollectPartitions(visit)
					if err != nil {
						errCh <- err
						return
					}
					if got := len(rows); got != want {
						errCh <- fmt.Errorf("gen %d: probe saw %d records, want %d", g, got, want)
						return
					}
				}
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(1))
	for k := 1; k <= batches; k++ {
		var ops []Op[int]
		base := int64((k - 1) * batchSize)
		for i := 0; i < batchSize; i++ {
			ops = append(ops, Insert(base+int64(i), pt(rng.Float64()*100, rng.Float64()*100), int(base)+i))
		}
		if k >= 3 {
			victim := int64((k - 3) * batchSize)
			for i := 0; i < batchSize/2; i++ {
				ops = append(ops, Delete[int](victim+int64(i)))
			}
		}
		res, err := d.Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		if res.Gen != uint64(k) {
			t.Fatalf("batch %d published gen %d", k, res.Gen)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Differential gate: the mutated dataset must equal a dataset
	// rebuilt from scratch from the surviving records.
	finalSnap := d.Snapshot()
	got := collectTuples(t, finalSnap)
	rebuilt := NewDataset[int](ctx, "rebuilt", gridOver(t, 2), 5)
	var ops []Op[int]
	rng = rand.New(rand.NewSource(1))
	for k := 1; k <= batches; k++ {
		base := int64((k - 1) * batchSize)
		for i := 0; i < batchSize; i++ {
			x, y := rng.Float64()*100, rng.Float64()*100
			deleted := false
			if k <= batches-2 && int64(i) < batchSize/2 {
				deleted = true // batch k+2 deleted it
			}
			if !deleted {
				ops = append(ops, Insert(base+int64(i), pt(x, y), int(base)+i))
			}
		}
	}
	if _, err := rebuilt.Apply(ops); err != nil {
		t.Fatal(err)
	}
	want := collectTuples(t, rebuilt.Snapshot())
	if len(got) != len(want) {
		t.Fatalf("mutated dataset has %d records, rebuilt-from-scratch %d", len(got), len(want))
	}
	for id := range want {
		if got[id] != 1 {
			t.Fatalf("mutated dataset misses record %d present in rebuild", id)
		}
	}
}

func TestOnCommitHookOrdering(t *testing.T) {
	ctx := engine.NewContext(2)
	d := NewDataset[int](ctx, "t", nil, 8)

	var hookGen uint64
	var hookOps int
	fail := false
	d.OnCommit(func(gen uint64, ops []Op[int]) error {
		hookGen = gen
		hookOps = len(ops)
		// The hook runs before mutation: nothing from this batch may be
		// visible yet.
		if d.Generation() >= gen {
			t.Errorf("hook at gen %d but %d already published", gen, d.Generation())
		}
		if fail {
			return fmt.Errorf("disk full")
		}
		return nil
	})

	if _, err := d.Apply([]Op[int]{Insert(1, pt(1, 1), 1)}); err != nil {
		t.Fatal(err)
	}
	if hookGen != 1 || hookOps != 1 {
		t.Fatalf("hook saw gen=%d ops=%d", hookGen, hookOps)
	}

	// A hook error must abort the batch with nothing applied.
	fail = true
	if _, err := d.Apply([]Op[int]{Insert(2, pt(2, 2), 2)}); err == nil {
		t.Fatal("hook error not propagated")
	}
	if d.Count() != 1 || d.Generation() != 1 {
		t.Fatalf("aborted batch leaked: count=%d gen=%d", d.Count(), d.Generation())
	}

	// An invalid batch must be rejected BEFORE the hook runs — nothing
	// unloggable may reach the log.
	hookGen = 0
	if _, err := d.Apply([]Op[int]{Insert(1, pt(3, 3), 3)}); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if hookGen != 0 {
		t.Fatal("hook ran for a batch that failed validation")
	}
}

// TestSnapshotBarrierIncludesCommittedBatch reproduces the checkpoint
// race: a writer whose commit hook already ran (the batch is in the
// WAL) but whose generation has not published yet must be waited for
// by SnapshotBarrier — a checkpoint snapshotting through the plain
// lock-free Snapshot would miss the batch while truncating the log
// segment that holds its only copy.
func TestSnapshotBarrierIncludesCommittedBatch(t *testing.T) {
	ctx := engine.NewContext(2)
	d := NewDataset[int](ctx, "t", nil, 8)

	entered := make(chan struct{})
	release := make(chan struct{})
	d.OnCommit(func(uint64, []Op[int]) error {
		close(entered) // the batch is now "logged"...
		<-release      // ...but publishing is stalled
		return nil
	})
	done := make(chan BatchResult, 1)
	go func() {
		res, err := d.Apply([]Op[int]{Insert(1, pt(10, 10), 1)})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	<-entered

	// The lock-free snapshot misses the in-flight batch — fine for
	// queries, fatal for checkpoints.
	if got := d.Snapshot().Gen(); got != 0 {
		t.Fatalf("lock-free snapshot pinned generation %d mid-commit", got)
	}

	snaps := make(chan *Snapshot[int], 1)
	go func() { snaps <- d.SnapshotBarrier() }()
	select {
	case s := <-snaps:
		t.Fatalf("SnapshotBarrier returned generation %d before the committed batch published", s.Gen())
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	res := <-done
	s := <-snaps
	if s.Gen() != res.Gen || s.Count() != 1 {
		t.Fatalf("barrier snapshot gen=%d count=%d, batch published gen %d", s.Gen(), s.Count(), res.Gen)
	}
}

func TestReplayBatchIdempotentAndGapDetecting(t *testing.T) {
	ctx := engine.NewContext(2)
	d := NewDataset[int](ctx, "t", gridOver(t, 2), 8)
	if _, err := d.Apply([]Op[int]{Insert(1, pt(10, 10), 1)}); err != nil {
		t.Fatal(err)
	}

	// Replaying the already-applied generation is a no-op.
	applied, err := d.ReplayBatch(1, []Op[int]{Insert(1, pt(10, 10), 1)})
	if err != nil || applied {
		t.Fatalf("replay of applied gen: applied=%v err=%v", applied, err)
	}
	if d.Count() != 1 {
		t.Fatalf("idempotent replay changed count to %d", d.Count())
	}

	// The next generation applies, and must not invoke the hook.
	d.OnCommit(func(uint64, []Op[int]) error { return fmt.Errorf("hook must not run on replay") })
	applied, err = d.ReplayBatch(2, []Op[int]{Insert(2, pt(20, 20), 2)})
	if err != nil || !applied {
		t.Fatalf("replay of next gen: applied=%v err=%v", applied, err)
	}
	if d.Count() != 2 || d.Generation() != 2 {
		t.Fatalf("count=%d gen=%d after replay", d.Count(), d.Generation())
	}

	// A generation gap is corruption, not something to paper over.
	if _, err := d.ReplayBatch(5, []Op[int]{Insert(9, pt(5, 5), 9)}); err == nil {
		t.Fatal("generation gap accepted")
	}
}

func TestRestoreReestablishesContinuity(t *testing.T) {
	ctx := engine.NewContext(2)
	d := NewDataset[int](ctx, "t", gridOver(t, 2), 8)
	recs := []Record[int]{
		{ID: 10, Key: pt(10, 10), Value: 100},
		{ID: 20, Key: pt(80, 80), Value: 200},
	}
	if err := d.Restore(7, recs); err != nil {
		t.Fatal(err)
	}
	if d.Generation() != 7 || d.Count() != 2 {
		t.Fatalf("gen=%d count=%d after restore", d.Generation(), d.Count())
	}
	// Log records at or below the checkpoint generation skip; the next
	// one applies.
	if applied, err := d.ReplayBatch(7, []Op[int]{Insert(10, pt(10, 10), 100)}); err != nil || applied {
		t.Fatalf("stale replay: applied=%v err=%v", applied, err)
	}
	if applied, err := d.ReplayBatch(8, []Op[int]{Delete[int](10)}); err != nil || !applied {
		t.Fatalf("suffix replay: applied=%v err=%v", applied, err)
	}
	if d.Count() != 1 {
		t.Fatalf("count=%d after replayed delete", d.Count())
	}

	// Restore refuses non-empty datasets and invalid record sets.
	if err := d.Restore(9, recs); err == nil {
		t.Fatal("Restore into non-empty dataset accepted")
	}
	d2 := NewDataset[int](ctx, "t2", nil, 8)
	if err := d2.Restore(1, []Record[int]{{ID: 1, Key: pt(1, 1)}, {ID: 1, Key: pt(2, 2)}}); err == nil {
		t.Fatal("duplicate IDs in restore set accepted")
	}
	if err := d2.Restore(1, []Record[int]{{ID: 1}}); err == nil {
		t.Fatal("empty geometry in restore set accepted")
	}
	if d2.Generation() != 0 || d2.Count() != 0 {
		t.Fatalf("failed restore mutated dataset: gen=%d count=%d", d2.Generation(), d2.Count())
	}
}

func TestSnapshotEach(t *testing.T) {
	ctx := engine.NewContext(2)
	d := NewDataset[int](ctx, "t", gridOver(t, 2), 8)
	if _, err := d.Apply([]Op[int]{
		Insert(1, pt(10, 10), 100),
		Insert(2, pt(90, 10), 200),
		Insert(3, pt(10, 90), 300),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply([]Op[int]{Delete[int](2)}); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	got := map[int64]int{}
	snap.Each(func(r Record[int]) bool {
		got[r.ID] = r.Value
		return true
	})
	if len(got) != 2 || got[1] != 100 || got[3] != 300 {
		t.Fatalf("Each saw %v", got)
	}
	// Early stop.
	n := 0
	snap.Each(func(Record[int]) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d records", n)
	}
}
