package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stobject"
	"stark/internal/temporal"
)

func TestLiveIndexFilterMatchesScan(t *testing.T) {
	ctx := engine.NewContext(4)
	s, tuples := makeDataset(t, ctx, 1500, 6, 20)
	idx, err := s.LiveIndex(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Order() != 5 {
		t.Errorf("order = %d", idx.Order())
	}
	q := queryPolygon(15, 25, 55, 65)
	got, err := idx.Filter(q, q.Envelope(), stobject.Intersects)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteFilter(tuples, q, stobject.Intersects)
	if !sameIDs(gotIDs(got), want) {
		t.Fatalf("indexed intersects: got %d, want %d", len(got), len(want))
	}
	// All filter variants.
	got, err = idx.Filter(q, q.Envelope(), stobject.ContainedBy)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(gotIDs(got), bruteFilter(tuples, q, stobject.ContainedBy)) {
		t.Error("indexed containedBy mismatch")
	}
	got, err = withinDistance(idx, mustFromWKT("POINT (50 50)"), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(gotIDs(got), bruteFilter(tuples, mustFromWKT("POINT (50 50)"),
		stobject.WithinDistancePredicate(10, nil))) {
		t.Error("indexed withinDistance mismatch")
	}
}

func TestLiveIndexWithRepartitioning(t *testing.T) {
	ctx := engine.NewContext(4)
	s, tuples := makeDataset(t, ctx, 1000, 4, 21)
	g, err := partition.NewGrid(3, keysOf(t, s))
	if err != nil {
		t.Fatal(err)
	}
	// liveIndex(order, partitioner): repartition + index in one step.
	idx, err := s.LiveIndex(5, g)
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumPartitions() != 9 {
		t.Errorf("partitions = %d", idx.NumPartitions())
	}
	if idx.Partitioner() == nil {
		t.Error("partitioner must be carried over")
	}
	q := queryPolygon(10, 10, 30, 30)
	before := ctx.Recorder().Snapshot()
	got, err := idx.Filter(q, q.Envelope(), stobject.Intersects)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteFilter(tuples, q, stobject.Intersects)
	if !sameIDs(gotIDs(got), want) {
		t.Fatalf("got %d, want %d", len(got), len(want))
	}
	snap := ctx.Recorder().Snapshot().Sub(before)
	if snap[engine.TasksSkipped] == 0 {
		t.Error("partitioned indexed filter should prune partitions")
	}
	if snap[engine.IndexProbes] == 0 {
		t.Error("index probes not counted")
	}
}

func TestIndexCountAndCollect(t *testing.T) {
	ctx := engine.NewContext(4)
	s, tuples := makeDataset(t, ctx, 500, 4, 22)
	idx, err := s.Index(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := idx.Count()
	if err != nil || n != 500 {
		t.Fatalf("count = %d err=%v", n, err)
	}
	all, err := idx.Collect()
	if err != nil || len(all) != len(tuples) {
		t.Fatalf("collect = %d err=%v", len(all), err)
	}
	if idx.Context() != ctx {
		t.Error("context mismatch")
	}
}

func TestPersistentIndexRoundTrip(t *testing.T) {
	ctx := engine.NewContext(4)
	s, tuples := makeDataset(t, ctx, 800, 4, 23)
	g, err := partition.NewGrid(2, keysOf(t, s))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := s.PartitionBy(g)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ps.Index(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "indexes", "events")
	if err := idx.Persist(dir); err != nil {
		t.Fatal(err)
	}
	// Persisting again replaces the files and leaves no temporaries.
	if err := idx.Persist(dir); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 {
		t.Fatalf("persisted %d files, want 4", len(files))
	}
	// "Another program": same data, same partitioning, load the index
	// instead of rebuilding.
	loaded, err := LoadIndex(ps, dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Order() != 6 {
		t.Errorf("loaded order = %d", loaded.Order())
	}
	q := queryPolygon(30, 30, 70, 70)
	got, err := loaded.Filter(q, q.Envelope(), stobject.Intersects)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteFilter(tuples, q, stobject.Intersects)
	if !sameIDs(gotIDs(got), want) {
		t.Fatalf("loaded index: got %d, want %d", len(got), len(want))
	}
}

func TestLoadIndexValidatesLayout(t *testing.T) {
	ctx := engine.NewContext(2)
	s, _ := makeDataset(t, ctx, 100, 2, 24)
	idx, err := s.Index(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := idx.Persist(dir); err != nil {
		t.Fatal(err)
	}
	// Different dataset (different sizes) must be rejected.
	other, _ := makeDataset(t, ctx, 60, 2, 25)
	if _, err := LoadIndex(other, dir); err == nil {
		t.Error("mismatched layout must fail")
	}
	// Missing files must be reported.
	if _, err := LoadIndex(s, filepath.Join(dir, "nothing")); err == nil {
		t.Error("missing index must fail")
	}
	// One partition's file gone: the error names the partition.
	if err := os.Remove(filepath.Join(dir, "part-1.idx")); err != nil {
		t.Fatal(err)
	}
	_, err = LoadIndex(s, dir)
	if err == nil || !strings.Contains(err.Error(), "index partition 1") {
		t.Errorf("directory missing part-1.idx: err = %v, want it to name partition 1", err)
	}
}

func TestIndexedTemporalRefinement(t *testing.T) {
	// The R-tree only stores spatial envelopes; the temporal
	// predicate must be applied during candidate refinement.
	ctx := engine.NewContext(2)
	tuples := []Tuple[int]{
		engine.NewPair(stobject.NewWithTime(geom.NewPoint(5, 5), 100), 1),
		engine.NewPair(stobject.NewWithTime(geom.NewPoint(5, 5), 900), 2),
	}
	s := Wrap(engine.Parallelize(ctx, tuples, 1))
	idx, err := s.LiveIndex(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := stobject.NewWithInterval(
		geom.NewEnvelope(0, 0, 10, 10).ToPolygon(),
		temporal.MustInterval(0, 200))
	got, err := idx.Filter(q, q.Envelope(), stobject.ContainedBy)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Value != 1 {
		t.Errorf("got %v, want only record 1", gotIDs(got))
	}
}

func TestIndexReusedAcrossQueries(t *testing.T) {
	// Persistent mode: the tree is built once; further queries only
	// probe. We can't observe build counts directly, but the cached
	// dataset must return identical results across repeated queries.
	ctx := engine.NewContext(2)
	s, tuples := makeDataset(t, ctx, 400, 4, 26)
	idx, err := s.Index(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := queryPolygon(10, 10, 90, 50)
	want := bruteFilter(tuples, q, stobject.Intersects)
	for i := 0; i < 3; i++ {
		got, err := idx.Filter(q, q.Envelope(), stobject.Intersects)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(gotIDs(got), want) {
			t.Fatalf("query %d mismatch", i)
		}
	}
}
