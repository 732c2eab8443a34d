// Integration tests exercising the full stack across module
// boundaries: the paper's Figure-2 workflow (load raw data →
// spatially partition → index → persist → query) driven through the
// public fluent DSL, the Piglet scripting path, the web front end,
// and cross-strategy result agreement on the Figure-4 workload.
package stark_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"testing"

	"stark"
	"stark/internal/bench"
	"stark/internal/piglet"
	"stark/internal/server"
	"stark/internal/workload"
)

// TestFigure2Workflow walks the paper's internal workflow end to end:
// raw data in a file → load → spatial partitioning → persistent
// indexing → store the index as a directory of files → reuse in a
// "second program" → query with partition pruning — all through the DSL.
func TestFigure2Workflow(t *testing.T) {
	ctx := stark.NewContext(4)
	dir := t.TempDir()
	rawPath := filepath.Join(dir, "raw", "events.csv")
	indexDir := filepath.Join(dir, "indexes", "events")

	// Raw data lands in a file.
	raw := workload.Events(workload.Config{
		N: 5_000, Seed: 3, Dist: workload.Skewed, Width: 1000, Height: 1000, TimeRange: 1000,
	})
	if err := workload.WriteEventsCSV(rawPath, raw); err != nil {
		t.Fatal(err)
	}

	// Program 1: load, partition, index, persist, and already query.
	loaded, err := workload.ReadEventsCSV(rawPath)
	if err != nil {
		t.Fatal(err)
	}
	tuples, dropped := workload.EventTuples(loaded)
	if dropped != 0 {
		t.Fatalf("%d events dropped", dropped)
	}
	parted := stark.Parallelize(ctx, tuples, 4).PartitionBy(stark.BSP(500))
	idx := parted.Index(stark.Persistent(8))
	if err := idx.SaveIndex(indexDir); err != nil {
		t.Fatal(err)
	}
	q := stark.NewSTObjectWithInterval(
		stark.NewEnvelope(200, 200, 600, 600).ToPolygon(),
		stark.MustInterval(0, 400))
	hits1, err := idx.ContainedBy(q).Collect()
	if err != nil {
		t.Fatal(err)
	}

	// Program 2: same data and partitioning, index loaded from the files.
	hits2, err := stark.LoadIndex(parted, indexDir).ContainedBy(q).Collect()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: unindexed scan.
	hits3, err := parted.ContainedBy(q).Collect()
	if err != nil {
		t.Fatal(err)
	}
	ids := func(ts []stark.Tuple[workload.Event]) []int {
		out := make([]int, len(ts))
		for i, kv := range ts {
			out[i] = kv.Value.ID
		}
		sort.Ints(out)
		return out
	}
	a, b, c := ids(hits1), ids(hits2), ids(hits3)
	if len(a) == 0 {
		t.Fatal("query matched nothing — bad test setup")
	}
	if len(a) != len(b) || len(a) != len(c) {
		t.Fatalf("result sizes: %d/%d/%d", len(a), len(b), len(c))
	}
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("strategies disagree at %d", i)
		}
	}
}

// TestFigure4ResultAgreement checks that every join strategy in the
// benchmark returns the identical pair count at integration scale.
func TestFigure4ResultAgreement(t *testing.T) {
	ctx := stark.NewContext(4)
	tuples := workload.SpatialTuples(workload.Config{
		N: 4_000, Seed: 4, Dist: workload.Skewed, Clusters: 5, Spread: 6,
		Width: 1000, Height: 1000,
	})
	const eps = 1.5
	want := bench.STARKSelfJoinCount(tuples, eps)
	if want <= int64(len(tuples)) {
		t.Fatalf("reference count %d too small", want)
	}

	geo, err := bench.GeoSparkSelfJoin(ctx, tuples, bench.SelfJoinConfig{
		Eps: eps, Partitioner: bench.VoronoiPartitioner, NumSeeds: 16, Dedupe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ssNone, err := bench.SpatialSparkSelfJoin(ctx, tuples, bench.SelfJoinConfig{
		Eps: eps, Partitioner: bench.NoPartitioner,
	})
	if err != nil {
		t.Fatal(err)
	}
	ssTile, err := bench.SpatialSparkSelfJoin(ctx, tuples, bench.SelfJoinConfig{
		Eps: eps, Partitioner: bench.TilePartitioner, PPD: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := stark.Parallelize(ctx, tuples, 4)
	starkCount, err := stark.SelfJoinWithinDistanceCount(ds, eps, -1)
	if err != nil {
		t.Fatal(err)
	}
	starkBSP, err := stark.SelfJoinWithinDistanceCount(ds.PartitionBy(stark.BSP(500)), eps, -1)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]int64{
		"geospark-voronoi": geo, "spatialspark-none": ssNone,
		"spatialspark-tile": ssTile, "stark-none": starkCount, "stark-bsp": starkBSP,
	} {
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestPigletPipelineAgainstAPI cross-checks a Piglet filter against
// the same query through the public DSL.
func TestPigletPipelineAgainstAPI(t *testing.T) {
	root := t.TempDir()
	events := workload.Events(workload.Config{
		N: 2_000, Seed: 8, Width: 1000, Height: 1000, TimeRange: 1000,
	})
	if err := workload.WriteEventsCSV(filepath.Join(root, "data", "events.csv"), events); err != nil {
		t.Fatal(err)
	}
	ctx := stark.NewContext(4)
	out, err := piglet.Run(`
e = LOAD 'data/events.csv';
w = FILTER e BY CONTAINEDBY('POLYGON ((100 100, 500 100, 500 500, 100 500, 100 100))', 200, 800);
`, &piglet.Env{Ctx: ctx, Root: root})
	if err != nil {
		t.Fatal(err)
	}
	// Same query through the DSL.
	tuples, _ := workload.EventTuples(events)
	q := stark.NewSTObjectWithInterval(
		stark.NewEnvelope(100, 100, 500, 500).ToPolygon(),
		stark.MustInterval(200, 800))
	hits, err := stark.Parallelize(ctx, tuples, 4).ContainedBy(q).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.Relations["w"].Rows()); got != len(hits) {
		t.Errorf("piglet %d vs API %d", got, len(hits))
	}
	if len(hits) == 0 {
		t.Error("degenerate comparison")
	}
}

// TestServerAgainstAPI round-trips a query through the HTTP layer and
// compares with the direct DSL result.
func TestServerAgainstAPI(t *testing.T) {
	ctx := stark.NewContext(4)
	events := workload.Events(workload.Config{
		N: 1_000, Seed: 9, Width: 1000, Height: 1000, TimeRange: 1000,
	})
	srv := server.NewService(ctx, server.Options{})
	if err := srv.RegisterEvents(server.DatasetSpec{Name: server.DefaultDataset}, events); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(server.QueryRequest{
		Predicate: "intersects",
		WKT:       "POLYGON ((0 0, 500 0, 500 500, 0 500, 0 0))",
		HasTime:   true, Begin: 0, End: 1000,
	})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	// NDJSON: one feature per line, then the summary line.
	lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
	var resp struct {
		Summary struct {
			Count int `json:"count"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Summary.Count != len(lines)-1 {
		t.Errorf("summary counts %d rows, reply carries %d lines", resp.Summary.Count, len(lines)-1)
	}

	tuples, _ := workload.EventTuples(events)
	q := stark.NewSTObjectWithInterval(
		stark.NewEnvelope(0, 0, 500, 500).ToPolygon(),
		stark.MustInterval(0, 1000))
	hits, err := stark.Parallelize(ctx, tuples, 4).Intersects(q).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Summary.Count != len(hits) {
		t.Errorf("server %d vs API %d", resp.Summary.Count, len(hits))
	}
	if len(hits) == 0 {
		t.Error("degenerate comparison")
	}
}
