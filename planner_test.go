package stark_test

// Acceptance tests for the cost-based planner: a filter over
// clustered data with no caller-specified partitioner or index must
// scan fewer elements planned than naive (stats-based partition
// pruning), EXPLAIN must surface the decisions, and results must be
// identical either way.

import (
	"math/rand"
	"strings"
	"testing"

	"stark"
	"stark/internal/engine"
)

// clusteredTuples builds n records in 8 tight spatial clusters laid
// out in input order, so contiguous-range partitions are spatially
// coherent — the layout ingest order gives real-world event data.
func clusteredTuples(n int) []stark.Tuple[int] {
	tuples := make([]stark.Tuple[int], 0, n)
	perCluster := n / 8
	for c := 0; c < 8; c++ {
		cx := float64(c%4)*250 + 50
		cy := float64(c/4)*500 + 100
		for i := 0; i < perCluster; i++ {
			x := cx + float64(i%20)
			y := cy + float64(i/20%20)
			tuples = append(tuples, stark.NewTuple(
				stark.NewSTObject(stark.Point{X: x, Y: y}), c*perCluster+i))
		}
	}
	return tuples
}

func TestPlannerPrunesWithoutPartitioner(t *testing.T) {
	tuples := clusteredTuples(4000)
	// A window inside cluster 0 only.
	q := stark.NewSTObject(stark.NewEnvelope(45, 95, 75, 125).ToPolygon())

	naiveCtx := stark.NewContext(4)
	naive, err := stark.Parallelize(naiveCtx, tuples, 8).
		Optimize(false).
		Intersects(q).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	naiveScanned := naiveCtx.Recorder().Snapshot()[engine.ElementsScanned]
	if naiveScanned != 4000 {
		t.Fatalf("naive run scanned %d elements, want the full 4000", naiveScanned)
	}

	planCtx := stark.NewContext(4)
	planned, err := stark.Parallelize(planCtx, tuples, 8).
		Intersects(q).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	snap := planCtx.Recorder().Snapshot()
	if snap[engine.ElementsScanned] >= naiveScanned {
		t.Errorf("planned run scanned %d elements, naive %d — no pruning win",
			snap[engine.ElementsScanned], naiveScanned)
	}
	if snap[engine.TasksSkipped] == 0 {
		t.Error("planned run skipped no partitions")
	}
	if len(planned) == 0 || len(planned) != len(naive) {
		t.Fatalf("planned returned %d records, naive %d", len(planned), len(naive))
	}
}

func TestExplainShowsDecisions(t *testing.T) {
	tuples := clusteredTuples(2000)
	q := stark.NewSTObject(stark.NewEnvelope(45, 95, 75, 125).ToPolygon())

	ctx := stark.NewContext(4)
	out, err := stark.Parallelize(ctx, tuples, 8).Intersects(q).Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Filter[intersects",
		"index=",     // the chosen index mode
		"pruned ",    // pruned-partition count
		"est_rows=",  // estimated cardinality
		"act_rows=",  // actual cardinality
		"scan_cost=", // the cost comparison behind the choice
		"Scan[parallelize]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN missing %q in:\n%s", want, out)
		}
	}

	// The naive variant announces the optimizer is off.
	off, err := stark.Parallelize(ctx, tuples, 8).Optimize(false).Intersects(q).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(off, "optimizer=off") {
		t.Errorf("Optimize(false) EXPLAIN missing marker:\n%s", off)
	}
}

func TestPlannerReordersPredicates(t *testing.T) {
	tuples := clusteredTuples(2000)
	wide := stark.NewSTObject(stark.NewEnvelope(-10, -10, 1100, 1100).ToPolygon())
	narrow := stark.NewSTObject(stark.NewEnvelope(45, 95, 75, 125).ToPolygon())

	ctx := stark.NewContext(4)
	chain := stark.Parallelize(ctx, tuples, 8).
		Intersects(wide). // unselective, listed first
		Intersects(narrow)
	out, err := chain.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pred_order=[1") {
		t.Errorf("selective predicate not moved first:\n%s", out)
	}
	got, err := chain.Collect()
	if err != nil {
		t.Fatal(err)
	}
	want, err := stark.Parallelize(ctx, tuples, 8).
		Optimize(false).Intersects(wide).Intersects(narrow).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("reordered result %d records, naive %d", len(got), len(want))
	}
}

func TestPlannerMatchesNaiveAcrossModes(t *testing.T) {
	tuples := clusteredTuples(2000)
	q := stark.NewSTObject(stark.NewEnvelope(40, 90, 320, 640).ToPolygon())
	ctx := stark.NewContext(4)

	base := func() *stark.Dataset[int] { return stark.Parallelize(ctx, tuples, 8) }
	want, err := base().Optimize(false).Intersects(q).Count()
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Fatal("query selects nothing; test is vacuous")
	}
	for name, d := range map[string]*stark.Dataset[int]{
		"planned-scan":        base().Intersects(q),
		"planned-partitioned": base().PartitionBy(stark.Grid(4)).Intersects(q),
		"planned-live":        base().Index(stark.Live(8)).Intersects(q),
		"planned-persistent":  base().Index(stark.Persistent(8)).Intersects(q),
		"planned-distance":    base().WithinDistance(stark.NewSTObject(stark.Point{X: 55, Y: 105}), 20, nil),
	} {
		n, err := d.Count()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "planned-distance" {
			naive, err := base().Optimize(false).
				WithinDistance(stark.NewSTObject(stark.Point{X: 55, Y: 105}), 20, nil).Count()
			if err != nil {
				t.Fatal(err)
			}
			if n != naive {
				t.Errorf("%s: planned %d != naive %d", name, n, naive)
			}
			continue
		}
		if n != want {
			t.Errorf("%s: planned count %d != naive %d", name, n, want)
		}
	}
}

// uniformTuples is n points spread uniformly over [0, 100)², and
// laidOutWindows the windows the laid-out rows are queried with: the
// whole space and windows from 2 to 40 wide, most of which cut some STR
// slab inside its x range.
func uniformTuples(n int) []stark.Tuple[int] {
	rng := rand.New(rand.NewSource(11))
	tuples := make([]stark.Tuple[int], n)
	for i := range tuples {
		tuples[i] = stark.NewTuple(stark.NewSTObject(stark.NewPoint(rng.Float64()*100, rng.Float64()*100)), i)
	}
	return tuples
}

func laidOutWindows() []stark.Envelope {
	rng := rand.New(rand.NewSource(12))
	ws := []stark.Envelope{stark.NewEnvelope(0, 0, 100, 100)}
	for len(ws) < 12 {
		x, y, d := rng.Float64()*100, rng.Float64()*100, 2+rng.Float64()*38
		ws = append(ws, stark.NewEnvelope(x, y, x+d, y+d))
	}
	return ws
}

// TestScanOverLaidOutRows: a persistent index lays its rows out in leaf
// order, which is x order only inside an STR slab, so a scan of them
// must not skip a batch by the x of its first and last rows. Dropping
// the index (NoIndexing) keeps the laid-out rows and scans them, naive
// and planned; both equal the unindexed count.
func TestScanOverLaidOutRows(t *testing.T) {
	tuples := uniformTuples(6000)
	ctx := stark.NewContext(4)
	laid := stark.Parallelize(ctx, tuples, 8).PartitionBy(stark.Grid(4)).Index(stark.Persistent(8)).Index(stark.NoIndexing)
	for _, w := range laidOutWindows() {
		q := stark.NewSTObject(w.ToPolygon())
		want, err := stark.Parallelize(ctx, tuples, 8).Optimize(false).Intersects(q).Count()
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range map[string]*stark.Dataset[int]{
			"naive":   laid.Optimize(false).Intersects(q),
			"planned": laid.Intersects(q),
		} {
			if got, err := d.Count(); err != nil || got != want {
				t.Errorf("%s scan of laid-out rows, window %v: %d rows (%v), unindexed %d", name, w, got, err, want)
			}
		}
	}
}

// TestColumnarAroundPersistentIndex: a columnar sidecar built before
// Index(Persistent) is rebuilt over the rows the index lays out, and one
// built after it addresses them. Either way the planner keeps the
// columnar path, and both answer like the unindexed scan.
func TestColumnarAroundPersistentIndex(t *testing.T) {
	tuples := uniformTuples(6000)
	ctx := stark.NewContext(4)
	base := func() *stark.Dataset[int] { return stark.Parallelize(ctx, tuples, 8).PartitionBy(stark.Grid(8)) }
	for name, d := range map[string]*stark.Dataset[int]{
		"columnar-then-index": base().Columnar().Index(stark.Persistent(8)),
		"index-then-columnar": base().Index(stark.Persistent(8)).Columnar(),
	} {
		columnar := 0
		for _, w := range laidOutWindows() {
			q := stark.NewSTObject(w.ToPolygon())
			want, err := stark.Parallelize(ctx, tuples, 8).Optimize(false).Intersects(q).Count()
			if err != nil {
				t.Fatal(err)
			}
			chain := d.Intersects(q)
			got, err := chain.Count()
			if err != nil || got != want {
				t.Errorf("%s, window %v: %d rows (%v), unindexed %d", name, w, got, err, want)
			}
			text, err := chain.Explain()
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(text, "ColumnarScan") {
				columnar++
			}
		}
		if columnar == 0 {
			t.Errorf("%s: no window ran the columnar scan, the sidecar is gone", name)
		}
	}
}

func TestDatasetStats(t *testing.T) {
	tuples := clusteredTuples(2000)
	ctx := stark.NewContext(4)
	sum, err := stark.Parallelize(ctx, tuples, 8).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Count != 2000 || len(sum.Parts) != 8 {
		t.Fatalf("stats = %s", sum)
	}
	if sum.Grid == nil {
		t.Fatal("no histogram collected")
	}
	// Filters fold before stats: the summary describes the result.
	q := stark.NewSTObject(stark.NewEnvelope(45, 95, 75, 125).ToPolygon())
	filtered, err := stark.Parallelize(ctx, tuples, 8).Intersects(q).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Count == 0 || filtered.Count >= sum.Count {
		t.Errorf("filtered stats count = %d (base %d)", filtered.Count, sum.Count)
	}
}

// TestJoinExplainShowsStrategy: the acceptance shape of the join
// engine — with one side far under the broadcast budget and both
// sides overlapping, EXPLAIN must render Join[broadcast] with the
// cost comparison and the actual task counters, and the report must
// prove fewer tasks than the L×R pair enumeration.
func TestJoinExplainShowsStrategy(t *testing.T) {
	ctx := stark.NewContext(4)
	left := stark.Parallelize(ctx, clusteredTuples(4000), 8)
	right := stark.Parallelize(ctx, clusteredTuples(160), 4)
	var rep stark.JoinReport
	joined := stark.Join(left, right, stark.JoinOptions{
		IndexOrder: -1,
		Report:     &rep,
	})
	text, err := joined.Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Join[broadcast]",
		"costs: pairs=",
		"actual: strategy=broadcast",
		"build_side=right",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, text)
		}
	}
	if rep.Strategy != stark.JoinBroadcast {
		t.Fatalf("strategy = %v, want broadcast", rep.Strategy)
	}
	if rep.Tasks >= rep.TotalPairs {
		t.Errorf("tasks = %d, want fewer than the %d-pair enumeration", rep.Tasks, rep.TotalPairs)
	}

	// Forcing each strategy returns identical results.
	want, err := stark.Join(left, right, stark.JoinOptions{IndexOrder: -1, Strategy: stark.JoinPairs}).Count()
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Fatal("degenerate test: no join results")
	}
	for _, s := range []stark.JoinStrategy{stark.JoinBroadcast, stark.JoinCoPartition, stark.JoinAuto} {
		got, err := stark.Join(left, right, stark.JoinOptions{IndexOrder: -1, Strategy: s}).Count()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("strategy %v: count = %d, want %d", s, got, want)
		}
	}
}
