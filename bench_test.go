// Benchmarks of the DSL's operators: partitioners, indexing modes,
// spatio-temporal filters, kNN, DBSCAN, joins and the Figure 4 self
// join. Run with:
//
//	go test -bench=. -benchmem
//
// The query-level benchmarks drive the public stark DSL — the surface
// users run — while the substrate micro-benchmarks at the bottom
// exercise internals directly. The sizes here are scaled down so the
// suite completes quickly; cmd/stark-bench prints Figure 4 at any N
// (the paper uses 1,000,000).
package stark_test

import (
	"math/rand"
	"testing"

	"stark"
	"stark/internal/bench"
	"stark/internal/cluster"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/index"
	"stark/internal/partition"
	"stark/internal/stobject"
	"stark/internal/workload"
)

const benchN = 20_000

func benchCfg() bench.Config {
	return bench.Config{N: benchN, Seed: 42, Dist: workload.Skewed}
}

func benchTuples(b *testing.B, n int) []stark.Tuple[int] {
	b.Helper()
	return workload.SpatialTuples(workload.Config{
		N: n, Seed: 42, Dist: workload.Skewed, Clusters: 5, Spread: 6,
		Width: 1000, Height: 1000,
	})
}

// ---- Figure 4: the self-join micro-benchmark, one sub-benchmark per
// bar of the figure. ----

func BenchmarkFigure4STARKNoPartitioning(b *testing.B) {
	ctx := stark.NewContext(0)
	ds := selfJoinInput(b, ctx, benchTuples(b, benchN), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selfJoinPairs(b, ds, 0.25, benchN)
	}
}

func BenchmarkFigure4STARKBSP(b *testing.B) {
	ctx := stark.NewContext(0)
	ds := selfJoinInput(b, ctx, benchTuples(b, benchN), benchN/32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selfJoinPairs(b, ds, 0.25, benchN)
	}
}

func BenchmarkFigure4GeoSparkVoronoi(b *testing.B) {
	ctx := engine.NewContext(0)
	tuples := benchTuples(b, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := bench.GeoSparkSelfJoin(ctx, tuples, bench.SelfJoinConfig{
			Eps: 0.25, Partitioner: bench.VoronoiPartitioner, NumSeeds: 64, Dedupe: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4SpatialSparkNoPartitioning(b *testing.B) {
	ctx := engine.NewContext(0)
	tuples := benchTuples(b, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := bench.SpatialSparkSelfJoin(ctx, tuples, bench.SelfJoinConfig{
			Eps: 0.25, Partitioner: bench.NoPartitioner,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4SpatialSparkTile(b *testing.B) {
	ctx := engine.NewContext(0)
	tuples := benchTuples(b, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := bench.SpatialSparkSelfJoin(ctx, tuples, bench.SelfJoinConfig{
			Eps: 0.25, Partitioner: bench.TilePartitioner, PPD: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E1: partitioner construction ----

func BenchmarkPartitionersGridSkewed(b *testing.B) {
	tuples := benchTuples(b, benchN)
	objs := make([]stobject.STObject, len(tuples))
	for i, kv := range tuples {
		objs[i] = kv.Key
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.NewGrid(8, objs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionersBSPSkewed(b *testing.B) {
	tuples := benchTuples(b, benchN)
	objs := make([]stobject.STObject, len(tuples))
	for i, kv := range tuples {
		objs[i] = kv.Key
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.NewBSP(partition.BSPConfig{MaxCost: benchN / 64}, objs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionersVoronoiSkewed(b *testing.B) {
	tuples := benchTuples(b, benchN)
	objs := make([]stobject.STObject, len(tuples))
	for i, kv := range tuples {
		objs[i] = kv.Key
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.NewVoronoi(64, 42, objs); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E2: indexing modes (range filter) — the unified Index(mode)
// surface, one sub-benchmark per mode. ----

func indexModeFixture(b *testing.B) (*stark.Dataset[int], stark.STObject) {
	b.Helper()
	ctx := stark.NewContext(0)
	ds := stark.Parallelize(ctx, benchTuples(b, benchN), 4*ctx.Parallelism()).Cache()
	if _, err := ds.Count(); err != nil {
		b.Fatal(err)
	}
	q := stark.NewSTObject(stark.NewEnvelope(450, 450, 550, 550).ToPolygon())
	return ds, q
}

func BenchmarkIndexModeNone(b *testing.B) {
	ds, q := indexModeFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Intersects(q).Collect(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexModeLive(b *testing.B) {
	ds, q := indexModeFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Index(stark.Live(16)).Intersects(q).Collect(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexModePersistent(b *testing.B) {
	ds, q := indexModeFixture(b)
	idx := ds.Index(stark.Persistent(16))
	if err := idx.Run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Intersects(q).Collect(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E3: spatio-temporal filter ----

func BenchmarkSTFilterSpatialOnly(b *testing.B) {
	ds, q := indexModeFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.ContainedBy(q).Collect(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSTFilterSpatioTemporal(b *testing.B) {
	ctx := stark.NewContext(0)
	tuples := workload.Tuples(workload.Config{
		N: benchN, Seed: 42, Dist: workload.Skewed, Width: 1000, Height: 1000, TimeRange: 1_000_000,
	})
	ds := stark.Parallelize(ctx, tuples, 4*ctx.Parallelism()).Cache()
	if _, err := ds.Count(); err != nil {
		b.Fatal(err)
	}
	q, err := stark.FromWKTWithInterval(
		"POLYGON ((450 450, 550 450, 550 550, 450 550, 450 450))", 0, 250_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.ContainedBy(q).Collect(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E4: kNN ----

func knnFixture(b *testing.B) (*stark.Dataset[int], *stark.Dataset[int], stark.STObject) {
	b.Helper()
	ctx := stark.NewContext(0)
	ds := stark.Parallelize(ctx, benchTuples(b, benchN)).Cache()
	if _, err := ds.Count(); err != nil {
		b.Fatal(err)
	}
	idx := ds.PartitionBy(stark.Grid(8)).Index(stark.Persistent(16))
	if err := idx.Run(); err != nil {
		b.Fatal(err)
	}
	return ds, idx, stark.NewSTObject(stark.NewPoint(500, 500))
}

func BenchmarkKNNScan(b *testing.B) {
	ds, _, q := knnFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.KNN(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKNNPartitionedIndexed(b *testing.B) {
	_, idx, q := knnFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.KNN(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E5: DBSCAN ----

func BenchmarkDBSCANSequential(b *testing.B) {
	pts := workload.Points(workload.Config{
		N: benchN, Seed: 42, Dist: workload.Skewed, Width: 1000, Height: 1000,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.DBSCAN(pts, 2.0, 5)
	}
}

func BenchmarkDBSCANDistributed(b *testing.B) {
	pts := workload.Points(workload.Config{
		N: benchN, Seed: 42, Dist: workload.Skewed, Width: 1000, Height: 1000,
	})
	objs := make([]stobject.STObject, len(pts))
	for i, p := range pts {
		objs[i] = stobject.New(p)
	}
	ctx := engine.NewContext(0)
	bsp, err := partition.NewBSP(partition.BSPConfig{MaxCost: benchN / 16}, objs)
	if err != nil {
		b.Fatal(err)
	}
	home := make([]int, len(objs))
	for i, o := range objs {
		home[i] = bsp.PartitionFor(o)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cluster.DBSCANDistributed(pts, cluster.DistributedConfig{
			Eps: 2.0, MinPts: 5, Regions: bsp, Home: home, Run: ctx.RunJob,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E6: join predicates ----

func joinFixture(b *testing.B) (*stark.Dataset[int], *stark.Dataset[int]) {
	b.Helper()
	ctx := stark.NewContext(0)
	pointsT := benchTuples(b, benchN)
	regions := workload.Regions(workload.Config{Seed: 42, Width: 1000, Height: 1000}, 200)
	regionT := make([]stark.Tuple[int], len(regions))
	for i, r := range regions {
		regionT[i] = stark.NewTuple(r, i)
	}
	left := stark.Parallelize(ctx, regionT).Cache()
	right := stark.Parallelize(ctx, pointsT).Cache()
	if _, err := left.Count(); err != nil {
		b.Fatal(err)
	}
	if _, err := right.Count(); err != nil {
		b.Fatal(err)
	}
	return left, right
}

func BenchmarkJoinIntersects(b *testing.B) {
	left, right := joinFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stark.Join(left, right, stark.JoinOptions{IndexOrder: -1}).Collect(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinContains(b *testing.B) {
	left, right := joinFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := stark.JoinOptions{Predicate: stark.Contains, IndexOrder: -1}
		if _, err := stark.Join(left, right, opts).Collect(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinWithinDistance(b *testing.B) {
	left, right := joinFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := stark.JoinOptions{
			Predicate:      stark.WithinDistancePredicate(1, nil),
			IndexOrder:     -1,
			ProbeExpansion: 1,
		}
		if _, err := stark.Join(left, right, opts).Collect(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- substrate micro-benchmarks ----

func BenchmarkRTreeBuild(b *testing.B) {
	tuples := benchTuples(b, benchN)
	envs := make([]geom.Envelope, len(tuples))
	for i, kv := range tuples {
		envs[i] = kv.Key.Envelope()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.BuildFromEnvelopes(16, envs)
	}
}

func BenchmarkRTreeQuery(b *testing.B) {
	tuples := benchTuples(b, benchN)
	envs := make([]geom.Envelope, len(tuples))
	for i, kv := range tuples {
		envs[i] = kv.Key.Envelope()
	}
	tree := index.BuildFromEnvelopes(16, envs)
	q := geom.NewEnvelope(450, 450, 550, 550)
	var buf []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tree.Query(q, buf[:0])
	}
}

func BenchmarkWKTParsePolygon(b *testing.B) {
	const wkt = "POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := geom.ParseWKT(wkt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineShuffle(b *testing.B) {
	ctx := engine.NewContext(0)
	tuples := benchTuples(b, benchN)
	objs := make([]stobject.STObject, len(tuples))
	for i, kv := range tuples {
		objs[i] = kv.Key
	}
	grid, err := partition.NewGrid(8, objs)
	if err != nil {
		b.Fatal(err)
	}
	ds := engine.Parallelize(ctx, tuples, ctx.Parallelism())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := engine.PartitionBy(ds, engine.FuncPartitioner[stobject.STObject]{
			N:  grid.NumPartitions(),
			Fn: grid.PartitionFor,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---- CI gates: two access paths each have to beat the path they
// replace, on the cell where that is the point of them. CI runs
//
//	go test -run '^$' -bench Gate -count 3 .
//
// and compares the best ns/op of the two sub-benchmarks of each gate
// (.github/workflows/ci.yml, "Access-path gates"). Both sides time warm
// Counts of a chain compiled outside the loop, over one 50k-row
// dataset, and have to agree on the count. ----

const gateN = 50_000

// gateSide times warm Counts of q as sub-benchmark name and returns
// the count, so the caller can hold the two sides to one answer.
func gateSide[V any](b *testing.B, name string, q *stark.Dataset[V]) int64 {
	b.Helper()
	want, err := q.Count() // compiles the chain and builds its sidecars
	if err != nil {
		b.Fatal(err)
	}
	b.Run(name, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if n, err := q.Count(); err != nil || n != want {
				b.Fatalf("count = %d, %v; want %d", n, err, want)
			}
		}
	})
	return want
}

// BenchmarkLayoutGate: the columnar kernels over Hilbert-sorted columns
// against the row scan, unindexed clustered data under a tight window
// centred on a record (so it hits a cluster, not empty sea).
func BenchmarkLayoutGate(b *testing.B) {
	tuples := workload.SpatialTuples(workload.Config{
		N: gateN, Seed: 42, Dist: workload.Skewed,
		Width: 1000, Height: 1000, Clusters: 8, Spread: 12,
	})
	c := tuples[0].Key.Centroid()
	window := stark.NewSTObject(stark.NewEnvelope(c.X-15, c.Y-15, c.X+15, c.Y+15).ToPolygon())
	ctx := stark.NewContext(0)
	base := stark.Parallelize(ctx, tuples, 4*ctx.Parallelism())
	col := gateSide(b, "columnar", base.Columnar().Intersects(window))
	row := gateSide(b, "row", base.Optimize(false).Intersects(window))
	if col != row || col == 0 {
		b.Fatalf("columnar counts %d rows, the row scan %d", col, row)
	}
}

// BenchmarkAttrGate: prebuilt postings against a full-scan closure on
// the selective cell, a category about 1 % of the rows carry. With the
// planner off the attribute filter folds into the scan as a closure
// over each row's payload.
func BenchmarkAttrGate(b *testing.B) {
	type rec struct {
		Cat  string
		Fare float64
	}
	cats := []string{"common-a", "common-b", "common-c", "common-d"}
	rng := rand.New(rand.NewSource(42))
	tuples := make([]stark.Tuple[rec], gateN)
	for i := range tuples {
		r := rec{Cat: cats[rng.Intn(len(cats))], Fare: rng.Float64() * 100}
		if rng.Intn(100) == 0 {
			r.Cat = "rare"
		}
		key := stark.NewSTObject(stark.NewPoint(rng.Float64()*1000, rng.Float64()*1000))
		tuples[i] = stark.NewTuple(key, r)
	}
	schema := stark.NewAttrSchema[rec]().
		String("cat", func(_ stark.STObject, r rec) string { return r.Cat }).
		Float64("fare", func(_ stark.STObject, r rec) float64 { return r.Fare })
	ctx := stark.NewContext(0)
	base := stark.Parallelize(ctx, tuples, 4*ctx.Parallelism()).PartitionBy(stark.Grid(4))
	idx := gateSide(b, "postings", base.WithSchema(schema).AttrIndex("cat", "fare").FilterEq("cat", "rare"))
	clo := gateSide(b, "closure", base.WithSchema(schema).Optimize(false).FilterEq("cat", "rare"))
	if idx != clo || idx == 0 {
		b.Fatalf("postings count %d rows, the closure %d", idx, clo)
	}
}

// BenchmarkFigure4EndToEnd runs the whole figure at reduced N; kept
// last because it is the most expensive.
func BenchmarkFigure4EndToEnd(b *testing.B) {
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
