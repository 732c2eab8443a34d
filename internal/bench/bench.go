// Package bench implements the benchmark harness that regenerates the
// paper's evaluation: the Figure 4 self-join micro-benchmark
// comparing STARK against the GeoSpark- and SpatialSpark-style
// baselines, plus the ablation experiments (E1–E6 in DESIGN.md)
// covering partitioning, indexing modes, spatio-temporal filtering,
// kNN, DBSCAN and join predicates.
//
// Every experiment is a pure function from a configuration to result
// rows, so the same runners back both the cmd/stark-bench CLI and the
// testing.B benchmarks in the repository root.
package bench

import (
	"fmt"
	"math"
	"os"
	"time"

	"stark/internal/cluster"
	"stark/internal/core"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stobject"
	"stark/internal/temporal"
	"stark/internal/workload"
)

// Config parameterises an experiment run.
type Config struct {
	// N is the dataset size (the paper uses 1,000,000 points).
	N int
	// Parallelism is the simulated executor count; 0 = GOMAXPROCS.
	Parallelism int
	// Seed drives data generation.
	Seed int64
	// Eps is the self-join distance for Figure 4; 0 derives a value
	// that yields a few matches per point at the configured N.
	Eps float64
	// Dist is the spatial distribution (Figure 4 uses Skewed, the
	// property that separates BSP from grid partitioning).
	Dist workload.Distribution
	// Observe, when non-nil, receives every engine context an
	// experiment creates, so callers can harvest metrics snapshots
	// after the run (the -json reporting path of cmd/stark-bench).
	Observe func(*engine.Context) `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 100_000
	}
	if c.Eps <= 0 {
		// Scale ε so the expected number of neighbours per point in
		// the 1000×1000 space stays roughly constant across N.
		c.Eps = 1000.0 / float64(c.N) * 50
		if c.Eps < 0.05 {
			c.Eps = 0.05
		}
	}
	return c
}

// tuples builds the benchmark dataset. The skewed distribution uses
// few, tight clusters — the "events on land, empty sea" property
// whose straggler effect Figure 4's partitioner comparison hinges on.
func (c Config) tuples() []Tuple {
	wc := workload.Config{
		N: c.N, Seed: c.Seed, Dist: c.Dist, Width: 1000, Height: 1000,
	}
	if c.Dist == workload.Skewed {
		wc.Clusters = 5
		wc.Spread = 6
	}
	return workload.SpatialTuples(wc)
}

// timed runs f and returns its duration.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// ---- Figure 4 ----

// Figure4Row is one bar of the paper's Figure 4.
type Figure4Row struct {
	System      string // GeoSpark | SpatialSpark | STARK
	Partitioner string // none | voronoi | tile | bsp
	NA          bool   // true when the combination is unsupported
	Seconds     float64
	Results     int64 // unordered within-eps pairs (incl. self pairs)
}

// Figure4 reruns the paper's micro-benchmark: a self join
// (withinDistance ε) on N points, for each system with and without
// its best spatial partitioner:
//
//	GeoSpark     — N/A unpartitioned; Voronoi partitioner
//	SpatialSpark — unpartitioned; Tile partitioner
//	STARK        — unpartitioned; cost-based BSP partitioner
func Figure4(cfg Config) ([]Figure4Row, error) {
	cfg = cfg.withDefaults()
	ctx := engine.NewContext(cfg.Parallelism)
	if cfg.Observe != nil {
		cfg.Observe(ctx)
	}
	tuples := cfg.tuples()
	var rows []Figure4Row

	// GeoSpark, no partitioning: unsupported.
	rows = append(rows, Figure4Row{System: "GeoSpark", Partitioner: "none", NA: true})

	// GeoSpark, Voronoi.
	var count int64
	dur, err := timed(func() error {
		var err error
		count, err = GeoSparkSelfJoin(ctx, tuples, SelfJoinConfig{
			Eps:         cfg.Eps,
			Partitioner: VoronoiPartitioner,
			NumSeeds:    4 * ctx.Parallelism(),
			Seed:        cfg.Seed,
			Dedupe:      true,
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench: GeoSpark/voronoi: %w", err)
	}
	rows = append(rows, Figure4Row{System: "GeoSpark", Partitioner: "voronoi", Seconds: dur.Seconds(), Results: count})

	// SpatialSpark, no partitioning.
	dur, err = timed(func() error {
		var err error
		count, err = SpatialSparkSelfJoin(ctx, tuples, SelfJoinConfig{
			Eps: cfg.Eps, Partitioner: NoPartitioner,
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench: SpatialSpark/none: %w", err)
	}
	rows = append(rows, Figure4Row{System: "SpatialSpark", Partitioner: "none", Seconds: dur.Seconds(), Results: count})

	// SpatialSpark, Tile.
	dur, err = timed(func() error {
		var err error
		count, err = SpatialSparkSelfJoin(ctx, tuples, SelfJoinConfig{
			Eps: cfg.Eps, Partitioner: TilePartitioner, PPD: 8,
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench: SpatialSpark/tile: %w", err)
	}
	rows = append(rows, Figure4Row{System: "SpatialSpark", Partitioner: "tile", Seconds: dur.Seconds(), Results: count})

	// STARK, no partitioning: partition-pair join with live indexes
	// and per-partition tree reuse, but no extents to prune with.
	dur, err = timed(func() error {
		var err error
		count, err = starkSelfJoin(ctx, tuples, cfg.Eps, nil)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench: STARK/none: %w", err)
	}
	rows = append(rows, Figure4Row{System: "STARK", Partitioner: "none", Seconds: dur.Seconds(), Results: count})

	// STARK, BSP: spatial partitioning + extent pruning + live index.
	dur, err = timed(func() error {
		objs := make([]stobject.STObject, len(tuples))
		for i, kv := range tuples {
			objs[i] = kv.Key
		}
		bsp, err := partition.NewBSP(partition.BSPConfig{
			MaxCost: cfg.N/(4*ctx.Parallelism()) + 1,
		}, objs)
		if err != nil {
			return err
		}
		count, err = starkSelfJoin(ctx, tuples, cfg.Eps, bsp)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench: STARK/bsp: %w", err)
	}
	rows = append(rows, Figure4Row{System: "STARK", Partitioner: "bsp", Seconds: dur.Seconds(), Results: count})

	return rows, nil
}

// starkSelfJoin runs the STARK self join and returns the unordered
// pair count (including self pairs) so results are comparable with
// the baselines.
func starkSelfJoin(ctx *engine.Context, tuples []Tuple, eps float64, sp partition.SpatialPartitioner) (int64, error) {
	ds := core.Wrap(engine.Parallelize(ctx, tuples, ctx.Parallelism()))
	if sp != nil {
		parted, err := ds.PartitionBy(sp)
		if err != nil {
			return 0, err
		}
		ds = parted
	}
	return core.SelfJoinWithinDistanceCount(ds, eps, -1)
}

// FormatFigure4 renders rows in the layout of the paper's figure.
func FormatFigure4(rows []Figure4Row) string {
	out := fmt.Sprintf("%-14s %-12s %12s %14s\n", "System", "Partitioner", "Time [s]", "Result pairs")
	for _, r := range rows {
		if r.NA {
			out += fmt.Sprintf("%-14s %-12s %12s %14s\n", r.System, r.Partitioner, "N/A", "-")
			continue
		}
		out += fmt.Sprintf("%-14s %-12s %12.2f %14d\n", r.System, r.Partitioner, r.Seconds, r.Results)
	}
	return out
}

// ---- E1: partitioning cost and balance ----

// PartitionerRow reports one partitioner's construction cost and
// balance.
type PartitionerRow struct {
	Name       string
	Dist       string
	BuildSecs  float64
	Partitions int
	Imbalance  float64 // max/mean partition size
}

// Partitioners measures grid, BSP and Voronoi construction time and
// partition balance on uniform and skewed data.
func Partitioners(cfg Config) ([]PartitionerRow, error) {
	cfg = cfg.withDefaults()
	var rows []PartitionerRow
	for _, dist := range []workload.Distribution{workload.Uniform, workload.Skewed} {
		objsT := workload.SpatialTuples(workload.Config{
			N: cfg.N, Seed: cfg.Seed, Dist: dist, Width: 1000, Height: 1000,
		})
		objs := make([]stobject.STObject, len(objsT))
		for i, kv := range objsT {
			objs[i] = kv.Key
		}
		type builder struct {
			name string
			mk   func() (partition.SpatialPartitioner, error)
		}
		ppd := 8
		builders := []builder{
			{"grid", func() (partition.SpatialPartitioner, error) { return partition.NewGrid(ppd, objs) }},
			{"bsp", func() (partition.SpatialPartitioner, error) {
				return partition.NewBSP(partition.BSPConfig{MaxCost: cfg.N / (ppd * ppd / 2)}, objs)
			}},
			{"voronoi", func() (partition.SpatialPartitioner, error) {
				return partition.NewVoronoi(ppd*ppd, cfg.Seed, objs)
			}},
		}
		for _, b := range builders {
			var sp partition.SpatialPartitioner
			dur, err := timed(func() error {
				var err error
				sp, err = b.mk()
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("bench: partitioner %s on %s: %w", b.name, dist, err)
			}
			sizes := make([]int, sp.NumPartitions())
			for _, o := range objs {
				sizes[sp.PartitionFor(o)]++
			}
			rows = append(rows, PartitionerRow{
				Name:       b.name,
				Dist:       dist.String(),
				BuildSecs:  dur.Seconds(),
				Partitions: sp.NumPartitions(),
				Imbalance:  partition.Imbalance(sizes),
			})
		}
	}
	return rows, nil
}

// ---- E2: indexing modes ----

// IndexModeRow reports a range-filter time under one indexing mode
// and selectivity.
type IndexModeRow struct {
	Mode        string // none | live | persistent
	Selectivity float64
	Seconds     float64
	Results     int64
}

// IndexModes measures the three indexing modes over a selectivity
// sweep. Persistent mode excludes the one-off build (it measures the
// reuse case the paper motivates persistence with).
func IndexModes(cfg Config) ([]IndexModeRow, error) {
	cfg = cfg.withDefaults()
	ctx := engine.NewContext(cfg.Parallelism)
	if cfg.Observe != nil {
		cfg.Observe(ctx)
	}
	// Uniform data: the selectivity sweep assumes the query box at
	// the space centre matches sel·N records.
	tuples := workload.SpatialTuples(workload.Config{
		N: cfg.N, Seed: cfg.Seed, Dist: workload.Uniform, Width: 1000, Height: 1000,
	})
	ds := core.Wrap(engine.Parallelize(ctx, tuples, 4*ctx.Parallelism())).Cache()
	if _, err := ds.Count(); err != nil { // warm the cache
		return nil, err
	}
	persistent, err := ds.Index(16, nil)
	if err != nil {
		return nil, err
	}
	var rows []IndexModeRow
	for _, sel := range []float64{0.0001, 0.001, 0.01, 0.1} {
		side := 1000 * math.Sqrt(sel)
		q := stobject.New(geom.NewEnvelope(500-side/2, 500-side/2, 500+side/2, 500+side/2).ToPolygon())
		const reps = 3

		var n int64
		dur, err := timed(func() error {
			for r := 0; r < reps; r++ {
				hits, err := ds.Filter(q, q.Envelope(), stobject.Intersects)
				if err != nil {
					return err
				}
				n = int64(len(hits))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, IndexModeRow{Mode: "none", Selectivity: sel, Seconds: dur.Seconds() / reps, Results: n})

		dur, err = timed(func() error {
			for r := 0; r < reps; r++ {
				live, err := ds.LiveIndex(16, nil)
				if err != nil {
					return err
				}
				hits, err := live.Filter(q, q.Envelope(), stobject.Intersects)
				if err != nil {
					return err
				}
				n = int64(len(hits))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, IndexModeRow{Mode: "live", Selectivity: sel, Seconds: dur.Seconds() / reps, Results: n})

		dur, err = timed(func() error {
			for r := 0; r < reps; r++ {
				hits, err := persistent.Filter(q, q.Envelope(), stobject.Intersects)
				if err != nil {
					return err
				}
				n = int64(len(hits))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, IndexModeRow{Mode: "persistent", Selectivity: sel, Seconds: dur.Seconds() / reps, Results: n})
	}
	return rows, nil
}

// ---- E3: spatio-temporal filter ----

// STFilterRow compares spatial-only and spatio-temporal filters.
type STFilterRow struct {
	Query   string
	Seconds float64
	Results int64
}

// STFilter measures a spatial-only filter against the same filter
// with a temporal window: the temporal predicate is evaluated during
// candidate refinement and shrinks the result.
func STFilter(cfg Config) ([]STFilterRow, error) {
	cfg = cfg.withDefaults()
	ctx := engine.NewContext(cfg.Parallelism)
	if cfg.Observe != nil {
		cfg.Observe(ctx)
	}
	tuples := workload.Tuples(workload.Config{
		N: cfg.N, Seed: cfg.Seed, Dist: cfg.Dist, Width: 1000, Height: 1000, TimeRange: 1_000_000,
	})
	ds := core.Wrap(engine.Parallelize(ctx, tuples, 4*ctx.Parallelism())).Cache()
	if _, err := ds.Count(); err != nil {
		return nil, err
	}
	spatialOnly := workload.SpatialTuples(workload.Config{
		N: cfg.N, Seed: cfg.Seed, Dist: cfg.Dist, Width: 1000, Height: 1000,
	})
	dsSpatial := core.Wrap(engine.Parallelize(ctx, spatialOnly, 4*ctx.Parallelism())).Cache()
	if _, err := dsSpatial.Count(); err != nil {
		return nil, err
	}
	box := geom.NewEnvelope(300, 300, 700, 700).ToPolygon()

	var rows []STFilterRow
	var n int64
	dur, err := timed(func() error {
		qs := stobject.New(box)
		hits, err := dsSpatial.Filter(qs, qs.Envelope(), stobject.ContainedBy)
		if err != nil {
			return err
		}
		n = int64(len(hits))
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, STFilterRow{Query: "spatial-only", Seconds: dur.Seconds(), Results: n})

	q := stobject.NewWithInterval(box, temporal.MustInterval(0, 250_000))
	dur, err = timed(func() error {
		hits, err := ds.Filter(q, q.Envelope(), stobject.ContainedBy)
		if err != nil {
			return err
		}
		n = int64(len(hits))
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, STFilterRow{Query: "spatio-temporal (25% window)", Seconds: dur.Seconds(), Results: n})
	return rows, nil
}

// ---- E4: kNN ----

// KNNRow reports one kNN strategy/k combination.
type KNNRow struct {
	Strategy string
	K        int
	Seconds  float64
}

// KNN measures full-scan vs partitioned vs indexed kNN for several k.
func KNN(cfg Config) ([]KNNRow, error) {
	cfg = cfg.withDefaults()
	ctx := engine.NewContext(cfg.Parallelism)
	if cfg.Observe != nil {
		cfg.Observe(ctx)
	}
	tuples := cfg.tuples()
	ds := core.Wrap(engine.Parallelize(ctx, tuples, 4*ctx.Parallelism())).Cache()
	if _, err := ds.Count(); err != nil {
		return nil, err
	}
	objs := make([]stobject.STObject, len(tuples))
	for i, kv := range tuples {
		objs[i] = kv.Key
	}
	grid, err := partition.NewGrid(8, objs)
	if err != nil {
		return nil, err
	}
	parted, err := ds.PartitionBy(grid)
	if err != nil {
		return nil, err
	}
	parted.Cache()
	if _, err := parted.Count(); err != nil {
		return nil, err
	}
	idx, err := parted.Index(16, nil)
	if err != nil {
		return nil, err
	}
	q := stobject.New(geom.NewPoint(500, 500))
	const reps = 5

	var rows []KNNRow
	for _, k := range []int{1, 10, 100} {
		dur, err := timed(func() error {
			for r := 0; r < reps; r++ {
				if _, err := ds.KNN(q, k, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, KNNRow{Strategy: "scan", K: k, Seconds: dur.Seconds() / reps})

		dur, err = timed(func() error {
			for r := 0; r < reps; r++ {
				if _, err := parted.KNN(q, k, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, KNNRow{Strategy: "partitioned", K: k, Seconds: dur.Seconds() / reps})

		dur, err = timed(func() error {
			for r := 0; r < reps; r++ {
				if _, err := idx.KNN(q, k, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, KNNRow{Strategy: "partitioned+indexed", K: k, Seconds: dur.Seconds() / reps})
	}
	return rows, nil
}

// ---- E5: DBSCAN ----

// DBSCANRow reports one clustering strategy.
type DBSCANRow struct {
	Strategy string
	Seconds  float64
	Clusters int
}

// DBSCAN compares sequential DBSCAN with the partitioned MR-DBSCAN
// implementation and verifies they agree.
func DBSCAN(cfg Config) ([]DBSCANRow, error) {
	cfg = cfg.withDefaults()
	n := cfg.N
	if n > 200_000 {
		n = 200_000 // DBSCAN ablation runs at a smaller scale
	}
	pts := workload.Points(workload.Config{
		N: n, Seed: cfg.Seed, Dist: workload.Skewed, Width: 1000, Height: 1000,
	})
	eps, minPts := 2.0, 5
	var rows []DBSCANRow

	var seq cluster.Result
	dur, err := timed(func() error {
		seq = cluster.DBSCAN(pts, eps, minPts)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, DBSCANRow{Strategy: "sequential", Seconds: dur.Seconds(), Clusters: seq.NumClusters})

	ctx := engine.NewContext(cfg.Parallelism)
	if cfg.Observe != nil {
		cfg.Observe(ctx)
	}
	objs := make([]stobject.STObject, len(pts))
	for i, p := range pts {
		objs[i] = stobject.New(p)
	}
	var distRes cluster.Result
	dur, err = timed(func() error {
		bsp, err := partition.NewBSP(partition.BSPConfig{MaxCost: n/(2*ctx.Parallelism()) + 1}, objs)
		if err != nil {
			return err
		}
		home := make([]int, len(objs))
		for i, o := range objs {
			home[i] = bsp.PartitionFor(o)
		}
		distRes, err = cluster.DBSCANDistributed(pts, cluster.DistributedConfig{
			Eps: eps, MinPts: minPts, Regions: bsp, Home: home, Runner: ctx,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, DBSCANRow{Strategy: "distributed (BSP)", Seconds: dur.Seconds(), Clusters: distRes.NumClusters})

	// Cluster count and noise count are order-independent DBSCAN
	// invariants; border-point assignment is not, so the ablation
	// validates on the former.
	if seq.NumClusters != distRes.NumClusters || seq.NoiseCount() != distRes.NoiseCount() {
		return nil, fmt.Errorf("bench: distributed DBSCAN differs from sequential (%d/%d clusters, %d/%d noise)",
			distRes.NumClusters, seq.NumClusters, distRes.NoiseCount(), seq.NoiseCount())
	}
	return rows, nil
}

// ---- E6: join predicates ----

// JoinPredicateRow reports one join predicate's cost.
type JoinPredicateRow struct {
	Predicate string
	Seconds   float64
	Results   int64
}

// JoinPredicates joins points with regions under each predicate.
func JoinPredicates(cfg Config) ([]JoinPredicateRow, error) {
	cfg = cfg.withDefaults()
	ctx := engine.NewContext(cfg.Parallelism)
	if cfg.Observe != nil {
		cfg.Observe(ctx)
	}
	pointsT := cfg.tuples()
	regions := workload.Regions(workload.Config{N: 0, Seed: cfg.Seed, Width: 1000, Height: 1000}, cfg.N/100+10)
	regionT := make([]core.Tuple[int], len(regions))
	for i, r := range regions {
		regionT[i] = engine.NewPair(r, i)
	}
	objs := make([]stobject.STObject, len(pointsT))
	for i, kv := range pointsT {
		objs[i] = kv.Key
	}
	grid, err := partition.NewGrid(8, objs)
	if err != nil {
		return nil, err
	}
	left, err := core.Wrap(engine.Parallelize(ctx, regionT, ctx.Parallelism())).PartitionBy(grid)
	if err != nil {
		return nil, err
	}
	right, err := core.Wrap(engine.Parallelize(ctx, pointsT, ctx.Parallelism())).PartitionBy(grid)
	if err != nil {
		return nil, err
	}

	type pc struct {
		name   string
		pred   stobject.Predicate
		expand float64
	}
	preds := []pc{
		{"intersects", stobject.Intersects, 0},
		{"contains", stobject.Contains, 0},
		{"withinDistance(1)", stobject.WithinDistancePredicate(1, nil), 1},
	}
	var rows []JoinPredicateRow
	for _, p := range preds {
		var n int64
		dur, err := timed(func() (err error) {
			n, err = core.JoinCount(left, right, core.JoinOptions{
				Predicate: p.pred, IndexOrder: -1, ProbeExpansion: p.expand,
			})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: join %s: %w", p.name, err)
		}
		rows = append(rows, JoinPredicateRow{Predicate: p.name, Seconds: dur.Seconds(), Results: n})
	}
	return rows, nil
}

// ---- persistence round trip used by the indexing experiment CLI ----

// PersistIndexRoundTrip builds, persists, reloads and queries an
// index through a temporary directory, returning build and reload
// times — the measurement behind the persistent-indexing discussion.
func PersistIndexRoundTrip(cfg Config) (build, reload time.Duration, err error) {
	cfg = cfg.withDefaults()
	ctx := engine.NewContext(cfg.Parallelism)
	if cfg.Observe != nil {
		cfg.Observe(ctx)
	}
	tuples := cfg.tuples()
	ds := core.Wrap(engine.Parallelize(ctx, tuples, 4*ctx.Parallelism())).Cache()
	if _, err := ds.Count(); err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp("", "stark-bench-persist-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	var idx *core.IndexedDataset[int]
	build, err = timed(func() error {
		var err error
		idx, err = ds.Index(16, nil)
		if err != nil {
			return err
		}
		return idx.Persist(dir)
	})
	if err != nil {
		return 0, 0, err
	}
	reload, err = timed(func() error {
		loaded, err := core.LoadIndex(ds, dir)
		if err != nil {
			return err
		}
		q := stobject.New(geom.NewEnvelope(400, 400, 600, 600).ToPolygon())
		_, err = loaded.Filter(q, q.Envelope(), stobject.Intersects)
		return err
	})
	return build, reload, err
}
