// Package bench regenerates the paper's one experiment, Figure 4: a
// withinDistance self join over skewed points, run by STARK with and
// without its BSP partitioner and by the GeoSpark- and
// SpatialSpark-style baselines (baselines.go) with theirs.
// cmd/stark-bench prints the figure and BenchmarkFigure4EndToEnd in the
// repository root times it; the operators themselves are benchmarked
// through the DSL there, and the service by bench/e2e.
package bench

import (
	"fmt"
	"time"

	"stark/internal/core"
	"stark/internal/engine"
	"stark/internal/partition"
	"stark/internal/stobject"
	"stark/internal/workload"
)

// Config parameterises a Figure 4 run.
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
