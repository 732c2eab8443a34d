package bench

import (
	"fmt"

	"stark"
	"stark/internal/engine"
	"stark/internal/workload"
)

// This file implements the `layout` experiment: the same range filter
// executed through the naive row scan (exact predicate on every
// record) versus the columnar sidecar (batched SoA envelope kernels,
// exact predicate only on survivors), with and without the Hilbert
// row sort, on clustered and uniform data at two selectivities. It
// quantifies the gap the columnar scan engine buys on exactly the
// workload the tentpole targets: unindexed clustered data under a
// selective window, where branch-free coarse kernels discard almost
// every row before the exact geometry test runs.

// LayoutRow is one measured (layout × distribution × window) cell.
type LayoutRow struct {
	Layout          string  // row | columnar | columnar-hilbert
	Dist            string  // clustered | uniform
	Window          string  // low | high selectivity class
	Selectivity     float64 // measured: results / N
	NsPerOp         float64 // mean ns per query
	Results         int64
	ElementsScanned int64 // per query, from engine metrics
	KernelBatches   int64 // per query; 0 for the row layout
	KernelSurvivors int64 // per query; 0 for the row layout
}

// Layout runs the experiment. Every variant gets a fresh engine
// context so metrics deltas are attributable, the sidecar is built
// outside the measured window (a long-lived service builds it once),
// and result counts are cross-checked across layouts per cell — a
// faster wrong answer fails the run.
func Layout(cfg Config) ([]LayoutRow, error) {
	cfg = cfg.withDefaults()
	// Enough repeats for the mean to be the steady state: the first run
	// of a planned chain also compiles it (one statistics pass), and since
	// the row scan rejects on the prune envelope the layouts are a third
	// apart, not a factor.
	const reps = 25
	var rows []LayoutRow

	type variant struct {
		name string
		prep func(d *stark.Dataset[int]) *stark.Dataset[int]
	}
	variants := []variant{
		{"row", func(d *stark.Dataset[int]) *stark.Dataset[int] { return d.Optimize(false) }},
		{"columnar", func(d *stark.Dataset[int]) *stark.Dataset[int] { return d.ColumnarLayout(false) }},
		{"columnar-hilbert", func(d *stark.Dataset[int]) *stark.Dataset[int] { return d.ColumnarLayout(true) }},
	}

	for _, dist := range []struct {
		name string
		wc   workload.Config
	}{
		{"clustered", workload.Config{
			N: cfg.N, Seed: cfg.Seed, Dist: workload.Skewed,
			Width: 1000, Height: 1000, Clusters: 8, Spread: 12,
		}},
		{"uniform", workload.Config{
			N: cfg.N, Seed: cfg.Seed, Dist: workload.Uniform, Width: 1000, Height: 1000,
		}},
	} {
		tuples := workload.SpatialTuples(dist.wc)
		// Low selectivity centres a tight window on a real record (so
		// clustered runs hit a cluster, not empty sea); high selectivity
		// covers most of the space.
		c := tuples[0].Key.Centroid()
		windows := []struct {
			name string
			q    stark.STObject
		}{
			{"low", stark.NewSTObject(stark.NewEnvelope(c.X-15, c.Y-15, c.X+15, c.Y+15).ToPolygon())},
			{"high", stark.NewSTObject(stark.NewEnvelope(100, 100, 900, 900).ToPolygon())},
		}
		want := map[string]int64{}
		for _, v := range variants {
			ctx := engine.NewContext(cfg.Parallelism)
			if cfg.Observe != nil {
				cfg.Observe(ctx)
			}
			base := v.prep(stark.Parallelize(ctx, tuples, 4*ctx.Parallelism()))
			// Materialise the layout (columnar sidecar build) outside
			// the measured window.
			if err := base.Run(); err != nil {
				return nil, err
			}
			for _, w := range windows {
				q := base.Intersects(w.q)
				if _, err := q.Count(); err != nil { // compile outside the measured window
					return nil, err
				}
				before := ctx.Metrics().Snapshot()
				var n int64
				dur, err := timed(func() error {
					for r := 0; r < reps; r++ {
						var err error
						n, err = q.Count()
						if err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return nil, err
				}
				after := ctx.Metrics().Snapshot()
				d := after.Sub(before)
				key := dist.name + "/" + w.name
				if prev, ok := want[key]; !ok {
					want[key] = n
				} else if n != prev {
					return nil, fmt.Errorf("bench: layout %s on %s returned %d results, want %d",
						v.name, key, n, prev)
				}
				rows = append(rows, LayoutRow{
					Layout:          v.name,
					Dist:            dist.name,
					Window:          w.name,
					Selectivity:     float64(n) / float64(cfg.N),
					NsPerOp:         float64(dur.Nanoseconds()) / reps,
					Results:         n,
					ElementsScanned: d.ElementsScanned / reps,
					KernelBatches:   d.KernelBatches / reps,
					KernelSurvivors: d.KernelSurvivors / reps,
				})
			}
		}
	}
	return rows, nil
}

// FormatLayout renders the rows as the experiment's text table.
func FormatLayout(rows []LayoutRow) string {
	out := fmt.Sprintf("%-18s %-10s %-6s %12s %14s %10s %12s %10s %10s\n",
		"Layout", "Data", "Window", "Sel", "ns/op", "Results", "Scanned", "Batches", "Survivors")
	for _, r := range rows {
		out += fmt.Sprintf("%-18s %-10s %-6s %12.4f %14.0f %10d %12d %10d %10d\n",
			r.Layout, r.Dist, r.Window, r.Selectivity, r.NsPerOp, r.Results,
			r.ElementsScanned, r.KernelBatches, r.KernelSurvivors)
	}
	return out
}
