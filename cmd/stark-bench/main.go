// Command stark-bench regenerates the paper's evaluation artefacts.
//
// Usage:
//
//	stark-bench -experiment figure4 -n 1000000
//	stark-bench -experiment all -n 100000 -parallelism 8
//	stark-bench -experiment indexing -n 10000 -json
//
// Experiments: figure4 (the paper's micro-benchmark), partitioning,
// indexing, stfilter, knn, dbscan, joins, join (physical join
// strategies: auto/pairs/broadcast/copartition × layout ×
// selectivity), persist, optimizer (cost-based planner vs naive
// execution), all. The query service, ingest, durability, scan layout
// and attribute paths are measured over HTTP, with every reply checked,
// by bench/e2e (see bench/README.md).
//
// With -json, every experiment additionally writes a machine-readable
// BENCH_<experiment>.json (into -json-dir, default the working
// directory) holding the result rows, wall time, allocation counters
// and the summed engine metrics snapshot — the artefact CI archives
// to track the performance trajectory across PRs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"stark/internal/bench"
	"stark/internal/engine"
	"stark/internal/workload"
)

// jsonReport is the schema of a BENCH_<experiment>.json file.
type jsonReport struct {
	Experiment  string                 `json:"experiment"`
	Config      bench.Config           `json:"config"`
	Rows        interface{}            `json:"rows"`
	WallNs      int64                  `json:"ns_per_op"`     // one op = one experiment run
	Allocs      uint64                 `json:"allocs_per_op"` // heap allocations during the run
	AllocBytes  uint64                 `json:"alloc_bytes_per_op"`
	Metrics     engine.MetricsSnapshot `json:"metrics"` // summed over the run's contexts
	GoVersion   string                 `json:"go_version"`
	GOMAXPROCS  int                    `json:"gomaxprocs"`
	GeneratedAt time.Time              `json:"generated_at"`
}

// writeReport writes the report for one experiment, returning the
// file path.
func writeReport(dir string, rep jsonReport) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", rep.Experiment))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		experiment  = flag.String("experiment", "figure4", "experiment to run: figure4|partitioning|indexing|stfilter|knn|dbscan|joins|join|persist|optimizer|all")
		n           = flag.Int("n", 100_000, "dataset size (the paper uses 1,000,000)")
		parallelism = flag.Int("parallelism", 0, "simulated executors (0 = GOMAXPROCS)")
		seed        = flag.Int64("seed", 42, "data generation seed")
		eps         = flag.Float64("eps", 0, "self-join distance (0 = derived from n)")
		dist        = flag.String("dist", "skewed", "spatial distribution: uniform|skewed|diagonal")
		jsonOut     = flag.Bool("json", false, "write BENCH_<experiment>.json with rows, timings, allocs and metrics")
		jsonDir     = flag.String("json-dir", ".", "directory for -json output files")
	)
	flag.Parse()

	var d workload.Distribution
	switch strings.ToLower(*dist) {
	case "uniform":
		d = workload.Uniform
	case "skewed":
		d = workload.Skewed
	case "diagonal":
		d = workload.Diagonal
	default:
		fmt.Fprintf(os.Stderr, "unknown distribution %q\n", *dist)
		os.Exit(2)
	}
	cfg := bench.Config{N: *n, Parallelism: *parallelism, Seed: *seed, Eps: *eps, Dist: d}

	run := func(name string) error {
		var (
			result interface{}
			ctxs   []*engine.Context
		)
		if *jsonOut {
			cfg.Observe = func(c *engine.Context) { ctxs = append(ctxs, c) }
		}
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		switch name {
		case "figure4":
			fmt.Printf("== Figure 4: self join on %d points (eps derived/%g, %s data) ==\n", *n, *eps, d)
			rows, err := bench.Figure4(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatFigure4(rows))
			result = rows
		case "partitioning":
			fmt.Println("== E1: partitioner construction and balance ==")
			rows, err := bench.Partitioners(cfg)
			if err != nil {
				return err
			}
			fmt.Printf("%-10s %-10s %12s %12s %12s\n", "Partitioner", "Data", "Build [s]", "Partitions", "Imbalance")
			for _, r := range rows {
				fmt.Printf("%-10s %-10s %12.3f %12d %12.2f\n", r.Name, r.Dist, r.BuildSecs, r.Partitions, r.Imbalance)
			}
			result = rows
		case "indexing":
			fmt.Println("== E2: indexing modes (range filter) ==")
			rows, err := bench.IndexModes(cfg)
			if err != nil {
				return err
			}
			fmt.Printf("%-12s %12s %12s %12s\n", "Mode", "Selectivity", "Time [s]", "Results")
			for _, r := range rows {
				fmt.Printf("%-12s %12.4f %12.4f %12d\n", r.Mode, r.Selectivity, r.Seconds, r.Results)
			}
			result = rows
		case "stfilter":
			fmt.Println("== E3: spatial-only vs spatio-temporal filter ==")
			rows, err := bench.STFilter(cfg)
			if err != nil {
				return err
			}
			fmt.Printf("%-30s %12s %12s\n", "Query", "Time [s]", "Results")
			for _, r := range rows {
				fmt.Printf("%-30s %12.4f %12d\n", r.Query, r.Seconds, r.Results)
			}
			result = rows
		case "knn":
			fmt.Println("== E4: kNN strategies ==")
			rows, err := bench.KNN(cfg)
			if err != nil {
				return err
			}
			fmt.Printf("%-22s %6s %12s\n", "Strategy", "k", "Time [s]")
			for _, r := range rows {
				fmt.Printf("%-22s %6d %12.5f\n", r.Strategy, r.K, r.Seconds)
			}
			result = rows
		case "dbscan":
			fmt.Println("== E5: DBSCAN sequential vs distributed ==")
			rows, err := bench.DBSCAN(cfg)
			if err != nil {
				return err
			}
			fmt.Printf("%-20s %12s %12s\n", "Strategy", "Time [s]", "Clusters")
			for _, r := range rows {
				fmt.Printf("%-20s %12.3f %12d\n", r.Strategy, r.Seconds, r.Clusters)
			}
			result = rows
		case "joins":
			fmt.Println("== E6: join predicate sweep (regions × points) ==")
			rows, err := bench.JoinPredicates(cfg)
			if err != nil {
				return err
			}
			fmt.Printf("%-20s %12s %12s\n", "Predicate", "Time [s]", "Results")
			for _, r := range rows {
				fmt.Printf("%-20s %12.3f %12d\n", r.Predicate, r.Seconds, r.Results)
			}
			result = rows
		case "join":
			fmt.Println("== E10: join strategies (strategy × layout × selectivity) ==")
			rows, err := bench.JoinStrategies(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatJoinStrategies(rows))
			result = rows
		case "optimizer":
			fmt.Println("== E8: cost-based planner vs naive execution ==")
			rows, err := bench.Optimizer(cfg)
			if err != nil {
				return err
			}
			fmt.Printf("%-10s %-8s %12s %12s %14s %12s\n", "Variant", "Indexed", "Time [s]", "Results", "Scanned", "Skipped")
			for _, r := range rows {
				fmt.Printf("%-10s %-8v %12.4f %12d %14d %12d\n", r.Variant, r.Indexed, r.Seconds, r.Results, r.ElementsScanned, r.TasksSkipped)
			}
			result = rows
		case "persist":
			fmt.Println("== persistent index round trip ==")
			build, reloadDur, err := bench.PersistIndexRoundTrip(cfg)
			if err != nil {
				return err
			}
			fmt.Printf("build+persist: %.3fs   reload+query: %.3fs\n", build.Seconds(), reloadDur.Seconds())
			result = map[string]float64{
				"buildPersistSecs": build.Seconds(),
				"reloadQuerySecs":  reloadDur.Seconds(),
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		wall := time.Since(start)
		if *jsonOut {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			path, err := writeReport(*jsonDir, jsonReport{
				Experiment:  name,
				Config:      cfg,
				Rows:        result,
				WallNs:      wall.Nanoseconds(),
				Allocs:      m1.Mallocs - m0.Mallocs,
				AllocBytes:  m1.TotalAlloc - m0.TotalAlloc,
				Metrics:     engine.SumSnapshots(ctxs),
				GoVersion:   runtime.Version(),
				GOMAXPROCS:  runtime.GOMAXPROCS(0),
				GeneratedAt: time.Now().UTC(),
			})
			if err != nil {
				return fmt.Errorf("writing json report: %w", err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Println()
		return nil
	}

	names := []string{*experiment}
	if *experiment == "all" {
		names = []string{"figure4", "partitioning", "indexing", "stfilter", "knn", "dbscan", "joins", "join", "persist", "optimizer"}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "stark-bench: %v\n", err)
			os.Exit(1)
		}
	}
}
