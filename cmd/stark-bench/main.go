// Command stark-bench regenerates the paper's Figure 4: a withinDistance
// self join over N points, run by GeoSpark, SpatialSpark and STARK, each
// with and without its spatial partitioner.
//
// Usage:
//
//	stark-bench -n 1000000
//	stark-bench -n 3000 -parallelism 2
//
// Every supported row counts the same pairs. The query service is
// measured over HTTP, with every reply checked, by bench/e2e (see
// bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"stark/internal/bench"
	"stark/internal/workload"
)

func main() {
	var (
		n           = flag.Int("n", 100_000, "dataset size (the paper uses 1,000,000)")
		parallelism = flag.Int("parallelism", 0, "simulated executors (0 = GOMAXPROCS)")
		seed        = flag.Int64("seed", 42, "data generation seed")
		eps         = flag.Float64("eps", 0, "self-join distance (0 = derived from n)")
		dist        = flag.String("dist", "skewed", "spatial distribution: uniform|skewed|diagonal")
	)
	flag.Parse()

	dists := map[string]workload.Distribution{"uniform": workload.Uniform, "skewed": workload.Skewed, "diagonal": workload.Diagonal}
	d, ok := dists[strings.ToLower(*dist)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown distribution %q\n", *dist)
		os.Exit(2)
	}
	fmt.Printf("== Figure 4: self join on %d points (eps derived/%g, %s data) ==\n", *n, *eps, d)
	rows, err := bench.Figure4(bench.Config{N: *n, Parallelism: *parallelism, Seed: *seed, Eps: *eps, Dist: d})
	if err != nil {
		fmt.Fprintf(os.Stderr, "stark-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(bench.FormatFigure4(rows))
}
