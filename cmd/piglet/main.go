// Command piglet runs a piglet script — STARK's Pig Latin derivative —
// against a generated event dataset in a temporary directory, under
// which the script's LOAD and STORE paths resolve.
//
// Usage:
//
//	piglet -script query.pig                 # load 'data/events.csv' inside the script
//	piglet -script query.pig -events 50000   # generate 50k events at data/events.csv
//	echo "DUMP e;" | piglet -script - -events 100
//
// Generated events are seeded and deterministic; STOREd outputs are
// printed to stdout as "path (bytes)" and go with the directory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"stark"
	"stark/internal/piglet"
	"stark/internal/workload"
)

func main() {
	var (
		script      = flag.String("script", "", "script file path ('-' for stdin)")
		events      = flag.Int("events", 10_000, "number of events generated at data/events.csv")
		seed        = flag.Int64("seed", 42, "event generation seed")
		parallelism = flag.Int("parallelism", 0, "simulated executors (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *script == "" {
		fmt.Fprintln(os.Stderr, "piglet: -script is required")
		flag.Usage()
		os.Exit(2)
	}

	var src []byte
	var err error
	if *script == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(*script)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "piglet: reading script: %v\n", err)
		os.Exit(1)
	}

	os.Exit(run(string(src), *events, *seed, *parallelism))
}

// run executes the script under a temporary root directory, which goes
// with it, and returns the exit code.
func run(src string, events int, seed int64, parallelism int) int {
	root, err := os.MkdirTemp("", "piglet-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "piglet: %v\n", err)
		return 1
	}
	defer os.RemoveAll(root)
	evs := workload.Events(workload.Config{
		N: events, Seed: seed, Dist: workload.Skewed, Width: 1000, Height: 1000, TimeRange: 1_000_000,
	})
	if err := workload.WriteEventsCSV(filepath.Join(root, "data", "events.csv"), evs); err != nil {
		fmt.Fprintf(os.Stderr, "piglet: writing events: %v\n", err)
		return 1
	}

	env := &piglet.Env{Ctx: stark.NewContext(parallelism), Root: root}
	out, err := piglet.Run(src, env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "piglet: %v\n", err)
		return 1
	}
	for _, text := range out.Explained {
		fmt.Println(text)
	}
	for _, line := range out.Dumped {
		fmt.Println(line)
	}
	for _, path := range out.Stored {
		info, err := os.Stat(filepath.Join(root, path))
		if err != nil {
			fmt.Fprintf(os.Stderr, "piglet: stored file vanished: %v\n", err)
			return 1
		}
		fmt.Printf("stored %s (%d bytes)\n", path, info.Size())
	}
	return 0
}
