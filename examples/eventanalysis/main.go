// Event analysis: a spatio-temporal join + aggregation pipeline, the
// kind of workload the paper's demonstration section runs over
// Wikipedia event data — written against the public fluent DSL.
//
// The pipeline:
//  1. load raw events from a CSV file (paper schema),
//  2. spatially partition them with the cost-based BSP partitioner,
//  3. join them with a set of "regions of interest" (intersects),
//  4. aggregate matches per region and per category,
//  5. store a report next to the raw data.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"stark"
	"stark/internal/workload"
)

func main() {
	ctx := stark.NewContext(0)
	dir, err := os.MkdirTemp("", "eventanalysis-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Stage the raw data as a file, as the paper's workflow does on HDFS.
	rawPath := filepath.Join(dir, "data", "events.csv")
	raw := workload.Events(workload.Config{
		N: 50_000, Seed: 21, Dist: workload.Skewed,
		Width: 1000, Height: 1000, TimeRange: 1_000_000,
	})
	if err := workload.WriteEventsCSV(rawPath, raw); err != nil {
		log.Fatal(err)
	}

	// Load, key by STObject, and spatially partition with BSP (the
	// skew-robust partitioner) in one chain.
	loaded, err := workload.ReadEventsCSV(rawPath)
	if err != nil {
		log.Fatal(err)
	}
	tuples, _ := workload.EventTuples(loaded)
	parted := stark.Parallelize(ctx, tuples).PartitionBy(stark.BSP(2000))
	nparts, err := parted.NumPartitions()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioned %d events into %d BSP regions\n", len(tuples), nparts)

	// Regions of interest (e.g. administrative areas).
	regions := workload.Regions(workload.Config{Seed: 5, Width: 1000, Height: 1000}, 40)
	regionTuples := make([]stark.Tuple[int], len(regions))
	for i, r := range regions {
		regionTuples[i] = stark.NewTuple(r, i)
	}
	regionDS := stark.Parallelize(ctx, regionTuples, 4)

	// Spatio-temporal join: events inside each region. The events
	// carry time and the regions do not, so the events are re-keyed
	// spatially for the join (the paper's semantics reject mixed
	// timed/untimed pairs).
	spatialEvents := stark.ReKey(parted, func(key stark.STObject, _ workload.Event) stark.STObject {
		return stark.NewSTObject(key.Geo())
	})
	joined, err := stark.Join(regionDS, spatialEvents, stark.JoinOptions{
		Predicate:  stark.Intersects,
		IndexOrder: -1,
	}).Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("join produced %d (region, event) matches\n", len(joined))

	// Aggregate: events per region, and category histogram over all
	// matches.
	perRegion := make(map[int]int)
	perCategory := make(map[string]int)
	for _, kv := range joined {
		perRegion[kv.Value.Left]++
		perCategory[kv.Value.Right.Category]++
	}

	// Report the top regions.
	type rc struct{ region, count int }
	tops := make([]rc, 0, len(perRegion))
	for r, c := range perRegion {
		tops = append(tops, rc{r, c})
	}
	sort.Slice(tops, func(i, j int) bool { return tops[i].count > tops[j].count })
	fmt.Println("busiest regions:")
	for i, t := range tops {
		if i == 5 {
			break
		}
		fmt.Printf("  region %2d: %5d events (%s)\n", t.region, t.count, regions[t.region].Geo().Envelope())
	}

	// Store the per-category report.
	cats := make([]string, 0, len(perCategory))
	for c := range perCategory {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	lines := []string{"category,matches"}
	fmt.Println("matches per category:")
	for _, c := range cats {
		fmt.Printf("  %-10s %6d\n", c, perCategory[c])
		lines = append(lines, fmt.Sprintf("%s,%d", c, perCategory[c]))
	}
	report := strings.Join(lines, "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, "category_report.csv"), []byte(report), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored category_report.csv (%d bytes)\n", len(report))
}
