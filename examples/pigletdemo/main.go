// Piglet demo: the scripting path of the demonstration. A complete
// spatio-temporal pipeline — load, partition, filter with a
// spatio-temporal window, cluster, aggregate, kNN, store — expressed
// in STARK's Pig Latin derivative and executed on the engine.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"stark"
	"stark/internal/piglet"
	"stark/internal/workload"
)

const script = `
-- Load the raw event data (paper schema: id, category, time, wkt).
events  = LOAD 'data/events.csv';

-- Spatially partition with the cost-based binary space partitioner.
parted  = PARTITION events BY BSP 1000;

-- Spatio-temporal window: a region during the first quarter of the
-- time range.
window  = FILTER parted BY CONTAINEDBY('POLYGON ((100 100, 700 100, 700 700, 100 700, 100 100))', 0, 250000);

-- Density-based clustering of the windowed events.
spots   = CLUSTER window EPS 12 MINPTS 8;
sizes   = GROUPCOUNT spots BY cluster;

-- Category histogram over the window.
cats    = GROUPCOUNT window BY category;

-- The five events nearest to the map centre.
near    = KNN events QUERY 'POINT (500 500)' K 5;

DUMP sizes;
DUMP cats;
DUMP near;
STORE window INTO 'out/window.csv';
`

func main() {
	// LOAD and STORE paths resolve under this directory.
	root, err := os.MkdirTemp("", "pigletdemo-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)
	events := workload.Events(workload.Config{
		N: 20_000, Seed: 99, Dist: workload.Skewed,
		Width: 1000, Height: 1000, TimeRange: 1_000_000,
	})
	if err := workload.WriteEventsCSV(filepath.Join(root, "data", "events.csv"), events); err != nil {
		log.Fatal(err)
	}

	out, err := piglet.Run(script, &piglet.Env{Ctx: stark.NewContext(0), Root: root})
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range out.Dumped {
		fmt.Println(line)
	}
	for _, path := range out.Stored {
		info, err := os.Stat(filepath.Join(root, path))
		if err != nil {
			log.Print(err)
			continue
		}
		fmt.Printf("stored %s (%d bytes)\n", path, info.Size())
	}
	fmt.Printf("pipeline relations: %d\n", len(out.Relations))
}
