// Hotspots: density-based clustering of event data with DBSCAN and a
// kNN drill-down — the data-mining workload the paper motivates
// ("find groups of similar events") — written against the public
// fluent DSL.
//
// The pipeline clusters skewed event locations, reports the largest
// hotspots with their centroids, and runs a k nearest neighbour query
// around the biggest hotspot using the partitioned, persistently
// indexed path.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"stark"
	"stark/internal/engine"
	"stark/internal/workload"
)

func main() {
	ctx := stark.NewContext(0)

	tuples := workload.Tuples(workload.Config{
		N: 30_000, Seed: 13, Dist: workload.Skewed, Clusters: 8, Spread: 10,
		Width: 1000, Height: 1000, TimeRange: 1_000_000,
	})
	events := stark.Parallelize(ctx, tuples)

	// DBSCAN over the event locations. The operator derives a BSP
	// partitioning, replicates the ε halo, clusters each partition in
	// parallel and merges across borders.
	recs, n, err := events.Cluster(context.Background(), stark.ClusterOptions{Eps: 8, MinPts: 10})
	if err != nil {
		log.Fatal(err)
	}
	// Each hotspot's size and centroid, and the noise, from the labels.
	sizes := make([]int, n)
	centroids := make([]stark.Point, n)
	noise := 0
	for _, r := range recs {
		if r.Cluster == stark.ClusterNoise {
			noise++
			continue
		}
		c := r.Key.Centroid()
		sizes[r.Cluster]++
		centroids[r.Cluster].X += c.X
		centroids[r.Cluster].Y += c.Y
	}
	for id, size := range sizes {
		centroids[id].X /= float64(size)
		centroids[id].Y /= float64(size)
	}
	fmt.Printf("DBSCAN found %d hotspots (%d noise points of %d events)\n", n, noise, len(recs))

	ids := make([]int, n)
	for id := range ids {
		ids[id] = id
	}
	sort.Slice(ids, func(i, j int) bool { return sizes[ids[i]] > sizes[ids[j]] })
	fmt.Println("largest hotspots:")
	for _, id := range ids[:min(5, n)] {
		fmt.Printf("  hotspot %2d: %6d events around (%.1f, %.1f)\n",
			id, sizes[id], centroids[id].X, centroids[id].Y)
	}
	biggest := centroids[ids[0]]

	// Drill down: the 10 events nearest to the biggest hotspot's
	// centroid, via grid partitioning + persistent indexing — one
	// fluent chain from raw tuples to neighbours.
	q := stark.NewSTObject(biggest)
	nbrs, err := events.
		PartitionBy(stark.Grid(6)).
		Index(stark.Persistent(10)).
		KNN(q, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("10 events nearest to the main hotspot (%.1f, %.1f):\n", biggest.X, biggest.Y)
	for _, nb := range nbrs {
		fmt.Printf("  event %6d at distance %6.2f\n", nb.Value, nb.Distance)
	}

	// Execution statistics: the pruning effect of the partitioner.
	snap := ctx.Recorder().Snapshot()
	fmt.Printf("engine: %d tasks run, %d pruned, %d index probes\n",
		snap[engine.TasksLaunched], snap[engine.TasksSkipped], snap[engine.IndexProbes])
}
