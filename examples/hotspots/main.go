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
	labels := make([]int, len(recs))
	points := make([]stark.Point, len(recs))
	for i, r := range recs {
		labels[i] = r.Cluster
		points[i] = r.Key.Centroid()
	}
	res := stark.ClusterResult{Labels: labels, NumClusters: n}
	fmt.Printf("DBSCAN found %d hotspots (%d noise points of %d events)\n",
		n, res.NoiseCount(), len(recs))

	centroids := stark.ClusterCentroids(points, res)
	sizes := res.ClusterSizes()
	fmt.Println("largest hotspots:")
	var biggest stark.Point
	for i, id := range stark.SortClustersBySize(res) {
		if i == 0 {
			biggest = centroids[id]
		}
		if i == 5 {
			break
		}
		fmt.Printf("  hotspot %2d: %6d events around (%.1f, %.1f)\n",
			id, sizes[id], centroids[id].X, centroids[id].Y)
	}

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
