package stark

// This file provides the partitioner constructors of the DSL. A
// Partitioner value is a recipe — Grid(4), BSP(1024), Voronoi(64, 7)
// — that Dataset.PartitionBy turns into a concrete spatial
// partitioner over the dataset's keys when the chain resolves, so
// partitioning composes fluently without the caller collecting keys
// or handling construction errors mid-chain.

import (
	"fmt"

	"stark/internal/partition"
)

// Partitioner is a deferred spatial-partitioner recipe consumed by
// Dataset.PartitionBy. Construct values with Grid, BSP or Voronoi.
type Partitioner struct {
	name  string
	build func(keys []STObject) (partition.SpatialPartitioner, error)
}

// String names the recipe for diagnostics.
func (p Partitioner) String() string { return p.name }

// Grid partitions the data space into ppd × ppd equal cells with
// centroid assignment — fast to build, skew-sensitive.
func Grid(ppd int) Partitioner {
	return Partitioner{name: fmt.Sprintf("grid(%d)", ppd), build: func(keys []STObject) (partition.SpatialPartitioner, error) {
		return partition.NewGrid(ppd, keys)
	}}
}

// BSP builds the cost-based binary space partitioner: regions are
// recursively split until they hold at most maxCost objects, so dense
// areas are finely divided and sparse areas stay coarse — the paper's
// skew-robust choice.
func BSP(maxCost int) Partitioner {
	return Partitioner{name: fmt.Sprintf("bsp(%d)", maxCost), build: func(keys []STObject) (partition.SpatialPartitioner, error) {
		return partition.NewBSP(partition.BSPConfig{MaxCost: maxCost}, keys)
	}}
}

// Voronoi partitions by nearest of numSeeds sample seeds drawn with
// the given random seed.
func Voronoi(numSeeds int, seed int64) Partitioner {
	return Partitioner{name: fmt.Sprintf("voronoi(%d)", numSeeds), build: func(keys []STObject) (partition.SpatialPartitioner, error) {
		return partition.NewVoronoi(numSeeds, seed, keys)
	}}
}

// Build materialises the recipe over the given sample keys — the
// out-of-chain constructor for callers that must fix a spatial layout
// before a dataset exists. A mutable dataset is the canonical case:
// its partitioning cannot be derived from data that has not been
// ingested yet, so the layout is built up front from seed keys (or
// from the corners of the intended data space).
func (p Partitioner) Build(keys []STObject) (SpatialPartitioner, error) {
	if p.build == nil {
		return nil, fmt.Errorf("stark: zero Partitioner recipe (use Grid, BSP or Voronoi)")
	}
	return p.build(keys)
}
