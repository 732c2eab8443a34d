package partition

import (
	"fmt"
	"math"
	"math/rand"

	"stark/internal/geom"
	"stark/internal/stobject"
)

// This file holds the partitioners used by the comparison baselines
// of the Figure-4 experiment: the GeoSpark-style equal tile
// partitioner with object replication, and the SpatialSpark-style
// Voronoi partitioner built from sampled seeds.

// ---- Tile partitioner (replication-based, GeoSpark-style) ----

// Tile divides the data space into ppd × ppd equal cells like Grid,
// but instead of centroid assignment it *replicates* every object
// into each cell its envelope overlaps. Downstream operators must
// prune duplicate results; skipping that pruning is what produced
// GeoSpark's unstable result counts in the paper's evaluation, and
// the baseline reproduces both modes.
type Tile struct {
	cells
}

// NewTile builds a tile partitioner over the envelope of objs.
func NewTile(ppd int, objs []stobject.STObject) (*Tile, error) {
	c, err := cellsOver("tile", ppd, objs)
	if err != nil {
		return nil, err
	}
	return &Tile{c}, nil
}

// NumPartitions implements SpatialPartitioner.
func (t *Tile) NumPartitions() int { return t.ppd * t.ppd }

// PartitionFor implements SpatialPartitioner (centroid cell; used
// when the tile partitioner is driven without replication).
func (t *Tile) PartitionFor(o stobject.STObject) int {
	c := o.Centroid()
	return t.row(c.Y)*t.ppd + t.col(c.X)
}

// PartitionsFor returns every cell the envelope of o overlaps.
func (t *Tile) PartitionsFor(o stobject.STObject) []int {
	env := o.Envelope()
	if env.IsEmpty() {
		return nil
	}
	c0, c1 := t.col(env.MinX), t.col(env.MaxX)
	r0, r1 := t.row(env.MinY), t.row(env.MaxY)
	out := make([]int, 0, (c1-c0+1)*(r1-r0+1))
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			out = append(out, r*t.ppd+c)
		}
	}
	return out
}

// Extent implements SpatialPartitioner. With replication, a cell
// never holds data beyond its bounds, so the extent is the cell.
func (t *Tile) Extent(i int) geom.Envelope { return t.bounds(i) }

// ---- Voronoi partitioner (sample-seeded, SpatialSpark-style) ----

// Voronoi partitions by nearest seed: numSeeds seed points are drawn
// from the data (deterministically from seed), and an object belongs
// to the partition of its nearest seed. Its cells are polygons it does
// not compute, so a partition has only its extent. Nearest-seed lookup is
// accelerated with a uniform grid over the seeds and an
// expanding-ring search.
type Voronoi struct {
	seeds   []geom.Point
	extents []geom.Envelope
	grid    cells     // the seed lookup grid over the seeds' envelope
	buckets [][]int32 // seed indices per grid cell
}

// NewVoronoi builds a Voronoi partitioner with numSeeds seeds sampled
// from objs using the given RNG seed.
func NewVoronoi(numSeeds int, seed int64, objs []stobject.STObject) (*Voronoi, error) {
	if numSeeds <= 0 {
		return nil, fmt.Errorf("partition: voronoi needs numSeeds >= 1, got %d", numSeeds)
	}
	if len(objs) == 0 {
		return nil, fmt.Errorf("partition: cannot build voronoi partitioner over empty data")
	}
	if numSeeds > len(objs) {
		numSeeds = len(objs)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(objs))
	seeds := make([]geom.Point, numSeeds)
	for i := 0; i < numSeeds; i++ {
		seeds[i] = objs[perm[i]].Centroid()
	}
	// Bucket the seeds into a √s × √s grid so nearest-seed queries
	// touch O(1) cells instead of scanning all seeds.
	env := geom.EmptyEnvelope()
	for _, s := range seeds {
		env = env.ExpandToPoint(s.X, s.Y)
	}
	n := max(int(math.Ceil(math.Sqrt(float64(numSeeds)))), 1)
	v := &Voronoi{seeds: seeds, grid: newCells(n, env), buckets: make([][]int32, n*n)}
	for i, s := range seeds {
		cell := v.grid.row(s.Y)*n + v.grid.col(s.X)
		v.buckets[cell] = append(v.buckets[cell], int32(i))
	}
	v.extents = assignedExtents(numSeeds, objs, v.PartitionFor)
	return v, nil
}

// NumPartitions implements SpatialPartitioner.
func (v *Voronoi) NumPartitions() int { return len(v.seeds) }

// PartitionFor implements SpatialPartitioner: nearest seed by
// squared Euclidean distance to the centroid, found with an
// expanding-ring search over the seed grid.
func (v *Voronoi) PartitionFor(o stobject.STObject) int {
	c := o.Centroid()
	cx, cy := v.grid.col(c.X), v.grid.row(c.Y)
	best, bestDist := -1, math.Inf(1)
	cellMin := math.Min(v.grid.cellW, v.grid.cellH)
	for r := 0; r < 2*v.grid.ppd; r++ {
		// Once a candidate is known, stop when even the closest point
		// of ring r cannot beat it. A cell at Chebyshev ring r is at
		// least (r-1) whole cells away from c's position.
		if best >= 0 && cellMin > 0 {
			ringMin := float64(r-1) * cellMin
			if ringMin > 0 && ringMin*ringMin > bestDist {
				break
			}
		}
		found := false
		for _, cell := range ringCells(cx, cy, r, v.grid.ppd) {
			found = true
			for _, si := range v.buckets[cell] {
				if d := geom.SquaredEuclidean(c, v.seeds[si]); d < bestDist {
					best, bestDist = int(si), d
				}
			}
		}
		if !found && best >= 0 {
			break // ring fully outside the grid
		}
	}
	if best < 0 {
		// Degenerate grid (all seeds identical): linear fallback. A NaN
		// centroid is no distance from any seed and goes to the first.
		best = 0
		for i, s := range v.seeds {
			if d := geom.SquaredEuclidean(c, s); d < bestDist {
				best, bestDist = i, d
			}
		}
	}
	return best
}

// ringCells lists the grid cell indexes at Chebyshev distance r from
// (cx, cy), clipped to the n×n grid.
func ringCells(cx, cy, r, n int) []int {
	if r == 0 {
		return []int{cy*n + cx}
	}
	var out []int
	add := func(x, y int) {
		if x >= 0 && x < n && y >= 0 && y < n {
			out = append(out, y*n+x)
		}
	}
	for x := cx - r; x <= cx+r; x++ {
		add(x, cy-r)
		add(x, cy+r)
	}
	for y := cy - r + 1; y <= cy+r-1; y++ {
		add(cx-r, y)
		add(cx+r, y)
	}
	return out
}

// Extent implements SpatialPartitioner.
func (v *Voronoi) Extent(i int) geom.Envelope { return v.extents[i] }
