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
	ppd   int
	space geom.Envelope
	cellW float64
	cellH float64
}

// NewTile builds a tile partitioner over the envelope of objs.
func NewTile(ppd int, objs []stobject.STObject) (*Tile, error) {
	if ppd <= 0 {
		return nil, fmt.Errorf("partition: tile needs ppd >= 1, got %d", ppd)
	}
	space := dataEnvelope(objs)
	if space.IsEmpty() {
		return nil, fmt.Errorf("partition: cannot build tile partitioner over empty data")
	}
	return &Tile{
		ppd:   ppd,
		space: space,
		cellW: space.Width() / float64(ppd),
		cellH: space.Height() / float64(ppd),
	}, nil
}

// NumPartitions implements SpatialPartitioner.
func (t *Tile) NumPartitions() int { return t.ppd * t.ppd }

// PartitionFor implements SpatialPartitioner (centroid cell; used
// when the tile partitioner is driven without replication).
func (t *Tile) PartitionFor(o stobject.STObject) int {
	c := o.Centroid()
	col, row := t.cellIndex(c.X), t.rowIndex(c.Y)
	return row*t.ppd + col
}

func (t *Tile) cellIndex(x float64) int {
	if t.cellW <= 0 {
		return 0
	}
	return clampIndex(int((x-t.space.MinX)/t.cellW), t.ppd)
}

func (t *Tile) rowIndex(y float64) int {
	if t.cellH <= 0 {
		return 0
	}
	return clampIndex(int((y-t.space.MinY)/t.cellH), t.ppd)
}

// PartitionsFor implements replicating: every cell the envelope
// overlaps.
func (t *Tile) PartitionsFor(o stobject.STObject) []int {
	env := o.Envelope()
	if env.IsEmpty() {
		return nil
	}
	c0, c1 := t.cellIndex(env.MinX), t.cellIndex(env.MaxX)
	r0, r1 := t.rowIndex(env.MinY), t.rowIndex(env.MaxY)
	out := make([]int, 0, (c1-c0+1)*(r1-r0+1))
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			out = append(out, r*t.ppd+c)
		}
	}
	return out
}

// Bounds implements SpatialPartitioner.
func (t *Tile) Bounds(i int) geom.Envelope {
	row, col := i/t.ppd, i%t.ppd
	minX := t.space.MinX + float64(col)*t.cellW
	minY := t.space.MinY + float64(row)*t.cellH
	return geom.Envelope{MinX: minX, MinY: minY, MaxX: minX + t.cellW, MaxY: minY + t.cellH}
}

// Extent implements SpatialPartitioner. With replication, a cell
// never holds data beyond its bounds, so Extent == Bounds.
func (t *Tile) Extent(i int) geom.Envelope { return t.Bounds(i) }

var _ replicating = (*Tile)(nil)

// ---- Voronoi partitioner (sample-seeded, SpatialSpark-style) ----

// Voronoi partitions by nearest seed: numSeeds seed points are drawn
// from the data (deterministically from seed), and an object belongs
// to the partition of its nearest seed. Bounds are unknown polygons,
// so Bounds returns the data-adjusted extent. Nearest-seed lookup is
// accelerated with a uniform grid over the seeds and an
// expanding-ring search.
type Voronoi struct {
	seeds   []geom.Point
	extents *extentTracker

	// seed lookup grid
	gridN        int
	gridEnv      geom.Envelope
	cellW, cellH float64
	cells        [][]int32 // seed indices per cell
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
	v := &Voronoi{seeds: seeds, extents: newExtentTracker(numSeeds)}
	v.buildSeedGrid()
	for _, o := range objs {
		v.extents.add(v.PartitionFor(o), o.Envelope())
	}
	return v, nil
}

// buildSeedGrid buckets the seeds into a √s × √s grid so nearest-seed
// queries touch O(1) cells instead of scanning all seeds.
func (v *Voronoi) buildSeedGrid() {
	env := geom.EmptyEnvelope()
	for _, s := range v.seeds {
		env = env.ExpandToPoint(s.X, s.Y)
	}
	n := int(math.Ceil(math.Sqrt(float64(len(v.seeds)))))
	if n < 1 {
		n = 1
	}
	v.gridN = n
	v.gridEnv = env
	v.cellW = env.Width() / float64(n)
	v.cellH = env.Height() / float64(n)
	v.cells = make([][]int32, n*n)
	for i, s := range v.seeds {
		cx, cy := v.cellOf(s)
		v.cells[cy*n+cx] = append(v.cells[cy*n+cx], int32(i))
	}
}

func (v *Voronoi) cellOf(p geom.Point) (int, int) {
	cx, cy := 0, 0
	if v.cellW > 0 {
		cx = clampIndex(int((p.X-v.gridEnv.MinX)/v.cellW), v.gridN)
	}
	if v.cellH > 0 {
		cy = clampIndex(int((p.Y-v.gridEnv.MinY)/v.cellH), v.gridN)
	}
	return cx, cy
}

// NumPartitions implements SpatialPartitioner.
func (v *Voronoi) NumPartitions() int { return len(v.seeds) }

// PartitionFor implements SpatialPartitioner: nearest seed by
// squared Euclidean distance to the centroid, found with an
// expanding-ring search over the seed grid.
func (v *Voronoi) PartitionFor(o stobject.STObject) int {
	c := o.Centroid()
	cx, cy := v.cellOf(c)
	best, bestDist := -1, math.Inf(1)
	cellMin := math.Min(v.cellW, v.cellH)
	for r := 0; r < 2*v.gridN; r++ {
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
		for _, cell := range ringCells(cx, cy, r, v.gridN) {
			found = true
			for _, si := range v.cells[cell] {
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
		// Degenerate grid (all seeds identical): linear fallback.
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

// Bounds implements SpatialPartitioner; Voronoi cells have no
// rectangular bounds, so the extent is returned.
func (v *Voronoi) Bounds(i int) geom.Envelope { return v.extents.extents[i] }

// Extent implements SpatialPartitioner.
func (v *Voronoi) Extent(i int) geom.Envelope { return v.extents.extents[i] }
