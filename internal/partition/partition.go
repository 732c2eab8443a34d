// Package partition implements STARK's spatial partitioners.
//
// A spatial partitioner assigns each spatio-temporal object to a
// partition based on its location, so that a partition holds objects
// that are near each other. Every partitioner keeps, per partition,
// two rectangles:
//
//   - Bounds: the partition's nominal cell (the grid cell or BSP
//     region the partitioner carved out of the data space), and
//   - Extent: the bounds adjusted by the envelopes of the objects
//     actually assigned to the partition.
//
// STARK assigns non-point objects to exactly one partition — the one
// containing their centroid — and widens that partition's extent
// instead of replicating the object (the paper's second option).
// Query execution prunes partitions whose *extent* cannot contribute
// to the result.
//
// As in the paper, only the spatial component is considered for
// partitioning; the temporal component rides along.
package partition

import (
	"fmt"
	"math"

	"stark/internal/geom"
	"stark/internal/stobject"
)

// SpatialPartitioner assigns STObjects to partitions and exposes
// per-partition bounds and extents. It satisfies
// engine.Partitioner[stobject.STObject].
type SpatialPartitioner interface {
	// NumPartitions returns the number of partitions.
	NumPartitions() int
	// PartitionFor maps an object (by centroid) to its partition.
	PartitionFor(o stobject.STObject) int
	// Bounds returns the nominal cell of partition i.
	Bounds(i int) geom.Envelope
	// Extent returns the data-adjusted extent of partition i; it
	// always contains every envelope assigned to the partition.
	Extent(i int) geom.Envelope
}

// Replicating is implemented by partitioners that replicate an object
// into every partition it overlaps instead of using centroid
// assignment — the strategy of the GeoSpark-style baseline, which
// requires duplicate pruning afterwards.
type Replicating interface {
	// PartitionsFor returns every partition the object's envelope
	// overlaps.
	PartitionsFor(o stobject.STObject) []int
}

// OverlapAssigner adapts any SpatialPartitioner into a Replicating
// assigner over the partitioner's *extents*: an object is assigned to
// every partition whose extent intersects the object's envelope
// expanded by Expand. The co-partitioned join uses it to replicate
// the moving side onto the stationary side's layout — extents (not
// bounds) because centroid-assigned non-point objects can stick out
// of their nominal cell, and Expand because distance predicates match
// across partition borders.
type OverlapAssigner struct {
	SP     SpatialPartitioner
	Expand float64
}

// PartitionsFor implements Replicating via the same extent scan
// queries prune with, so replication and pruning can never disagree.
func (a OverlapAssigner) PartitionsFor(o stobject.STObject) []int {
	return PruneByEnvelope(a.SP, o.Envelope().ExpandBy(a.Expand))
}

var _ Replicating = OverlapAssigner{}

// PruneByEnvelope returns the indexes of partitions whose extent
// intersects q — the partitions a query with envelope q must visit.
func PruneByEnvelope(sp SpatialPartitioner, q geom.Envelope) []int {
	var out []int
	for i := 0; i < sp.NumPartitions(); i++ {
		if sp.Extent(i).Intersects(q) {
			out = append(out, i)
		}
	}
	return out
}

// Imbalance returns max/mean of the partition sizes — 1.0 is a
// perfectly balanced partitioning. It returns 0 for empty input.
func Imbalance(sizes []int) float64 {
	if len(sizes) == 0 {
		return 0
	}
	total, maxSize := 0, 0
	for _, s := range sizes {
		total += s
		if s > maxSize {
			maxSize = s
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(sizes))
	return float64(maxSize) / mean
}

// dataEnvelope returns the envelope of all object envelopes.
func dataEnvelope(objs []stobject.STObject) geom.Envelope {
	env := geom.EmptyEnvelope()
	for _, o := range objs {
		env = env.ExpandToInclude(o.Envelope())
	}
	return env
}

// clampIndex clamps i to [0, n).
func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// extentTracker accumulates per-partition extents during
// construction.
type extentTracker struct {
	extents []geom.Envelope
}

func newExtentTracker(n int) *extentTracker {
	ext := make([]geom.Envelope, n)
	for i := range ext {
		ext[i] = geom.EmptyEnvelope()
	}
	return &extentTracker{extents: ext}
}

func (e *extentTracker) add(p int, env geom.Envelope) {
	e.extents[p] = e.extents[p].ExpandToInclude(env)
}

// ---- Grid partitioner ----

// Grid is the fixed grid partitioner: the data space is divided into
// ppd × ppd equal rectangular cells. Objects are assigned by
// centroid; cell extents grow to cover assigned envelopes, producing
// (possibly) overlapping partitions.
type Grid struct {
	ppd     int // partitions per dimension
	space   geom.Envelope
	cellW   float64
	cellH   float64
	extents *extentTracker
}

// NewGrid builds a grid partitioner with ppd partitions per dimension
// over the envelope of objs, then assigns objs to adjust extents.
func NewGrid(ppd int, objs []stobject.STObject) (*Grid, error) {
	if ppd <= 0 {
		return nil, fmt.Errorf("partition: grid needs ppd >= 1, got %d", ppd)
	}
	space := dataEnvelope(objs)
	if space.IsEmpty() {
		return nil, fmt.Errorf("partition: cannot build grid over empty data")
	}
	g := &Grid{
		ppd:   ppd,
		space: space,
		cellW: space.Width() / float64(ppd),
		cellH: space.Height() / float64(ppd),
	}
	g.extents = newExtentTracker(ppd * ppd)
	for _, o := range objs {
		g.extents.add(g.PartitionFor(o), o.Envelope())
	}
	return g, nil
}

// NumPartitions implements SpatialPartitioner.
func (g *Grid) NumPartitions() int { return g.ppd * g.ppd }

// cellOf returns the (col, row) cell of a point, clamped into range.
func (g *Grid) cellOf(p geom.Point) (int, int) {
	col, row := 0, 0
	if g.cellW > 0 {
		col = clampIndex(int((p.X-g.space.MinX)/g.cellW), g.ppd)
	}
	if g.cellH > 0 {
		row = clampIndex(int((p.Y-g.space.MinY)/g.cellH), g.ppd)
	}
	return col, row
}

// PartitionFor implements SpatialPartitioner using the centroid rule.
func (g *Grid) PartitionFor(o stobject.STObject) int {
	col, row := g.cellOf(o.Centroid())
	return row*g.ppd + col
}

// Bounds implements SpatialPartitioner. Every edge is computed as the
// same integer multiple of the cell size that the neighbouring cell
// uses, and the last row/column snaps to the data-space envelope —
// so adjacent cells share their edge exactly and the cells tile the
// space with no float-error gap at MaxX/MaxY.
func (g *Grid) Bounds(i int) geom.Envelope {
	row, col := i/g.ppd, i%g.ppd
	minX := g.space.MinX + float64(col)*g.cellW
	minY := g.space.MinY + float64(row)*g.cellH
	maxX := g.space.MinX + float64(col+1)*g.cellW
	if col == g.ppd-1 {
		maxX = g.space.MaxX
	}
	maxY := g.space.MinY + float64(row+1)*g.cellH
	if row == g.ppd-1 {
		maxY = g.space.MaxY
	}
	return geom.Envelope{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
}

// Extent implements SpatialPartitioner: the cell bounds expanded by
// the assigned objects.
func (g *Grid) Extent(i int) geom.Envelope {
	ext := g.extents.extents[i]
	if ext.IsEmpty() {
		return ext // empty partitions prune themselves
	}
	return g.Bounds(i).ExpandToInclude(ext)
}

// ---- Cost-based binary space partitioner ----

// BSP is the cost-based binary space partitioner (after the
// MR-DBSCAN construction the paper cites): the space is recursively
// split into two regions of (approximately) equal cost — cost being
// the number of contained objects — until a region's cost drops to
// maxCost or its shorter side reaches minSide. Dense regions end up
// finely divided while sparse regions stay coarse, fixing the skew
// problem of the fixed grid.
type BSP struct {
	regions []geom.Envelope // leaf regions, in tree order
	root    *bspNode        // split tree for O(log n) assignment
	space   geom.Envelope
	extents *extentTracker
}

// bspNode is one node of the split tree: internal nodes carry a cut,
// leaves carry the region index.
type bspNode struct {
	leaf        int // region index; -1 for internal nodes
	onX         bool
	cut         float64
	left, right *bspNode
}

// BSPConfig configures NewBSP.
type BSPConfig struct {
	// MaxCost is the cost threshold: regions holding at most MaxCost
	// objects are not split further. Values < 1 default to 1000.
	MaxCost int
	// MinSide is the granularity threshold: regions whose width and
	// height are both <= MinSide are not split further. Zero disables
	// the check.
	MinSide float64
}

// bspRegion is a region under construction: its bounds and the
// centroids of the objects inside, a window of the one slice NewBSP
// allocates (a split reorders the window and halves it).
type bspRegion struct {
	env geom.Envelope
	pts []geom.Point
}

// NewBSP builds a BSP partitioner over objs.
func NewBSP(cfg BSPConfig, objs []stobject.STObject) (*BSP, error) {
	if len(objs) == 0 {
		return nil, fmt.Errorf("partition: cannot build BSP over empty data")
	}
	if cfg.MaxCost < 1 {
		cfg.MaxCost = 1000
	}
	space := dataEnvelope(objs)
	pts := make([]geom.Point, len(objs))
	for i, o := range objs {
		pts[i] = o.Centroid()
	}
	b := &BSP{space: space}
	b.root = b.buildNode(bspRegion{env: space, pts: pts}, cfg, make([]float64, len(pts)))
	b.extents = newExtentTracker(len(b.regions))
	for _, o := range objs {
		b.extents.add(b.PartitionFor(o), o.Envelope())
	}
	return b, nil
}

// buildNode recursively splits a region, appending leaf regions to
// b.regions and returning the split-tree node. coords is the scratch
// every split selects its median in, as long as the root's points.
func (b *BSP) buildNode(r bspRegion, cfg BSPConfig, coords []float64) *bspNode {
	if len(r.pts) <= cfg.MaxCost ||
		(cfg.MinSide > 0 && r.env.Width() <= cfg.MinSide && r.env.Height() <= cfg.MinSide) {
		return b.leafNode(r.env)
	}
	left, right, cut, onX, ok := splitRegion(r, cfg.MinSide, coords)
	if !ok {
		return b.leafNode(r.env)
	}
	node := &bspNode{leaf: -1, onX: onX, cut: cut}
	node.left = b.buildNode(left, cfg, coords)
	node.right = b.buildNode(right, cfg, coords)
	return node
}

func (b *BSP) leafNode(env geom.Envelope) *bspNode {
	idx := len(b.regions)
	b.regions = append(b.regions, env)
	return &bspNode{leaf: idx}
}

// splitRegion cuts r into two regions of equal cost along its longer
// dimension (falling back to the other dimension when the cut would
// violate minSide or be degenerate). It also reports the cut
// position and axis for the split tree. The split allocates nothing:
// the median is selected in coords (at least len(r.pts) long) and r's
// points are partitioned in place around the cut, so the two halves
// are windows of r.pts.
func splitRegion(r bspRegion, minSide float64, coords []float64) (a, b bspRegion, cutPos float64, cutOnX, ok bool) {
	longer := r.env.Width() >= r.env.Height() // true = split on x
	coords = coords[:len(r.pts)]
	for _, onX := range [2]bool{longer, !longer} {
		for i, p := range r.pts {
			if onX {
				coords[i] = p.X
			} else {
				coords[i] = p.Y
			}
		}
		// Quickselect the median: O(n) instead of a full sort, which
		// matters because the recursion re-splits the dense regions
		// many times.
		cut := selectKth(coords, len(coords)/2)
		var lo, hi float64
		if onX {
			lo, hi = r.env.MinX, r.env.MaxX
		} else {
			lo, hi = r.env.MinY, r.env.MaxY
		}
		// A cut at the region edge separates nothing.
		if cut <= lo || cut >= hi {
			continue
		}
		// Respect the granularity threshold.
		if minSide > 0 && (cut-lo < minSide || hi-cut < minSide) {
			continue
		}
		// Move the points below the cut to the front of the window.
		below := 0
		for i, p := range r.pts {
			v := p.Y
			if onX {
				v = p.X
			}
			if v < cut {
				r.pts[i], r.pts[below] = r.pts[below], p
				below++
			}
		}
		if below == 0 || below == len(r.pts) {
			continue
		}
		a = bspRegion{env: r.env, pts: r.pts[:below]}
		b = bspRegion{env: r.env, pts: r.pts[below:]}
		if onX {
			a.env.MaxX, b.env.MinX = cut, cut
		} else {
			a.env.MaxY, b.env.MinY = cut, cut
		}
		return a, b, cut, onX, true
	}
	return bspRegion{}, bspRegion{}, 0, false, false
}

// selectKth returns the k-th smallest element of coords (0-based),
// reordering coords in place (median-of-three quickselect with an
// insertion-sort base case).
func selectKth(coords []float64, k int) float64 {
	lo, hi := 0, len(coords)-1
	for {
		if hi-lo < 12 {
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && coords[j] < coords[j-1]; j-- {
					coords[j], coords[j-1] = coords[j-1], coords[j]
				}
			}
			return coords[k]
		}
		mid := lo + (hi-lo)/2
		if coords[mid] < coords[lo] {
			coords[mid], coords[lo] = coords[lo], coords[mid]
		}
		if coords[hi] < coords[lo] {
			coords[hi], coords[lo] = coords[lo], coords[hi]
		}
		if coords[hi] < coords[mid] {
			coords[hi], coords[mid] = coords[mid], coords[hi]
		}
		pivot := coords[mid]
		i, j := lo, hi
		for i <= j {
			for coords[i] < pivot {
				i++
			}
			for coords[j] > pivot {
				j--
			}
			if i <= j {
				coords[i], coords[j] = coords[j], coords[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return coords[k]
		}
	}
}

// NumPartitions implements SpatialPartitioner.
func (b *BSP) NumPartitions() int { return len(b.regions) }

// PartitionFor implements SpatialPartitioner: the split tree is
// walked by centroid in O(depth). Objects outside the construction
// space are clamped into it first, which assigns them to the nearest
// boundary region.
func (b *BSP) PartitionFor(o stobject.STObject) int {
	c := o.Centroid()
	x := math.Min(math.Max(c.X, b.space.MinX), b.space.MaxX)
	y := math.Min(math.Max(c.Y, b.space.MinY), b.space.MaxY)
	n := b.root
	for n.leaf < 0 {
		v := y
		if n.onX {
			v = x
		}
		if v < n.cut {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.leaf
}

// Bounds implements SpatialPartitioner.
func (b *BSP) Bounds(i int) geom.Envelope { return b.regions[i] }

// Extent implements SpatialPartitioner.
func (b *BSP) Extent(i int) geom.Envelope {
	ext := b.extents.extents[i]
	if ext.IsEmpty() {
		return ext
	}
	return b.regions[i].ExpandToInclude(ext)
}
