// Package partition implements STARK's spatial partitioners.
//
// A spatial partitioner assigns each spatio-temporal object to a
// partition based on its location, so that a partition holds objects
// that are near each other. Every partitioner keeps, per partition,
// two rectangles:
//
//   - bounds: the partition's nominal cell (the grid cell or BSP
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
// per-partition extents. It satisfies
// engine.Partitioner[stobject.STObject].
type SpatialPartitioner interface {
	// NumPartitions returns the number of partitions.
	NumPartitions() int
	// PartitionFor maps an object (by centroid) to its partition.
	PartitionFor(o stobject.STObject) int
	// Extent returns the data-adjusted extent of partition i; it
	// always contains every envelope assigned to the partition.
	Extent(i int) geom.Envelope
}

// PruneByEnvelope returns the indexes of partitions whose extent
// intersects q — the partitions a query with envelope q must visit, and
// those the copartitioned join replicates a row to, with q the row's
// envelope expanded by the join distance: extents (not bounds) because
// centroid-assigned non-point objects can stick out of their nominal
// cell, and one scan so that replication and pruning never disagree.
func PruneByEnvelope(sp SpatialPartitioner, q geom.Envelope) []int {
	var out []int
	for i := 0; i < sp.NumPartitions(); i++ {
		if sp.Extent(i).Intersects(q) {
			out = append(out, i)
		}
	}
	return out
}

// dataEnvelope returns the envelope of all object envelopes.
func dataEnvelope(objs []stobject.STObject) geom.Envelope {
	env := geom.EmptyEnvelope()
	for _, o := range objs {
		env = env.ExpandToInclude(o.Envelope())
	}
	return env
}

// assignedExtents returns, per partition, the envelope of the objects
// assign puts there: the walk a partitioner's extents come from.
func assignedExtents(n int, objs []stobject.STObject, assign func(stobject.STObject) int) []geom.Envelope {
	ext := make([]geom.Envelope, n)
	for i := range ext {
		ext[i] = geom.EmptyEnvelope()
	}
	for _, o := range objs {
		p := assign(o)
		ext[p] = ext[p].ExpandToInclude(o.Envelope())
	}
	return ext
}

// ---- Grid partitioner ----

// cells is the layout Grid and Tile share: the data space divided
// into ppd × ppd equal rectangular cells.
type cells struct {
	ppd   int // cells per dimension
	space geom.Envelope
	cellW float64
	cellH float64
}

func newCells(ppd int, space geom.Envelope) cells {
	return cells{ppd: ppd, space: space, cellW: space.Width() / float64(ppd), cellH: space.Height() / float64(ppd)}
}

// cellsOver lays ppd × ppd cells over the envelope of objs; kind names
// the partitioner in errors.
func cellsOver(kind string, ppd int, objs []stobject.STObject) (cells, error) {
	if ppd <= 0 {
		return cells{}, fmt.Errorf("partition: %s needs ppd >= 1, got %d", kind, ppd)
	}
	space := dataEnvelope(objs)
	if space.IsEmpty() {
		return cells{}, fmt.Errorf("partition: cannot build %s over empty data", kind)
	}
	return newCells(ppd, space), nil
}

// col and row return the column of x and the row of y, clamped into
// range.
func (c *cells) col(x float64) int {
	if c.cellW <= 0 {
		return 0
	}
	return min(max(int((x-c.space.MinX)/c.cellW), 0), c.ppd-1)
}

func (c *cells) row(y float64) int {
	if c.cellH <= 0 {
		return 0
	}
	return min(max(int((y-c.space.MinY)/c.cellH), 0), c.ppd-1)
}

// bounds returns cell i. Every edge is computed as the same integer
// multiple of the cell size that the neighbouring cell uses, and the
// last row/column snaps to the data-space envelope — so adjacent cells
// share their edge exactly and the cells tile the space with no
// float-error gap at MaxX/MaxY.
func (c *cells) bounds(i int) geom.Envelope {
	row, col := i/c.ppd, i%c.ppd
	minX := c.space.MinX + float64(col)*c.cellW
	minY := c.space.MinY + float64(row)*c.cellH
	maxX := c.space.MinX + float64(col+1)*c.cellW
	if col == c.ppd-1 {
		maxX = c.space.MaxX
	}
	maxY := c.space.MinY + float64(row+1)*c.cellH
	if row == c.ppd-1 {
		maxY = c.space.MaxY
	}
	return geom.Envelope{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
}

// Grid is the fixed grid partitioner: the data space is divided into
// ppd × ppd equal rectangular cells. Objects are assigned by
// centroid; cell extents grow to cover assigned envelopes, producing
// (possibly) overlapping partitions.
type Grid struct {
	cells
	extents []geom.Envelope
}

// NewGrid builds a grid partitioner with ppd partitions per dimension
// over the envelope of objs, then assigns objs to adjust extents.
func NewGrid(ppd int, objs []stobject.STObject) (*Grid, error) {
	c, err := cellsOver("grid", ppd, objs)
	if err != nil {
		return nil, err
	}
	g := &Grid{cells: c}
	g.extents = assignedExtents(ppd*ppd, objs, g.PartitionFor)
	return g, nil
}

// NumPartitions implements SpatialPartitioner.
func (g *Grid) NumPartitions() int { return g.ppd * g.ppd }

// PartitionFor implements SpatialPartitioner using the centroid rule.
func (g *Grid) PartitionFor(o stobject.STObject) int {
	c := o.Centroid()
	return g.row(c.Y)*g.ppd + g.col(c.X)
}

// Extent implements SpatialPartitioner: the cell bounds expanded by
// the assigned objects.
func (g *Grid) Extent(i int) geom.Envelope {
	ext := g.extents[i]
	if ext.IsEmpty() {
		return ext // empty partitions prune themselves
	}
	return g.bounds(i).ExpandToInclude(ext)
}

// ---- Cost-based binary space partitioner ----

// BSP is the cost-based binary space partitioner (after the
// MR-DBSCAN construction the paper cites): the space is recursively
// split into two regions of (approximately) equal cost — cost being
// the number of contained objects — until a region's cost drops to
// maxCost. Dense regions end up finely divided while sparse regions
// stay coarse, fixing the skew problem of the fixed grid.
type BSP struct {
	regions []geom.Envelope // leaf regions, in tree order
	extents []geom.Envelope // per leaf, the envelope of its objects
	root    *bspNode        // split tree for O(log n) assignment
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
}

// bspRegion is a region under construction: its bounds and the
// centroids of the objects inside, a window of the one slice NewBSP
// allocates (a split reorders the window and halves it).
type bspRegion struct {
	env geom.Envelope
	pts []geom.Point
}

// bspBuilder collects the leaves of a split tree in tree order; with
// boxes set (every object a point) a leaf's extent is its window's box.
type bspBuilder struct {
	maxCost int
	boxes   bool
	regions []geom.Envelope
	extents []geom.Envelope
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
	bb := &bspBuilder{maxCost: cfg.MaxCost, boxes: true}
	for i, o := range objs {
		// A point's centroid is its envelope; when every object is a
		// point, the leaf windows give the extents.
		p, ok := o.Point()
		if !ok {
			p, bb.boxes = o.Centroid(), false
		}
		pts[i] = p
	}
	b := &BSP{root: bb.build(bspRegion{env: space, pts: pts}, make([]float64, len(pts)), true)}
	b.regions, b.extents = bb.regions, bb.extents
	if !bb.boxes {
		// A polygon's envelope is larger than its centroid, and an empty
		// object's centroid is the origin: walk the tree per object.
		b.extents = assignedExtents(len(b.regions), objs, b.PartitionFor)
	}
	return b, nil
}

// build recursively splits a region, appending its leaves to the
// builder and returning the split-tree node. coords is the scratch
// every split selects its median in, as long as r's points. A split
// cuts r's window with the v < cut test PartitionFor walks with, so a
// leaf's window holds exactly the objects PartitionFor assigns to it.
// With concurrent set and both halves above maxCost, the right half
// is split on a second goroutine: the halves own disjoint windows of
// the points and of coords.
func (bb *bspBuilder) build(r bspRegion, coords []float64, concurrent bool) *bspNode {
	if len(r.pts) <= bb.maxCost {
		return bb.leaf(r)
	}
	left, right, cut, onX, ok := splitRegion(r, coords)
	if !ok {
		return bb.leaf(r)
	}
	node := &bspNode{leaf: -1, onX: onX, cut: cut}
	if !concurrent || len(left.pts) <= bb.maxCost || len(right.pts) <= bb.maxCost {
		node.left = bb.build(left, coords, false)
		node.right = bb.build(right, coords, false)
		return node
	}
	rb := &bspBuilder{maxCost: bb.maxCost, boxes: bb.boxes}
	done := make(chan struct{})
	go func() {
		defer close(done)
		node.right = rb.build(right, coords[len(left.pts):], false)
	}()
	node.left = bb.build(left, coords, false)
	<-done
	shiftLeaves(node.right, len(bb.regions)) // number the right leaves after the left ones
	bb.regions = append(bb.regions, rb.regions...)
	bb.extents = append(bb.extents, rb.extents...)
	return node
}

func (bb *bspBuilder) leaf(r bspRegion) *bspNode {
	if bb.boxes {
		ext := geom.EmptyEnvelope()
		for _, p := range r.pts {
			ext = ext.ExpandToPoint(p.X, p.Y)
		}
		bb.extents = append(bb.extents, ext)
	}
	bb.regions = append(bb.regions, r.env)
	return &bspNode{leaf: len(bb.regions) - 1}
}

// shiftLeaves adds by to the region index of every leaf under n.
func shiftLeaves(n *bspNode, by int) {
	if n.leaf >= 0 {
		n.leaf += by
		return
	}
	shiftLeaves(n.left, by)
	shiftLeaves(n.right, by)
}

// splitRegion cuts r into two regions of equal cost along its longer
// dimension (falling back to the other dimension when the cut would be
// degenerate). It also reports the cut
// position and axis for the split tree. The split allocates nothing:
// the median is selected in coords (at least len(r.pts) long) and r's
// points are partitioned in place around the cut, so the two halves
// are windows of r.pts.
func splitRegion(r bspRegion, coords []float64) (a, b bspRegion, cutPos float64, cutOnX, ok bool) {
	longer := r.env.Width() >= r.env.Height() // true = split on x
	coords = coords[:len(r.pts)]
	for _, onX := range [2]bool{longer, !longer} {
		for i, p := range r.pts {
			v := p.Y
			if onX {
				v = p.X
			}
			if v != v {
				v = math.Inf(1) // a NaN goes right of every cut, as +Inf does
			}
			coords[i] = v
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
// walked by centroid in O(depth). An object outside the construction
// space goes to the nearest boundary region: every cut lies strictly
// inside its region, so a coordinate outside the space compares with
// it as the same coordinate clamped into the space would, and a NaN
// goes right.
func (b *BSP) PartitionFor(o stobject.STObject) int {
	c := o.Centroid()
	n := b.root
	for n.leaf < 0 {
		v := c.Y
		if n.onX {
			v = c.X
		}
		if v < n.cut {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.leaf
}

// Extent implements SpatialPartitioner.
func (b *BSP) Extent(i int) geom.Envelope {
	ext := b.extents[i]
	if ext.IsEmpty() {
		return ext
	}
	return b.regions[i].ExpandToInclude(ext)
}
