// Package index holds STARK's laid-out partition, Laid: a partition's
// rows in the leaf order of a Sort-Tile-Recursive (STR) packed R-tree
// over their key envelopes (the from-scratch replacement for the JTS
// STRtree) and, optionally, one attribute postings index per field
// over the same positions. Lay builds one and LoadFile re-attaches a
// persisted tree. Laid.Search is the one leaf-range walk: it yields, in
// position order, every position of a leaf that meets the query
// envelope whose row's key envelope meets it too, and the caller
// refines those rows with the exact predicate (the paper's "candidate
// pruning step"). A Laid has three users, and nothing else builds or
// walks one: a partition of core's SpatialDataset (under a tree when
// persistently indexed, the rows' only copy, with columns when
// columnar), a join's build slot, and a live partition's base (package
// live), with postings per registered field.
//
// The tree indexes positions, not entries: Pack sorts items into the
// order of the leaves it cuts and returns that order as a permutation
// (position pos holds item perm[pos]), a leaf is a range of positions,
// and the tree is one flat slice of node envelopes. A best-first k
// nearest neighbour search is provided, and the packed input
// serialises to a compact binary format for persistent indexing.
package index

import (
	"container/heap"
	"fmt"
	"math"
	"slices"

	"stark/internal/geom"
)

// DefaultOrder is the default tree order (node capacity); the paper's
// examples use small orders such as 5.
const DefaultOrder = 10

// RTree is an STR-packed R-tree over positions 0..n-1.
type RTree struct {
	order int
	// nodes holds the tree level by level, the root first: an inner
	// node's children are the node range [lo, hi), a leaf's entries the
	// position range [lo, hi). nodes[leaf:] are the leaves, in position
	// order.
	nodes []node
	leaf  int32
	// perm[pos] is the item at position pos; nil when the tree does not
	// keep its layout (see Lay).
	perm []int32
}

type node struct {
	env    geom.Envelope
	lo, hi int32
}

// Pack STR-packs items 0..n-1, given their envelopes, into a tree of
// the given order (order < 2 selects DefaultOrder). perm is the layout
// the tree covers: position pos holds item perm[pos], and the leaves
// tile the positions in order.
func Pack(order, n int, env func(i int) geom.Envelope) (t *RTree, perm []int32) {
	if order < 2 {
		order = DefaultOrder
	}
	// Bottom up: a level is its nodes' envelopes and, per node, the run
	// of the level below (of items, for the leaves) that it packs.
	type level struct {
		envs []geom.Envelope
		runs []int32 // node k packs runs[at[k]:at[k+1]]
		at   []int32
	}
	pack := func(m int, env func(i int) geom.Envelope) level {
		l := level{runs: make([]int32, 0, m), at: []int32{0}}
		strRuns(m, order, env, func(run []int32) {
			e := geom.EmptyEnvelope()
			for _, i := range run {
				e = e.ExpandToInclude(env(int(i)))
			}
			l.envs = append(l.envs, e)
			l.runs = append(l.runs, run...)
			l.at = append(l.at, int32(len(l.runs)))
		})
		return l
	}
	levels := []level{pack(n, env)}
	for len(levels[len(levels)-1].envs) > 1 {
		below := levels[len(levels)-1]
		levels = append(levels, pack(len(below.envs), func(i int) geom.Envelope { return below.envs[i] }))
	}
	// Top down: number each level's nodes in the order of their parents'
	// runs, so that a node's children are a node range and the leaves
	// take their positions in the order they are numbered.
	total := 0
	for _, l := range levels {
		total += len(l.envs)
	}
	t = &RTree{order: order, nodes: make([]node, 0, total)}
	perm = make([]int32, 0, n)
	numbered := []int32{0} // the level's nodes, in numbering order
	for d := len(levels) - 1; d >= 0; d-- {
		l := levels[d]
		next := int32(len(t.nodes) + len(numbered)) // the first node of the level below
		if d == 0 {
			t.leaf, next = int32(len(t.nodes)), 0
		}
		var below []int32
		for _, k := range numbered {
			run := l.runs[l.at[k]:l.at[k+1]]
			t.nodes = append(t.nodes, node{env: l.envs[k], lo: next, hi: next + int32(len(run))})
			next += int32(len(run))
			if d == 0 {
				perm = append(perm, run...)
			} else {
				below = append(below, run...)
			}
		}
		numbered = below
	}
	t.perm = perm
	return t, perm
}

// BuildFromEnvelopes packs a tree over envs for a caller that keeps its
// items where they are: Query answers in item numbers (slice indexes of
// envs).
func BuildFromEnvelopes(order int, envs []geom.Envelope) *RTree {
	t, _ := Pack(order, len(envs), func(i int) geom.Envelope { return envs[i] })
	return t
}

// strRuns cuts items 0..n-1, given their envelopes, into the runs of at
// most fill that Sort-Tile-Recursive packs into nodes: sort by x-centre,
// cut into ⌈√⌈n/fill⌉⌉ slices of equal count, sort each by y-centre and
// cut it into runs. run gets each run's item indexes, slice by slice,
// and must not keep them. No items make one empty run: a tree always
// has a root.
func strRuns(n, fill int, env func(i int) geom.Envelope, run func(idx []int32)) {
	centers := make([]geom.Point, n)
	idx := make([]int32, n)
	for i := range idx {
		centers[i], idx[i] = env(i).Center(), int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int { return ascending(centers[a].X, centers[b].X) })
	sliceSize := max(1, int(math.Ceil(math.Sqrt(float64((n+fill-1)/fill))))) * fill
	for s := 0; s == 0 || s < n; s += sliceSize {
		slice := idx[s:min(s+sliceSize, n)]
		slices.SortFunc(slice, func(a, b int32) int { return ascending(centers[a].Y, centers[b].Y) })
		for o := 0; o == 0 || o < len(slice); o += fill {
			run(slice[o:min(o+fill, len(slice))])
		}
	}
}

// ascending compares with < and >, so a NaN centre is incomparable
// rather than smallest (as cmp.Compare has it).
func ascending(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Order returns the node capacity.
func (t *RTree) Order() int { return t.order }

// len returns the number of indexed positions: the last leaf ends there.
func (t *RTree) len() int { return int(t.nodes[len(t.nodes)-1].hi) }

// search calls yield with the position ranges [lo, hi) of the leaves
// whose MBR meets q, in position order, adjacent leaves merged into one
// range, until yield returns false. Every position whose envelope meets
// q lies in a range; the caller tests the rows themselves.
func (t *RTree) search(q geom.Envelope, yield func(lo, hi int) bool) {
	if !t.nodes[0].env.Intersects(q) {
		return
	}
	// Depth first, children pushed last to first so that they pop in
	// order: the leaves come in position order. The pending range
	// [lo, hi) grows while met leaves are adjacent. The stack never
	// holds more than (order-1)·height+1 nodes, which buf covers without
	// a heap allocation for the default order up to seven levels.
	var buf [64]int32
	stack := append(buf[:0], 0)
	lo, hi := 0, 0
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[i]
		if i < t.leaf {
			for c := n.hi - 1; c >= n.lo; c-- {
				if t.nodes[c].env.Intersects(q) {
					stack = append(stack, c)
				}
			}
			continue
		}
		if int(n.lo) != hi {
			if hi > lo && !yield(lo, hi) {
				return
			}
			lo = int(n.lo)
		}
		hi = int(n.hi)
	}
	if hi > lo {
		yield(lo, hi)
	}
}

// Query appends to dst the items of every leaf whose MBR meets q and
// returns the extended slice: a candidate superset of the items whose
// envelope intersects q, which callers refine with the exact predicate.
// It reads the layout, which a tree from Pack keeps.
func (t *RTree) Query(q geom.Envelope, dst []int32) []int32 {
	t.search(q, func(lo, hi int) bool {
		dst = append(dst, t.perm[lo:hi]...)
		return true
	})
	return dst
}

// KNN calls yield with the k positions nearest to (x, y) by dist and
// their distances, by ascending distance, best-first over the node
// MBRs: a leaf popped from the queue measures each of its positions
// with dist. dist must be at least the planar distance from (x, y) to
// the position's envelope (the distance from a point to a geometry
// is), or the search can miss a nearer position.
func (t *RTree) KNN(x, y float64, k int, dist func(pos int32) float64, yield func(pos int32, dist float64)) {
	if k <= 0 || t.len() == 0 {
		return
	}
	pq := knnQueue{{dist: t.nodes[0].env.DistanceToPoint(x, y)}}
	for found := 0; pq.Len() > 0 && found < k; {
		c := heap.Pop(&pq).(knnCandidate)
		switch n := c.node; {
		case n < 0:
			yield(c.pos, c.dist)
			found++
		case n < t.leaf:
			for ch := t.nodes[n].lo; ch < t.nodes[n].hi; ch++ {
				heap.Push(&pq, knnCandidate{dist: t.nodes[ch].env.DistanceToPoint(x, y), node: ch})
			}
		default:
			for pos := t.nodes[n].lo; pos < t.nodes[n].hi; pos++ {
				heap.Push(&pq, knnCandidate{dist: dist(pos), node: -1, pos: pos})
			}
		}
	}
}

// knnCandidate is a node of the tree, or with node -1 a measured
// position.
type knnCandidate struct {
	dist      float64
	node, pos int32
}

type knnQueue []knnCandidate

func (q knnQueue) Len() int            { return len(q) }
func (q knnQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q knnQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *knnQueue) Push(x interface{}) { *q = append(*q, x.(knnCandidate)) }
func (q *knnQueue) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

// check verifies the tree's invariants against env(pos), the envelope
// of the row at each position: perm, where the tree keeps it, is a
// permutation of the positions, the leaves tile
// the positions in order, every node's children tile the level below
// in order, no node holds more than order entries, an inner node's
// envelope is the union of its children's, and a leaf's envelope covers
// each of its rows' envelopes.
func (t *RTree) check(env func(pos int) geom.Envelope) error {
	if len(t.nodes) == 0 || t.leaf < 0 || int(t.leaf) >= len(t.nodes) {
		return fmt.Errorf("%d nodes, leaves from %d", len(t.nodes), t.leaf)
	}
	n := t.len()
	if t.perm != nil {
		if len(t.perm) != n {
			return fmt.Errorf("the leaves cover positions up to %d of the layout's %d", n, len(t.perm))
		}
		seen := make([]bool, n)
		for pos, item := range t.perm {
			if item < 0 || int(item) >= n || seen[item] {
				return fmt.Errorf("perm[%d] = %d is not part of a permutation of 0..%d", pos, item, n-1)
			}
			seen[item] = true
		}
	}
	child, pos := int32(1), int32(0) // the next node and position due
	for i, nd := range t.nodes {
		if nd.hi < nd.lo || nd.hi-nd.lo > int32(t.order) || (nd.hi == nd.lo && n > 0) {
			return fmt.Errorf("node %d holds [%d, %d) at order %d", i, nd.lo, nd.hi, t.order)
		}
		if int32(i) < t.leaf {
			if nd.lo != child || int(nd.hi) > len(t.nodes) {
				return fmt.Errorf("node %d has children [%d, %d), want them from %d", i, nd.lo, nd.hi, child)
			}
			child = nd.hi
			u := geom.EmptyEnvelope()
			for c := nd.lo; c < nd.hi; c++ {
				u = u.ExpandToInclude(t.nodes[c].env)
			}
			if !sameEnvelope(u, nd.env) {
				return fmt.Errorf("node %d has envelope %v, its children cover %v", i, nd.env, u)
			}
			continue
		}
		if nd.lo != pos {
			return fmt.Errorf("leaf %d holds [%d, %d), want it from %d", i, nd.lo, nd.hi, pos)
		}
		pos = nd.hi
		for p := nd.lo; p < nd.hi; p++ {
			if e := env(int(p)); !e.IsEmpty() && !nd.env.ContainsEnvelope(e) {
				return fmt.Errorf("leaf %d with envelope %v misses position %d at %v", i, nd.env, p, e)
			}
		}
	}
	if int(child) != len(t.nodes) {
		return fmt.Errorf("the inner nodes have children up to %d of %d nodes", child, len(t.nodes))
	}
	return nil
}

// sameEnvelope compares bit for bit, so a NaN bound equals itself.
func sameEnvelope(a, b geom.Envelope) bool {
	return math.Float64bits(a.MinX) == math.Float64bits(b.MinX) && math.Float64bits(a.MinY) == math.Float64bits(b.MinY) &&
		math.Float64bits(a.MaxX) == math.Float64bits(b.MaxX) && math.Float64bits(a.MaxY) == math.Float64bits(b.MaxY)
}
