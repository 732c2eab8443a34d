// Package index implements the Sort-Tile-Recursive (STR) packed
// R-tree STARK uses for partition-local indexing — the from-scratch
// replacement for the JTS STRtree.
//
// The tree is bulk-loaded: items are collected with Insert and packed
// into a height-balanced tree by Build. Queries return candidate item
// IDs whose minimum bounding rectangles match; exact geometry
// refinement is the caller's job (the "candidate pruning step" the
// paper describes for live indexing). A branch-and-bound k nearest
// neighbour search is provided, and trees serialise to a compact
// binary format for persistent indexing.
package index

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"

	"stark/internal/geom"
)

// DefaultOrder is the default tree order (node capacity); the paper's
// examples use small orders such as 5.
const DefaultOrder = 10

// Entry is one indexed item: an envelope plus the caller's item ID.
type Entry struct {
	Env geom.Envelope
	ID  int32
}

// RTree is an STR bulk-loaded R-tree over Entry values.
type RTree struct {
	order   int
	entries []Entry
	root    *node
	built   bool
}

type node struct {
	env      geom.Envelope
	children []*node // nil for leaves
	entries  []Entry // nil for internal nodes
}

// New returns an empty tree with the given order (node capacity);
// order < 2 selects DefaultOrder.
func New(order int) *RTree {
	if order < 2 {
		order = DefaultOrder
	}
	return &RTree{order: order}
}

// Order returns the node capacity.
func (t *RTree) Order() int { return t.order }

// Len returns the number of indexed entries.
func (t *RTree) Len() int { return len(t.entries) }

// Built reports whether Build has run.
func (t *RTree) Built() bool { return t.built }

// ErrBuilt reports an Insert on a tree that Build has already packed.
// The STR layout is computed from the complete entry set, so a packed
// tree cannot absorb additions; datasets that mutate after indexing
// belong in the concurrent live tree (internal/live).
var ErrBuilt = errors.New("index: Insert after Build (bulk-loaded STR trees are immutable; use internal/live for mutable data)")

// Insert adds an entry. It returns ErrBuilt when called after Build:
// the build-once STRtree contract is kept, but misuse is recoverable
// instead of panicking.
func (t *RTree) Insert(env geom.Envelope, id int32) error {
	if t.built {
		return ErrBuilt
	}
	t.entries = append(t.entries, Entry{Env: env, ID: id})
	return nil
}

// Build packs the inserted entries into the tree using the STR
// algorithm: sort by x-center, cut into ⌈√(n/order)⌉ vertical slices,
// sort each slice by y-center, pack runs of `order` entries into
// leaves, then recursively pack the leaves the same way.
func (t *RTree) Build() {
	if t.built {
		return
	}
	t.built = true
	var level []*node
	STRRuns(len(t.entries), t.order, func(i int) geom.Envelope { return t.entries[i].Env }, func(run []int32) {
		leaf := &node{env: geom.EmptyEnvelope(), entries: make([]Entry, len(run))}
		for k, i := range run {
			leaf.entries[k] = t.entries[i]
			leaf.env = leaf.env.ExpandToInclude(t.entries[i].Env)
		}
		level = append(level, leaf)
	})
	for len(level) > 1 {
		var up []*node
		STRRuns(len(level), t.order, func(i int) geom.Envelope { return level[i].env }, func(run []int32) {
			parent := &node{env: geom.EmptyEnvelope(), children: make([]*node, len(run))}
			for k, i := range run {
				parent.children[k] = level[i]
				parent.env = parent.env.ExpandToInclude(level[i].env)
			}
			up = append(up, parent)
		})
		level = up
	}
	t.root = level[0]
}

// STRRuns cuts items 0..n-1, given their envelopes, into the runs of at
// most fill that Sort-Tile-Recursive packs into nodes: sort by x-centre,
// cut into ⌈√⌈n/fill⌉⌉ slices of equal count, sort each by y-centre and
// cut it into runs. run gets each run's item indexes, slice by slice,
// and must not keep them. No items make one empty run: a tree always
// has a root.
func STRRuns(n, fill int, env func(i int) geom.Envelope, run func(idx []int32)) {
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

// Query appends to dst the IDs of all entries whose envelope
// intersects q and returns the extended slice. The result is a
// candidate set: callers must refine with the exact predicate.
func (t *RTree) Query(q geom.Envelope, dst []int32) []int32 {
	if !t.built {
		panic("index: Query before Build")
	}
	if t.root == nil || q.IsEmpty() {
		return dst
	}
	return queryNode(t.root, q, dst)
}

func queryNode(n *node, q geom.Envelope, dst []int32) []int32 {
	if !n.env.Intersects(q) {
		return dst
	}
	if n.children == nil {
		for _, e := range n.entries {
			if e.Env.Intersects(q) {
				dst = append(dst, e.ID)
			}
		}
		return dst
	}
	for _, c := range n.children {
		dst = queryNode(c, q, dst)
	}
	return dst
}

// QueryAll returns the IDs of every entry (in no particular order).
func (t *RTree) QueryAll() []int32 {
	ids := make([]int32, len(t.entries))
	for i, e := range t.entries {
		ids[i] = e.ID
	}
	return ids
}

// Neighbor is one kNN result: an entry ID and its distance.
type Neighbor struct {
	ID       int32
	Distance float64
}

// KNN returns the k entries nearest to (x, y) ordered by ascending
// distance, using best-first branch-and-bound over envelope minimum
// distances. exact, when non-nil, refines an entry's distance (for
// non-point geometries whose envelope distance underestimates);
// when nil the envelope distance is used directly, which is exact for
// point data.
func (t *RTree) KNN(x, y float64, k int, exact func(id int32) float64) []Neighbor {
	if !t.built {
		panic("index: KNN before Build")
	}
	if k <= 0 || t.root == nil || len(t.entries) == 0 {
		return nil
	}
	pq := &knnQueue{}
	heap.Init(pq)
	heap.Push(pq, knnCandidate{dist: t.root.env.DistanceToPoint(x, y), n: t.root})

	var out []Neighbor
	for pq.Len() > 0 && len(out) < k {
		c := heap.Pop(pq).(knnCandidate)
		switch {
		case c.n != nil && c.n.children != nil:
			for _, ch := range c.n.children {
				heap.Push(pq, knnCandidate{dist: ch.env.DistanceToPoint(x, y), n: ch})
			}
		case c.n != nil:
			for _, e := range c.n.entries {
				d := e.Env.DistanceToPoint(x, y)
				if exact != nil {
					// Enqueue with the envelope lower bound first, refine
					// lazily when the entry is popped.
					heap.Push(pq, knnCandidate{dist: d, entry: &e, needRefine: true})
				} else {
					heap.Push(pq, knnCandidate{dist: d, entry: &e})
				}
			}
		case c.needRefine:
			refined := exact(c.entry.ID)
			heap.Push(pq, knnCandidate{dist: refined, entry: c.entry})
		default:
			out = append(out, Neighbor{ID: c.entry.ID, Distance: c.dist})
		}
	}
	return out
}

type knnCandidate struct {
	dist       float64
	n          *node
	entry      *Entry
	needRefine bool
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

// Height returns the tree height (0 for an empty tree).
func (t *RTree) Height() int {
	if !t.built || t.root == nil {
		return 0
	}
	h := 0
	for n := t.root; n != nil && n.children != nil; n = n.children[0] {
		h++
	}
	return h + 1
}

// validate checks structural invariants; used by tests.
func (t *RTree) validate() error {
	if !t.built {
		return errors.New("not built")
	}
	if len(t.entries) == 0 {
		return nil
	}
	count := 0
	var walk func(n *node, depth int) (int, error)
	leafDepth := -1
	walk = func(n *node, depth int) (int, error) {
		if n.children == nil {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return 0, fmt.Errorf("unbalanced: leaf at depth %d and %d", leafDepth, depth)
			}
			for _, e := range n.entries {
				if !n.env.ContainsEnvelope(e.Env) && !(e.Env.IsEmpty()) {
					return 0, fmt.Errorf("leaf env %v does not contain entry %v", n.env, e.Env)
				}
			}
			return len(n.entries), nil
		}
		if len(n.children) > t.order {
			return 0, fmt.Errorf("node fanout %d exceeds order %d", len(n.children), t.order)
		}
		sum := 0
		for _, c := range n.children {
			if !n.env.ContainsEnvelope(c.env) {
				return 0, fmt.Errorf("node env %v does not contain child %v", n.env, c.env)
			}
			s, err := walk(c, depth+1)
			if err != nil {
				return 0, err
			}
			sum += s
		}
		return sum, nil
	}
	var err error
	count, err = walk(t.root, 0)
	if err != nil {
		return err
	}
	if count != len(t.entries) {
		return fmt.Errorf("tree holds %d entries, inserted %d", count, len(t.entries))
	}
	return nil
}
