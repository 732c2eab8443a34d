// Package live implements mutable datasets: a concurrency-safe R-tree
// that absorbs inserts, upserts and deletes in batches while queries
// stream a consistent snapshot, plus the MutableDataset that wires the
// tree into the engine, the statistics layer and the planner.
//
// The tree adapts the B-link-tree technique of Lehman and Yao (and its
// R-tree variant by Kornacker and Banks) so that readers never block
// on — and never restart because of — node splits:
//
//   - every node carries a right-sibling pointer and a node sequence
//     number (NSN);
//   - a parent's reference to a child records the NSN the child had
//     when the reference was written;
//   - a split keeps the original node in place, moves the upper half
//     of its contents into a new right sibling, hands the sibling the
//     node's OLD sequence number and stamps the node itself with a
//     fresh one.
//
// A reader that followed a reference expecting sequence number E and
// finds a node stamped differently knows the node has split since the
// reference was written: the moved contents live somewhere to the
// right. It keeps walking right pointers, visiting each node once,
// and stops after the first node stamped E — because the old number
// propagates to the rightmost node of any split chain, that node is
// always the end of the moved run. Readers therefore hold at most one
// read latch at a time and never revisit or miss an entry, no matter
// how many splits land mid-flight.
//
// Visibility is decided per entry, not per node: every entry records
// the generation that added it and (once deleted) the generation that
// removed it, so a reader pinned to generation g filters to
// addGen <= g < delGen. Deletes are tombstones; space is reclaimed by
// rebuilding a partition's tree wholesale (see Dataset), never by
// mutating structure a snapshot may still be reading.
//
// Concurrency contract: any number of readers, ONE writer at a time
// (the Dataset serialises batches with a mutex). The writer descends
// latch-free — it is the only mutator — and takes a node's write
// latch only while changing that node, so readers are excluded
// exactly from the nodes being restructured.
package live

import (
	"fmt"
	"sync"
	"sync/atomic"

	"stark/internal/geom"
	"stark/internal/index"
	"stark/internal/stobject"
)

// DefaultOrder is the default node capacity of the live tree.
const DefaultOrder = 16

// Entry is one record version stored in the tree.
type Entry[V any] struct {
	ID    int64
	Key   stobject.STObject
	Value V

	// addGen is the generation whose batch inserted the entry; delGen
	// is the generation that tombstoned it (0 while live). An entry is
	// visible at generation g iff addGen <= g && (delGen == 0 || delGen > g).
	addGen uint64
	delGen uint64
}

func (e *Entry[V]) visibleAt(gen uint64) bool {
	return e.addGen <= gen && (e.delGen == 0 || e.delGen > gen)
}

// childRef is a parent's latch-protected reference to a child: the
// pointer, the child's envelope, and the sequence number the child
// carried when the reference was last written. env and nsn are
// updated together under the parent's write latch, so a reader sees a
// consistent (possibly stale) pair and the nsn tells it how stale.
type childRef[V any] struct {
	ptr *node[V]
	env geom.Envelope
	nsn uint64
}

type node[V any] struct {
	mu  sync.RWMutex
	nsn uint64
	env geom.Envelope
	// right links a node to the sibling its last split created,
	// forming the chase chain readers follow. At the leaf level the
	// pointers additionally chain ALL leaves left to right: newTree
	// chains the leaves it packs, splits the rest.
	right   *node[V]
	refs    []childRef[V] // internal nodes; nil for leaves
	entries []Entry[V]    // leaves; nil for internal nodes
}

func (n *node[V]) isLeaf() bool { return n.refs == nil }

// rootRef pairs the root pointer with its expected sequence number so
// readers enter the tree with the same (ptr, nsn) contract they use
// for every other node. Swapped atomically on root splits.
type rootRef[V any] struct {
	n   *node[V]
	nsn uint64
}

// tree is one partition's concurrent R-link tree. All exported-like
// mutating methods assume the caller holds the dataset writer mutex.
type tree[V any] struct {
	order int
	nsn   uint64 // writer-only sequence counter

	root     atomic.Pointer[rootRef[V]]
	leftLeaf *node[V] // head of the leaf chain; never changes

	// owners maps a live (non-tombstoned) entry ID to the leaf holding
	// it, so delete/upsert find their target without a tree descent.
	// Writer-only.
	owners map[int64]*node[V]

	live int // entries with delGen == 0
	dead int // tombstones awaiting vacuum
}

// newTree packs es (live, addGen stamped) into a fresh tree by STR
// (index.STRRuns), every level three quarters full so that the next
// inserts do not split every node.
func newTree[V any](order int, es []Entry[V]) *tree[V] {
	if order < 4 {
		order = DefaultOrder
	}
	t := &tree[V]{order: order, owners: make(map[int64]*node[V], len(es)), live: len(es)}
	packed := make([]Entry[V], 0, len(es))
	var level []*node[V]
	index.STRRuns(len(es), order*3/4, func(i int) geom.Envelope { return es[i].Key.Envelope() }, func(run []int32) {
		n, lo := &node[V]{nsn: t.nextNSN()}, len(packed)
		for _, i := range run {
			packed = append(packed, es[i])
			t.owners[es[i].ID] = n
		}
		// Capped, so that a leaf's first insert reallocates it rather
		// than overwrite its neighbour's entries.
		n.entries = packed[lo:len(packed):len(packed)]
		n.env = cover(n.entries, entryEnv[V])
		level = append(level, n)
	})
	t.leftLeaf = level[0]
	for k := 1; k < len(level); k++ {
		level[k-1].right = level[k]
	}
	for len(level) > 1 {
		var up []*node[V]
		index.STRRuns(len(level), order*3/4, func(i int) geom.Envelope { return level[i].env }, func(run []int32) {
			n := &node[V]{nsn: t.nextNSN(), refs: make([]childRef[V], len(run))}
			for k, i := range run {
				n.refs[k] = childRef[V]{ptr: level[i], env: level[i].env, nsn: level[i].nsn}
			}
			n.env = cover(n.refs, refEnv[V])
			up = append(up, n)
		})
		level = up
	}
	t.root.Store(&rootRef[V]{n: level[0], nsn: level[0].nsn})
	return t
}

func (t *tree[V]) nextNSN() uint64 {
	t.nsn++
	return t.nsn
}

// ---- Reader side ----

// search streams every entry visible at gen whose envelope intersects
// q to yield, stopping early when yield returns false (the return
// value reports whether the walk ran to completion). all == true
// bypasses the envelope test and streams the whole partition. Entries
// are copied out of a leaf under its read latch and yielded after the
// latch is released, so yield may do arbitrary work.
func (t *tree[V]) search(q geom.Envelope, gen uint64, all bool, yield func(e Entry[V]) bool) bool {
	rr := t.root.Load()
	type frame struct {
		n   *node[V]
		nsn uint64
	}
	stack := []frame{{rr.n, rr.nsn}}
	var out []Entry[V]
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cur, expected := f.n, f.nsn
		for cur != nil {
			cur.mu.RLock()
			// The stop decision and the node's contents are read under
			// the SAME latch hold: if the node splits after we release,
			// the entries that moved right were already seen here.
			last := cur.nsn == expected
			next := cur.right
			if cur.isLeaf() {
				for i := range cur.entries {
					e := &cur.entries[i]
					if !e.visibleAt(gen) {
						continue
					}
					if all || e.Key.EnvelopeIntersects(q) {
						out = append(out, *e)
					}
				}
			} else {
				for i := range cur.refs {
					r := &cur.refs[i]
					if all || r.env.Intersects(q) {
						stack = append(stack, frame{r.ptr, r.nsn})
					}
				}
			}
			cur.mu.RUnlock()
			for i := range out {
				if !yield(out[i]) {
					return false
				}
			}
			out = out[:0]
			if last {
				break
			}
			cur = next
		}
	}
	return true
}

// ---- Writer side (caller holds the dataset writer mutex) ----

// insert adds an entry (addGen already stamped) and registers its
// owning leaf.
func (t *tree[V]) insert(e Entry[V]) {
	env := e.Key.Envelope()

	// Latch-free descent: this goroutine is the only mutator, so the
	// path it reads cannot change under it.
	n := t.root.Load().n
	var path []*node[V]
	for !n.isLeaf() {
		path = append(path, n)
		n = n.refs[t.chooseSubtree(n, env)].ptr
	}

	leaf := n
	leaf.mu.Lock()
	leaf.entries = append(leaf.entries, e)
	leaf.env = leaf.env.ExpandToInclude(env)
	var sib *node[V]
	if len(leaf.entries) > t.order {
		sib = t.split(leaf)
	}
	leaf.mu.Unlock()

	t.owners[e.ID] = leaf
	if sib != nil {
		for i := range sib.entries {
			if sib.entries[i].delGen == 0 {
				t.owners[sib.entries[i].ID] = sib
			}
		}
	}
	t.live++
	t.adjustUp(path, leaf, sib)
}

// delete tombstones the live entry with the given ID at generation
// gen, returning the entry (for stat deltas). The second result is
// false when the ID is not live.
func (t *tree[V]) delete(id int64, gen uint64) (Entry[V], bool) {
	leaf, ok := t.owners[id]
	if !ok {
		return Entry[V]{}, false
	}
	var out Entry[V]
	leaf.mu.Lock()
	for i := range leaf.entries {
		e := &leaf.entries[i]
		if e.ID == id && e.delGen == 0 {
			e.delGen = gen
			out = *e
			break
		}
	}
	leaf.mu.Unlock()
	delete(t.owners, id)
	t.live--
	t.dead++
	return out, true
}

// chooseSubtree picks the child needing least area enlargement to
// absorb env (ties: smaller area, then first).
func (t *tree[V]) chooseSubtree(n *node[V], env geom.Envelope) int {
	best, bestEnl, bestArea := 0, -1.0, 0.0
	for i := range n.refs {
		ce := n.refs[i].env
		area := ce.Area()
		enl := ce.ExpandToInclude(env).Area() - area
		if bestEnl < 0 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// split halves an overflowing node while the caller holds its write
// latch: the upper half (along the node envelope's longer axis) moves
// to a new right sibling, the sibling inherits the node's OLD sequence
// number and splices into the chain, and the node is stamped fresh.
// Readers chasing the old number find the sibling — the last node of
// the chain carrying it.
func (t *tree[V]) split(n *node[V]) *node[V] {
	sib := &node[V]{nsn: n.nsn, right: n.right}
	if n.isLeaf() {
		n.entries, sib.entries = halve(n.entries, n.env, entryEnv[V])
		n.env, sib.env = cover(n.entries, entryEnv[V]), cover(sib.entries, entryEnv[V])
	} else {
		n.refs, sib.refs = halve(n.refs, n.env, refEnv[V])
		n.env, sib.env = cover(n.refs, refEnv[V]), cover(sib.refs, refEnv[V])
	}
	n.nsn = t.nextNSN()
	n.right = sib
	return sib
}

// adjustUp walks the descent path bottom-up after an insert: refresh
// the parent's reference to the child (envelope and sequence number
// together, under the parent's write latch), splice in the reference
// to a new sibling, and cascade splits. A sibling left over at the
// top means the root split: a new root is built off to the side and
// swapped in atomically.
func (t *tree[V]) adjustUp(path []*node[V], child, sib *node[V]) {
	for i := len(path) - 1; i >= 0; i-- {
		parent := path[i]
		parent.mu.Lock()
		for j := range parent.refs {
			if parent.refs[j].ptr == child {
				parent.refs[j].env = child.env
				parent.refs[j].nsn = child.nsn
				if sib != nil {
					ref := childRef[V]{ptr: sib, env: sib.env, nsn: sib.nsn}
					parent.refs = append(parent.refs, childRef[V]{})
					copy(parent.refs[j+2:], parent.refs[j+1:])
					parent.refs[j+1] = ref
				}
				break
			}
		}
		parent.env = parent.env.ExpandToInclude(child.env)
		if sib != nil {
			parent.env = parent.env.ExpandToInclude(sib.env)
		}
		var parentSib *node[V]
		if len(parent.refs) > t.order {
			parentSib = t.split(parent)
		}
		parent.mu.Unlock()
		child, sib = parent, parentSib
	}
	if sib != nil {
		newRoot := &node[V]{
			nsn: t.nextNSN(),
			env: child.env.ExpandToInclude(sib.env),
			refs: []childRef[V]{
				{ptr: child, env: child.env, nsn: child.nsn},
				{ptr: sib, env: sib.env, nsn: sib.nsn},
			},
		}
		t.root.Store(&rootRef[V]{n: newRoot, nsn: newRoot.nsn})
	}
}

// liveEntries copies out the live entries along the leaf chain.
// Writer-side: the caller is the only mutator, so it takes no latch.
func (t *tree[V]) liveEntries() []Entry[V] {
	es := make([]Entry[V], 0, t.live)
	for n := t.leftLeaf; n != nil; n = n.right {
		for _, e := range n.entries {
			if e.delGen == 0 {
				es = append(es, e)
			}
		}
	}
	return es
}

// check verifies the invariants: envelopes of nodes and refs cover
// their contents, refs carry their child's NSN (no chase is pending
// while the writer rests), the leaf chain visits exactly the leaves the
// root walk reaches, owners maps live ids to their leaves, live and dead
// match a count, tombstones postdate inserts. Caller holds d.mu.
func (t *tree[V]) check() error {
	leaves, live, dead := make(map[*node[V]]bool), 0, 0
	var walk func(n *node[V], nsn uint64) error
	walk = func(n *node[V], nsn uint64) error {
		if n.nsn != nsn {
			return fmt.Errorf("node %d: its ref carries nsn %d", n.nsn, nsn)
		}
		for _, r := range n.refs {
			if !n.env.ContainsEnvelope(r.env) || !r.env.ContainsEnvelope(r.ptr.env) {
				return fmt.Errorf("node %d: ref %v does not cover child %d's %v", n.nsn, r.env, r.ptr.nsn, r.ptr.env)
			}
			if err := walk(r.ptr, r.nsn); err != nil {
				return err
			}
		}
		if !n.isLeaf() {
			return nil
		}
		leaves[n] = true
		for i := range n.entries {
			e := &n.entries[i]
			switch {
			case !n.env.ContainsEnvelope(e.Key.Envelope()):
				return fmt.Errorf("leaf %d: %v does not cover id %d's %v", n.nsn, n.env, e.ID, e.Key.Envelope())
			case e.delGen != 0 && e.addGen >= e.delGen:
				return fmt.Errorf("id %d: added at %d, tombstoned at %d", e.ID, e.addGen, e.delGen)
			case e.delGen != 0:
				dead++
			case t.owners[e.ID] != n:
				return fmt.Errorf("id %d: owners points away from its leaf %d", e.ID, n.nsn)
			default:
				live++
			}
		}
		return nil
	}
	rr := t.root.Load()
	if err := walk(rr.n, rr.nsn); err != nil {
		return err
	}
	for n := t.leftLeaf; n != nil; n = n.right {
		if !leaves[n] {
			return fmt.Errorf("leaf chain reaches leaf %d twice or off the root walk", n.nsn)
		}
		delete(leaves, n)
	}
	if len(leaves) != 0 {
		return fmt.Errorf("leaf chain misses %d leaves", len(leaves))
	}
	if live != t.live || dead != t.dead || len(t.owners) != live {
		return fmt.Errorf("walk counts %d live, %d dead; counters say %d, %d with %d owners", live, dead, t.live, t.dead, len(t.owners))
	}
	return nil
}

// ---- split and pack helpers ----

func entryEnv[V any](e *Entry[V]) geom.Envelope  { return e.Key.Envelope() }
func refEnv[V any](r *childRef[V]) geom.Envelope { return r.env }

// cover returns the envelope of items.
func cover[T any](items []T, envOf func(*T) geom.Envelope) geom.Envelope {
	env := geom.EmptyEnvelope()
	for i := range items {
		env = env.ExpandToInclude(envOf(&items[i]))
	}
	return env
}

// halve orders items by envelope centre along env's longer axis —
// insertion sort, since a node holds at most order+1 — and returns the
// lower half, capped, and a copy of the upper half.
func halve[T any](items []T, env geom.Envelope, envOf func(*T) geom.Envelope) (lo, hi []T) {
	byX := env.Width() >= env.Height()
	axis := func(i int) float64 {
		c := envOf(&items[i]).Center()
		if byX {
			return c.X
		}
		return c.Y
	}
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && axis(j) < axis(j-1); j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	mid := len(items) / 2
	return items[:mid:mid], append([]T(nil), items[mid:]...)
}
