package live

import (
	"fmt"
	"sync/atomic"

	"stark/internal/attr"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/index"
	"stark/internal/stobject"
)

// defaultOrder is the default node capacity of a base's tree.
const defaultOrder = 16

// A partition is repacked when its delta holds deltaFloor slots or
// one per deltaShare base rows, whichever is more, or when its
// tombstones number at least vacuumFloor and outnumber its live rows.
// A repack sorts the whole partition, so a delta bound that grows with
// the base keeps the repack work per appended row flat; the values are
// BenchmarkApplyUpsertBatch's pick.
const (
	deltaFloor  = 1024
	deltaShare  = 4
	vacuumFloor = 64
)

// base is a partition's packed, immutable part: an index.Laid (rows in
// the leaf order of its tree, and Posts[i] over their positions for the
// dataset's i-th field), the id of the row at each position, and its
// delGen. Only dels changes once the base is published.
type base[V any] struct {
	gen uint64 // the generation the base was published at
	*index.Laid[V]
	ids  []int64
	dels []atomic.Uint64 // delGen per row
}

// slot is one delta row.
type slot[V any] struct {
	id     int64
	kv     engine.Pair[stobject.STObject, V]
	addGen uint64
	delGen atomic.Uint64
}

// part is one partition: its base and the delta written since the base
// was packed. A view holds a copy, which pins the delta's length.
type part[V any] struct {
	base       *base[V]
	delta      []slot[V]
	live, dead int // writer-side counts of live rows and tombstones
}

// newBase lays rows (live, added at or before gen; ids[i] is row i's)
// out with index.Lay and the ids beside them.
func newBase[V any](order int, fields []attr.Field[V], gen uint64, ids []int64, rows []engine.Pair[stobject.STObject, V]) *base[V] {
	l, perm := index.Lay(order, rows, fields, false)
	b := &base[V]{gen: gen, Laid: l, ids: make([]int64, len(perm)), dels: make([]atomic.Uint64, len(perm))}
	for pos, i := range perm {
		b.ids[pos] = ids[i]
	}
	return b
}

// install makes b partition p's base, with an empty delta, and points
// partOf at its rows. The caller holds d.mu.
func (d *Dataset[V]) install(p int, b *base[V]) {
	d.parts[p] = part[V]{base: b, live: len(b.ids)}
	for pos, id := range b.ids {
		d.partOf[id] = loc{int32(p), int32(pos)}
	}
}

// due reports whether the partition should be repacked.
func (pt *part[V]) due() bool {
	return len(pt.delta) >= max(deltaFloor, len(pt.base.ids)/deltaShare) ||
		(pt.dead >= vacuumFloor && pt.dead > pt.live)
}

// repack packs partition p's live rows, base and delta, into a new base
// published at gen. Pinned views keep the old base and delta, and no
// later view can need a dropped tombstone (its delGen <= gen). The
// caller holds d.mu.
func (d *Dataset[V]) repack(p int, gen uint64) {
	pt := &d.parts[p]
	ids, rows := make([]int64, 0, pt.live), make([]engine.Pair[stobject.STObject, V], 0, pt.live)
	pt.scan(nil, gen, func(id int64, kv *engine.Pair[stobject.STObject, V]) bool {
		ids, rows = append(ids, id), append(rows, *kv)
		return true
	})
	d.install(p, newBase(d.order, d.attrFields, gen, ids, rows))
}

// row returns the id and the pair at position pos, the generation the
// row was added at (its base's, for a base row) and its delGen.
func (pt *part[V]) row(pos int) (int64, *engine.Pair[stobject.STObject, V], uint64, *atomic.Uint64) {
	if nb := len(pt.base.ids); pos >= nb {
		s := &pt.delta[pos-nb]
		return s.id, &s.kv, s.addGen, &s.delGen
	}
	return pt.base.ids[pos], &pt.base.Rows[pos], pt.base.gen, &pt.base.dels[pos]
}

// visibleAt reports whether a row added at addGen with the given
// delGen is visible at gen.
func visibleAt(addGen uint64, del *atomic.Uint64, gen uint64) bool {
	if addGen > gen {
		return false
	}
	dg := del.Load()
	return dg == 0 || dg > gen
}

// scan calls fn with the id and the pair of every row visible at gen
// whose envelope meets *env (every visible row, when env is nil), the
// base's first in leaf order, then the delta's, until fn returns false;
// it reports whether it ran to the end. The base rows come from the
// base's Search for *env.
func (pt *part[V]) scan(env *geom.Envelope, gen uint64, fn func(id int64, kv *engine.Pair[stobject.STObject, V]) bool) bool {
	b, more := pt.base, true
	if env == nil {
		for pos := 0; pos < len(b.ids) && more; pos++ {
			if visibleAt(b.gen, &b.dels[pos], gen) {
				more = fn(b.ids[pos], &b.Rows[pos])
			}
		}
	} else {
		more = b.Search(*env, 0, func(pos int) bool {
			return !visibleAt(b.gen, &b.dels[pos], gen) || fn(b.ids[pos], &b.Rows[pos])
		})
	}
	for i := 0; i < len(pt.delta) && more; i++ {
		s := &pt.delta[i]
		if visibleAt(s.addGen, &s.delGen, gen) && (env == nil || s.kv.Key.EnvelopeIntersects(*env)) {
			more = fn(s.id, &s.kv)
		}
	}
	return more
}

// check verifies every partition's invariants; see checkPart. Caller
// holds d.mu; it is cheap enough to run after every batch of a test.
func (d *Dataset[V]) check() error {
	owned := make([]int, len(d.parts))
	for id, l := range d.partOf {
		if l.part < 0 || int(l.part) >= len(d.parts) {
			return fmt.Errorf("partOf files id %d in partition %d of %d", id, l.part, len(d.parts))
		}
		owned[l.part]++
	}
	for p := range d.parts {
		if err := d.checkPart(p, owned[p]); err != nil {
			return fmt.Errorf("generation %d, partition %d: %w", d.view.Load().gen, p, err)
		}
	}
	return nil
}

// checkPart verifies partition p, of whose ids partOf files owned:
// the base's laid-out rows, tree and postings (index.Laid.Check, under
// the dataset's fields); partOf and the live rows naming each other;
// every tombstone stamped after its row was added; and the live and
// dead counters equal to a walk.
func (d *Dataset[V]) checkPart(p, owned int) error {
	pt := &d.parts[p]
	b := pt.base
	if len(b.ids) != len(b.Rows) || len(b.dels) != len(b.Rows) {
		return fmt.Errorf("%d rows, %d ids, %d delGens", len(b.Rows), len(b.ids), len(b.dels))
	}
	if err := b.Check(d.attrFields); err != nil {
		return fmt.Errorf("base: %w", err)
	}
	live, dead := 0, 0
	for pos := range len(b.ids) + len(pt.delta) {
		id, _, added, del := pt.row(pos)
		switch dg := del.Load(); {
		case dg != 0 && dg <= added:
			return fmt.Errorf("id %d at position %d: added at %d, tombstoned at %d", id, pos, added, dg)
		case dg != 0:
			dead++
		case d.partOf[id] != loc{int32(p), int32(pos)}:
			return fmt.Errorf("id %d live at position %d, partOf says %v", id, pos, d.partOf[id])
		default:
			live++
		}
	}
	if live != owned {
		return fmt.Errorf("%d rows live, partOf files %d ids here", live, owned)
	}
	if live != pt.live || dead != pt.dead {
		return fmt.Errorf("walk counts %d live, %d dead; counters say %d, %d", live, dead, pt.live, pt.dead)
	}
	return nil
}
