package live

import (
	"fmt"
	"sync/atomic"

	"stark/internal/attr"
	"stark/internal/geom"
	"stark/internal/index"
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

// base is a partition's packed, immutable part: rows in the leaf order
// of tree, and posts[i] over their positions for the dataset's i-th
// field. Only dels changes once the base is published.
type base[V any] struct {
	gen   uint64 // the generation the base was published at
	rows  []Record[V]
	dels  []atomic.Uint64 // delGen per row
	tree  *index.RTree
	posts []*attr.Index
}

// slot is one delta row.
type slot[V any] struct {
	rec    Record[V]
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

// newBase lays recs (live, added at or before gen) out in the leaf
// order of a packed tree and indexes them under fields.
func newBase[V any](order int, fields []attr.Field[V], gen uint64, recs []Record[V]) *base[V] {
	tree, perm := index.Pack(order, len(recs), func(i int) geom.Envelope { return recs[i].Key.Envelope() })
	b := &base[V]{gen: gen, rows: make([]Record[V], len(recs)), dels: make([]atomic.Uint64, len(recs)), tree: tree}
	for pos, i := range perm {
		b.rows[pos] = recs[i]
	}
	col := make([]attr.Value, len(recs))
	for _, f := range fields {
		for pos := range b.rows {
			col[pos] = f.Get(b.rows[pos].Key, b.rows[pos].Value)
		}
		b.posts = append(b.posts, attr.BuildIndex(f.Name, f.Kind, col))
	}
	return b
}

// install makes b partition p's base, with an empty delta, and points
// partOf at its rows. The caller holds d.mu.
func (d *Dataset[V]) install(p int, b *base[V]) {
	d.parts[p] = part[V]{base: b, live: len(b.rows)}
	for pos := range b.rows {
		d.partOf[b.rows[pos].ID] = loc{int32(p), int32(pos)}
	}
}

// due reports whether the partition should be repacked.
func (pt *part[V]) due() bool {
	return len(pt.delta) >= max(deltaFloor, len(pt.base.rows)/deltaShare) ||
		(pt.dead >= vacuumFloor && pt.dead > pt.live)
}

// repack packs partition p's live rows, base and delta, into a new base
// published at gen. Pinned views keep the old base and delta, and no
// later view can need a dropped tombstone (its delGen <= gen). The
// caller holds d.mu.
func (d *Dataset[V]) repack(p int, gen uint64) {
	pt := &d.parts[p]
	recs := make([]Record[V], 0, pt.live)
	pt.scan(nil, gen, func(r *Record[V]) bool {
		recs = append(recs, *r)
		return true
	})
	d.install(p, newBase(d.order, d.attrFields, gen, recs))
}

// row returns the record at position pos, the generation it was added
// at (its base's, for a base row) and its delGen.
func (pt *part[V]) row(pos int) (*Record[V], uint64, *atomic.Uint64) {
	if nb := len(pt.base.rows); pos >= nb {
		s := &pt.delta[pos-nb]
		return &s.rec, s.addGen, &s.delGen
	}
	return &pt.base.rows[pos], pt.base.gen, &pt.base.dels[pos]
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

// scan calls fn with every row visible at gen whose envelope meets
// *env (every visible row, when env is nil), the base's first in leaf
// order, then the delta's, until fn returns false; it reports whether
// it ran to the end. The base rows come from the leaf ranges its tree
// finds for *env.
func (pt *part[V]) scan(env *geom.Envelope, gen uint64, fn func(*Record[V]) bool) bool {
	b, more := pt.base, true
	rows := func(lo, hi int) bool {
		for i := lo; i < hi && more; i++ {
			if visibleAt(b.gen, &b.dels[i], gen) && (env == nil || b.rows[i].Key.EnvelopeIntersects(*env)) {
				more = fn(&b.rows[i])
			}
		}
		return more
	}
	if env == nil {
		rows(0, len(b.rows))
	} else {
		b.tree.Search(*env, rows)
	}
	for i := 0; i < len(pt.delta) && more; i++ {
		s := &pt.delta[i]
		if visibleAt(s.addGen, &s.delGen, gen) && (env == nil || s.rec.Key.EnvelopeIntersects(*env)) {
			more = fn(&s.rec)
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
// the base's tree over its rows (index.RTree.Check); partOf and the
// live rows naming each other; every tombstone stamped after its row
// was added; every field's postings equal to a projection of the base
// rows; and the live and dead counters equal to a walk.
func (d *Dataset[V]) checkPart(p, owned int) error {
	pt := &d.parts[p]
	b := pt.base
	if len(b.dels) != len(b.rows) {
		return fmt.Errorf("%d rows, %d delGens", len(b.rows), len(b.dels))
	}
	if err := b.tree.Check(func(pos int) geom.Envelope { return b.rows[pos].Key.Envelope() }); err != nil {
		return fmt.Errorf("base tree: %w", err)
	}
	live, dead := 0, 0
	for pos := range len(b.rows) + len(pt.delta) {
		rec, added, del := pt.row(pos)
		switch dg := del.Load(); {
		case dg != 0 && dg <= added:
			return fmt.Errorf("id %d at position %d: added at %d, tombstoned at %d", rec.ID, pos, added, dg)
		case dg != 0:
			dead++
		case d.partOf[rec.ID] != loc{int32(p), int32(pos)}:
			return fmt.Errorf("id %d live at position %d, partOf says %v", rec.ID, pos, d.partOf[rec.ID])
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
	if len(b.posts) != len(d.attrFields) {
		return fmt.Errorf("%d postings for %d fields", len(b.posts), len(d.attrFields))
	}
	for i, f := range d.attrFields {
		if err := b.posts[i].Check(); err != nil {
			return fmt.Errorf("field %q: %w", f.Name, err)
		}
		filed := 0
		for val, list := range b.posts[i].All() {
			for _, pos := range list {
				if int(pos) >= len(b.rows) {
					return fmt.Errorf("field %q files position %d of %d", f.Name, pos, len(b.rows))
				}
				if r := &b.rows[pos]; f.Get(r.Key, r.Value).Compare(val) != 0 {
					return fmt.Errorf("field %q: id %d valued %s filed under %s", f.Name, r.ID, f.Get(r.Key, r.Value), val)
				}
			}
			filed += len(list)
		}
		if filed != len(b.rows) {
			return fmt.Errorf("field %q files %d positions of %d", f.Name, filed, len(b.rows))
		}
	}
	return nil
}
