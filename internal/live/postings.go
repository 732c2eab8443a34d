package live

// Generation-tagged attribute postings for mutable datasets. A
// partition allocates one entry per record version and files that one
// pointer under every registered field, in an attr.Postings (the
// chunked structure the static sidecar files row ids in), so a new
// value shifts one chunk and never the partition. Entries carry the
// same addGen/delGen tags as the tree entries, so a snapshot pinned at
// generation g probes exactly the records it would see scanning:
// inserts from later batches are invisible, deletes from later batches
// still show.
//
// Concurrency follows the tree's contract: one writer at a time
// (serialised by the dataset mutex) mutates in place — files an entry,
// tombstones one — under the partition's write latch, readers probe
// under the read latch. Tombstone space is reclaimed by reloading the
// partition (Dataset.load) into the writer's working set; published
// views keep the old object, so pinned snapshots never lose a
// tombstoned entry they can still see.

import (
	"fmt"
	"sync"

	"stark/internal/attr"
	"stark/internal/engine"
	"stark/internal/stobject"
)

// postEntry is one record version. An insert allocates exactly one
// and hands the pointer to the postings of every registered field, so
// a version is tombstoned once however many fields index it.
type postEntry[V any] struct {
	id     int64
	key    stobject.STObject
	val    V
	addGen uint64
	delGen uint64 // 0 while live
}

func (e *postEntry[V]) visibleAt(gen uint64) bool {
	return e.addGen <= gen && (e.delGen == 0 || e.delGen > gen)
}

// partAttrs holds one partition's postings behind a read-write latch:
// posts[i] files the record versions under fields[i]. The single
// writer mutates under the write latch; snapshot probes read under the
// read latch; generation tags keep pinned reads repeatable despite the
// shared structure. fields and posts themselves — which fields exist,
// in registration order — are immutable once the partAttrs is
// published (SetAttrFields and Dataset.load build a new one), so they
// are read without the latch. byID, live and dead are writer-only.
type partAttrs[V any] struct {
	mu     sync.RWMutex
	fields []attr.Field[V]
	posts  []*attr.Postings[*postEntry[V]]
	byID   map[int64]*postEntry[V] // the live version of each record
	live   int
	dead   int // tombstones awaiting vacuum
}

// newPartAttrs files es (live) under every field through the postings'
// sorted-run loader, one version per entry.
func newPartAttrs[V any](fields []attr.Field[V], es []Entry[V]) *partAttrs[V] {
	pa := &partAttrs[V]{fields: fields, byID: make(map[int64]*postEntry[V], len(es)), live: len(es)}
	versions := make([]postEntry[V], len(es))
	for i, e := range es {
		versions[i] = postEntry[V]{id: e.ID, key: e.Key, val: e.Value, addGen: e.addGen}
		pa.byID[e.ID] = &versions[i]
	}
	vals := make([]attr.Value, len(es))
	for _, f := range fields {
		for i := range versions {
			vals[i] = f.Get(versions[i].key, versions[i].val)
		}
		pa.posts = append(pa.posts, attr.LoadPostings(vals, func(i int32) *postEntry[V] { return &versions[i] }))
	}
	return pa
}

// field returns the postings of the named field, nil when it is not
// registered.
func (pa *partAttrs[V]) field(name string) *attr.Postings[*postEntry[V]] {
	for i, f := range pa.fields {
		if f.Name == name {
			return pa.posts[i]
		}
	}
	return nil
}

// insert files one record version under every field. The writer calls
// it under the write latch once the partAttrs is published.
func (pa *partAttrs[V]) insert(id int64, key stobject.STObject, val V, gen uint64) {
	e := &postEntry[V]{id: id, key: key, val: val, addGen: gen}
	for i, f := range pa.fields {
		pa.posts[i].Insert(f.Get(key, val), e)
	}
	pa.byID[id] = e
	pa.live++
}

// tombstone marks the live version of id deleted at gen.
func (pa *partAttrs[V]) tombstone(id int64, gen uint64) {
	e, ok := pa.byID[id]
	if !ok {
		return
	}
	e.delGen = gen
	delete(pa.byID, id)
	pa.live--
	pa.dead++
}

// check verifies every field's postings structure (Postings.Check),
// then the entries against the partition's own bookkeeping and tree:
// every entry filed under the value its payload projects to, every live
// entry the one byID holds and present exactly once per field,
// tombstones stamped after their insert, live and dead equal to what a
// walk counts, and the live ids equal to the tree's. Writer-side
// (caller holds d.mu); cheap enough to run after every batch of a test.
func (pa *partAttrs[V]) check(t *tree[V]) error {
	if pa.live != len(pa.byID) {
		return fmt.Errorf("live = %d, byID holds %d", pa.live, len(pa.byID))
	}
	if pa.live != t.live || len(t.owners) != t.live {
		return fmt.Errorf("postings live = %d, tree live = %d with %d owners", pa.live, t.live, len(t.owners))
	}
	for id := range pa.byID {
		if _, ok := t.owners[id]; !ok {
			return fmt.Errorf("id %d live in the postings, not in the tree", id)
		}
	}
	for i, f := range pa.fields {
		if err := pa.checkField(f, pa.posts[i]); err != nil {
			return fmt.Errorf("field %q: %w", f.Name, err)
		}
	}
	return nil
}

func (pa *partAttrs[V]) checkField(f attr.Field[V], ps *attr.Postings[*postEntry[V]]) error {
	if err := ps.Check(); err != nil {
		return err
	}
	live := make(map[*postEntry[V]]struct{}, pa.live)
	dead := 0
	for val, list := range ps.All() {
		for _, e := range list {
			if v := f.Get(e.key, e.val); v.Compare(val) != 0 {
				return fmt.Errorf("id %d valued %s filed under %s", e.id, v, val)
			}
			switch {
			case e.delGen != 0 && e.addGen >= e.delGen:
				return fmt.Errorf("id %d: added at %d, tombstoned at %d", e.id, e.addGen, e.delGen)
			case e.delGen != 0:
				dead++
			case pa.byID[e.id] != e:
				return fmt.Errorf("id %d: live entry is not the one byID holds", e.id)
			default:
				if _, twice := live[e]; twice {
					return fmt.Errorf("id %d filed twice", e.id)
				}
				live[e] = struct{}{}
			}
		}
	}
	if len(live) != pa.live || dead != pa.dead {
		return fmt.Errorf("walk counts %d live, %d dead; counters say %d, %d", len(live), dead, pa.live, pa.dead)
	}
	return nil
}

// ---- Dataset writer side (caller holds d.mu) ----

// SetAttrFields registers the payload fields whose postings the
// dataset maintains across batches, building them from the records
// already live. Calling it again replaces the field set; an empty set
// drops the postings. Snapshots taken before the call do not see the
// new fields — their probes fall back to scans.
func (d *Dataset[V]) SetAttrFields(fields []attr.Field[V]) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.attrFields = append([]attr.Field[V](nil), fields...)
	for p, t := range d.trees {
		d.attrs[p] = nil
		d.load(p, t.liveEntries())
	}
	d.publish(d.view.Load().gen)
}

// attrInsert files rec into partition p's postings (no-op without
// registered fields).
func (d *Dataset[V]) attrInsert(p int, rec Record[V], gen uint64) {
	pa := d.attrs[p]
	if pa == nil {
		return
	}
	pa.mu.Lock()
	pa.insert(rec.ID, rec.Key, rec.Value, gen)
	pa.mu.Unlock()
}

// attrDelete tombstones id in partition p's postings.
func (d *Dataset[V]) attrDelete(p int, id int64, gen uint64) {
	pa := d.attrs[p]
	if pa == nil {
		return
	}
	pa.mu.Lock()
	pa.tombstone(id, gen)
	pa.mu.Unlock()
}

// ---- Snapshot reader side ----

// HasAttrField reports whether the pinned view maintains postings for
// the named field.
func (s *Snapshot[V]) HasAttrField(name string) bool {
	for _, pa := range s.v.attrs {
		if pa == nil || pa.field(name) == nil {
			return false
		}
	}
	return len(s.v.attrs) > 0
}

// AttrProbe returns the postings probe as a lazy stream shaped like
// Tuples: partition part enumerates the entries matching p and visible
// at the pinned generation and yields those that pass keep. The
// candidates are copied out under the partition's read latch; keep and
// yield run on the copies after its release, so arbitrary predicate
// work never holds the latch. A view without postings for p's field
// fails here, before any row. Probe metrics are charged to rec (nil
// selects the context's root recorder): one index probe per partition,
// the postings candidates as candidates refined.
func (s *Snapshot[V]) AttrProbe(
	rec *engine.Recorder,
	p attr.Pred,
	keep func(kv engine.Pair[stobject.STObject, V]) bool,
) (*engine.Dataset[engine.Pair[stobject.STObject, V]], error) {
	if !s.HasAttrField(p.Field) {
		return nil, fmt.Errorf("live: no attribute postings for field %q (SetAttrFields first)", p.Field)
	}
	v := s.v
	if rec == nil {
		rec = s.d.ctx.Recorder()
	}
	name := fmt.Sprintf("%s@g%d.attrProbe", s.d.name, v.gen)
	return engine.NewStream(s.d.ctx, name, len(v.attrs), func(part int, yield func(engine.Pair[stobject.STObject, V]) bool) error {
		pa := v.attrs[part]
		var cands []engine.Pair[stobject.STObject, V]
		pa.mu.RLock()
		candidates := pa.field(p.Field).Postings(p, func(e *postEntry[V]) {
			if e.visibleAt(v.gen) {
				cands = append(cands, engine.NewPair(e.key, e.val))
			}
		})
		pa.mu.RUnlock()
		rec.Add(engine.IndexProbes, 1)
		rec.Add(engine.CandidatesRefined, int64(candidates))
		for _, kv := range cands {
			if keep(kv) && !yield(kv) {
				break
			}
		}
		return nil
	}).WithRecorder(rec), nil
}
