package live

// Generation-tagged attribute postings for mutable datasets — the
// mutable counterpart of attr.Index. A partition allocates one entry
// per record version and files that one pointer under every registered
// field; each field keeps its distinct values in ascending order, cut
// into bounded chunks behind a directory, so a new value shifts one
// chunk and never the partition. Entries carry the same addGen/delGen
// tags as the tree entries, so a snapshot pinned at generation g probes
// exactly the records it would see scanning: inserts from later
// batches are invisible, deletes from later batches still show.
//
// Concurrency follows the tree's contract: one writer at a time
// (serialised by the dataset mutex) mutates in place — files an entry,
// tombstones one — under the partition's write latch, readers probe
// under the read latch. Tombstone space is reclaimed by rebuilding a
// partition's postings wholesale and swapping the pointer into the
// writer's working set; published views keep the old object, so pinned
// snapshots never lose a tombstoned entry they can still see.

import (
	"fmt"
	"slices"
	"sort"
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

// chunkCap bounds a chunk of a field's postings. An insert shifts at
// most one chunk, so the constant trades the bytes moved per new value
// against the length of the directory searched first.
const chunkCap = 64

// slot is one distinct field value with the entries carrying it, in
// insertion order.
type slot[V any] struct {
	val  attr.Value
	list []*postEntry[V]
}

// fieldPostings is one partition's postings over one field: the
// distinct values in ascending order, cut into chunks of at most
// chunkCap slots. A lookup binary-searches the chunks by their last
// value and then the chunk it lands in; a new value shifts only that
// chunk, and a chunk that overflows splits in half. Chunks are never
// empty: values leave only when attrVacuum rebuilds the partition.
type fieldPostings[V any] struct {
	field  string
	get    func(V) attr.Value
	chunks [][]slot[V]
}

// pos addresses a slot: chunk c, slot i within it. The position one
// past the last slot is {len(chunks), 0}.
type pos struct{ c, i int }

func (fp *fieldPostings[V]) end() pos { return pos{len(fp.chunks), 0} }

// seek returns the position of the first value >= v, or of the first
// value > v when strict.
func (fp *fieldPostings[V]) seek(v attr.Value, strict bool) pos {
	past := func(x attr.Value) bool {
		c := x.Compare(v)
		return c > 0 || (c == 0 && !strict)
	}
	c := sort.Search(len(fp.chunks), func(c int) bool {
		ch := fp.chunks[c]
		return past(ch[len(ch)-1].val)
	})
	if c == len(fp.chunks) {
		return fp.end()
	}
	ch := fp.chunks[c]
	return pos{c, sort.Search(len(ch), func(i int) bool { return past(ch[i].val) })}
}

// insert files e under its field value, creating the value's slot when
// it is new.
func (fp *fieldPostings[V]) insert(e *postEntry[V]) {
	v := fp.get(e.val)
	at := fp.seek(v, false)
	if at.c == len(fp.chunks) {
		// Greater than every value held: extend the last chunk.
		if at.c == 0 {
			fp.chunks = append(fp.chunks, make([]slot[V], 0, chunkCap+1))
		}
		at.c = len(fp.chunks) - 1
		at.i = len(fp.chunks[at.c])
	} else if s := &fp.chunks[at.c][at.i]; s.val.Compare(v) == 0 {
		s.list = append(s.list, e)
		return
	}
	ch := slices.Insert(fp.chunks[at.c], at.i, slot[V]{val: v, list: []*postEntry[V]{e}})
	if len(ch) > chunkCap {
		mid := len(ch) / 2
		upper := make([]slot[V], len(ch)-mid, chunkCap+1)
		copy(upper, ch[mid:])
		clear(ch[mid:])
		ch = ch[:mid]
		fp.chunks = slices.Insert(fp.chunks, at.c+1, upper)
	}
	fp.chunks[at.c] = ch
}

// spans resolves p to half-open position ranges over the ordered
// values, one per OpIn set member, at most one otherwise.
func (fp *fieldPostings[V]) spans(p attr.Pred) [][2]pos {
	first, end := pos{}, fp.end()
	switch p.Op {
	case attr.OpEq:
		return [][2]pos{{fp.seek(p.Lo, false), fp.seek(p.Lo, true)}}
	case attr.OpLt:
		return [][2]pos{{first, fp.seek(p.Lo, false)}}
	case attr.OpLe:
		return [][2]pos{{first, fp.seek(p.Lo, true)}}
	case attr.OpGt:
		return [][2]pos{{fp.seek(p.Lo, true), end}}
	case attr.OpGe:
		return [][2]pos{{fp.seek(p.Lo, false), end}}
	case attr.OpBetween:
		return [][2]pos{{fp.seek(p.Lo, false), fp.seek(p.Hi, true)}}
	case attr.OpIn:
		spans := make([][2]pos, 0, len(p.Set))
		for _, v := range p.Set {
			spans = append(spans, [2]pos{fp.seek(v, false), fp.seek(v, true)})
		}
		return spans
	}
	return nil
}

// walk streams the slots of [from, to) in value order, stopping early
// when yield returns false.
func (fp *fieldPostings[V]) walk(from, to pos, yield func(s *slot[V]) bool) bool {
	for c := from.c; c < len(fp.chunks) && c <= to.c; c++ {
		ch := fp.chunks[c]
		lo, hi := 0, len(ch)
		if c == from.c {
			lo = from.i
		}
		if c == to.c {
			hi = to.i
		}
		for i := lo; i < hi; i++ {
			if !yield(&ch[i]) {
				return false
			}
		}
	}
	return true
}

// probe streams every entry matching p and visible at gen, returning
// the candidate count (before the visibility filter). The caller
// holds the partAttrs read latch.
func (fp *fieldPostings[V]) probe(p attr.Pred, gen uint64, yield func(e *postEntry[V]) bool) int {
	candidates := 0
	for _, sp := range fp.spans(p) {
		more := fp.walk(sp[0], sp[1], func(s *slot[V]) bool {
			candidates += len(s.list)
			for _, e := range s.list {
				if e.visibleAt(gen) && !yield(e) {
					return false
				}
			}
			return true
		})
		if !more {
			break
		}
	}
	return candidates
}

// partAttrs holds one partition's postings behind a read-write latch.
// The single writer mutates under the write latch; snapshot probes
// read under the read latch; generation tags keep pinned reads
// repeatable despite the shared structure. fields itself — which
// fields exist, in registration order — is immutable once the
// partAttrs is published (SetAttrFields and attrVacuum build a new
// one), so it is read without the latch. byID, live and dead are
// writer-only.
type partAttrs[V any] struct {
	mu     sync.RWMutex
	fields []*fieldPostings[V]
	byID   map[int64]*postEntry[V] // the live version of each record
	live   int
	dead   int // tombstones awaiting vacuum
}

func newPartAttrs[V any](fields []attr.Field[V]) *partAttrs[V] {
	pa := &partAttrs[V]{byID: make(map[int64]*postEntry[V])}
	for _, f := range fields {
		pa.fields = append(pa.fields, &fieldPostings[V]{field: f.Name, get: f.Get})
	}
	return pa
}

// field returns the postings of the named field, nil when it is not
// registered.
func (pa *partAttrs[V]) field(name string) *fieldPostings[V] {
	for _, fp := range pa.fields {
		if fp.field == name {
			return fp
		}
	}
	return nil
}

// insert files one record version under every field. The writer calls
// it under the write latch once the partAttrs is published.
func (pa *partAttrs[V]) insert(id int64, key stobject.STObject, val V, gen uint64) {
	e := &postEntry[V]{id: id, key: key, val: val, addGen: gen}
	for _, fp := range pa.fields {
		fp.insert(e)
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

// check verifies the structure against its own invariants and against
// the partition's tree: chunks non-empty and within capacity, values
// strictly ascending across the whole field, every entry filed under
// the value its payload projects to, every live entry the one byID
// holds and present exactly once per field, tombstones stamped after
// their insert, live and dead equal to what a walk counts, and the
// live ids equal to the tree's. Writer-side (caller holds d.mu); cheap
// enough to run after every batch of a test.
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
	for _, fp := range pa.fields {
		if err := fp.check(pa); err != nil {
			return fmt.Errorf("field %q: %w", fp.field, err)
		}
	}
	return nil
}

func (fp *fieldPostings[V]) check(pa *partAttrs[V]) error {
	var prev *attr.Value
	live := make(map[*postEntry[V]]struct{}, pa.live)
	dead := 0
	for c, ch := range fp.chunks {
		if len(ch) == 0 || len(ch) > chunkCap {
			return fmt.Errorf("chunk %d of %d holds %d slots (capacity %d)", c, len(fp.chunks), len(ch), chunkCap)
		}
		for i := range ch {
			s := &ch[i]
			if prev != nil && prev.Compare(s.val) >= 0 {
				return fmt.Errorf("chunk %d slot %d: %s does not ascend from %s", c, i, s.val, *prev)
			}
			prev = &s.val
			if len(s.list) == 0 {
				return fmt.Errorf("chunk %d slot %d: %s has no entries", c, i, s.val)
			}
			for _, e := range s.list {
				if v := fp.get(e.val); v.Compare(s.val) != 0 {
					return fmt.Errorf("id %d valued %s filed under %s", e.id, v, s.val)
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
	gen := d.view.Load().gen
	for p, t := range d.trees {
		if len(fields) == 0 {
			d.attrs[p] = nil
			continue
		}
		pa := newPartAttrs(fields)
		t.search(everything, gen, true, func(e Entry[V]) bool {
			pa.insert(e.ID, e.Key, e.Value, e.addGen)
			return true
		})
		d.attrs[p] = pa
	}
	d.publish(gen)
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

// attrVacuum rebuilds partitions whose postings carry more tombstones
// than live entries (past the shared floor), pointer-swapping the new
// object into the writer's working set so pinned snapshots keep the
// old one. Live versions are re-allocated, not shared: the old object
// stays readable under its own latch.
func (d *Dataset[V]) attrVacuum() {
	for p, pa := range d.attrs {
		if pa == nil || pa.dead < vacuumFloor || pa.dead <= pa.live {
			continue
		}
		np := newPartAttrs(d.attrFields)
		// Every field files the same entries; the first lends its order.
		fp := pa.fields[0]
		fp.walk(pos{}, fp.end(), func(s *slot[V]) bool {
			for _, e := range s.list {
				if e.delGen == 0 {
					np.insert(e.id, e.key, e.val, e.addGen)
				}
			}
			return true
		})
		d.attrs[p] = np
	}
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
		candidates := pa.field(p.Field).probe(p, v.gen, func(e *postEntry[V]) bool {
			cands = append(cands, engine.NewPair(e.key, e.val))
			return true
		})
		pa.mu.RUnlock()
		rec.IndexProbes(1)
		rec.CandidatesRefined(int64(candidates))
		for _, kv := range cands {
			if keep(kv) && !yield(kv) {
				break
			}
		}
		return nil
	}).WithRecorder(rec), nil
}
