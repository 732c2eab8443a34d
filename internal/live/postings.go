package live

// Attribute postings for mutable datasets. Each base indexes the
// registered fields over its own rows, once, when it is packed
// (attr.BuildIndex over base positions); the delta is not indexed. A
// probe enumerates the base postings and tests each delta row with the
// predicate itself, and the same generation filter as every other read
// keeps it repeatable: rows from later batches are invisible, rows
// deleted by later batches still show.

import (
	"fmt"
	"slices"

	"stark/internal/attr"
	"stark/internal/engine"
	"stark/internal/stobject"
)

// SetAttrFields registers the payload fields whose postings the
// dataset maintains across batches, repacking every partition to index
// the records already live. Calling it again replaces the field set; an
// empty set drops the postings. Snapshots taken before the call do not
// see the new fields — their probes fall back to scans.
func (d *Dataset[V]) SetAttrFields(fields []attr.Field[V]) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.attrFields = append([]attr.Field[V](nil), fields...)
	gen := d.view.Load().gen
	for p := range d.parts {
		d.repack(p, gen)
	}
	d.publish(gen)
}

// field returns the position of the named field among the view's, -1
// when it is not registered.
func (v *viewState[V]) field(name string) int {
	return slices.IndexFunc(v.fields, func(f attr.Field[V]) bool { return f.Name == name })
}

// HasAttrField reports whether the pinned view maintains postings for
// the named field.
func (s *Snapshot[V]) HasAttrField(name string) bool { return s.v.field(name) >= 0 }

// AttrProbe returns the postings probe as a lazy stream shaped like
// Tuples: partition part enumerates its base postings for p, then the
// delta rows whose value matches p, and yields those visible at the
// pinned generation that pass keep. A view without postings for p's
// field fails here, before any row. Probe metrics are charged to rec
// (nil selects the context's root recorder): one index probe per
// partition, the base postings' candidates and the matching delta rows
// as candidates refined.
func (s *Snapshot[V]) AttrProbe(
	rec *engine.Recorder,
	p attr.Pred,
	keep func(kv engine.Pair[stobject.STObject, V]) bool,
) (*engine.Dataset[engine.Pair[stobject.STObject, V]], error) {
	v := s.v
	fi := v.field(p.Field)
	if fi < 0 {
		return nil, fmt.Errorf("live: no attribute postings for field %q (SetAttrFields first)", p.Field)
	}
	f := v.fields[fi]
	if rec == nil {
		rec = s.d.ctx.Recorder()
	}
	name := fmt.Sprintf("%s@g%d.attrProbe", s.d.name, v.gen)
	return engine.NewStream(s.d.ctx, name, len(v.parts), func(part int, yield func(engine.Pair[stobject.STObject, V]) bool) error {
		pt := &v.parts[part]
		b := pt.base
		more := true
		emit := func(kv *engine.Pair[stobject.STObject, V]) {
			more = !keep(*kv) || yield(*kv)
		}
		refined := int64(b.Posts[fi].Postings(p, func(pos int32) {
			if more && visibleAt(b.gen, &b.dels[pos], v.gen) {
				emit(&b.Rows[pos])
			}
		}))
		for i := 0; i < len(pt.delta) && more; i++ {
			if sl := &pt.delta[i]; visibleAt(sl.addGen, &sl.delGen, v.gen) && p.Matches(f.Get(sl.kv.Key, sl.kv.Value)) {
				refined++
				emit(&sl.kv)
			}
		}
		rec.Add(engine.IndexProbes, 1)
		rec.Add(engine.CandidatesRefined, refined)
		return nil
	}).WithRecorder(rec), nil
}
