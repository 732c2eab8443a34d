package live

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"stark/internal/attr"
	"stark/internal/engine"
	"stark/internal/stobject"
)

// reading is the battery's payload: Seq is drawn from 2^40 per record
// version, so all but unique; Cat has ten values; Temp is quantised so
// that values repeat.
type reading struct {
	ID   int64
	Seq  int64
	Cat  string
	Temp float64
}

func readingFields() []attr.Field[reading] {
	return attr.NewSchema[reading]().
		Int64("seq", func(r reading) int64 { return r.Seq }).
		String("cat", func(r reading) string { return r.Cat }).
		Float64("temp", func(r reading) float64 { return r.Temp }).
		Fields()
}

// checkPartitions runs the invariant checkers over every partition:
// the tree's, and the postings' when fields are registered.
func checkPartitions[V any](t testing.TB, d *Dataset[V]) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	for p, tr := range d.trees {
		if err := tr.check(); err != nil {
			t.Fatalf("generation %d, partition %d tree: %v", d.view.Load().gen, p, err)
		}
		if len(d.attrFields) == 0 {
			continue
		}
		if d.attrs[p] == nil {
			t.Fatalf("partition %d: no postings", p)
		}
		if err := d.attrs[p].check(tr); err != nil {
			t.Fatalf("generation %d, partition %d postings: %v", d.view.Load().gen, p, err)
		}
	}
}

// probeIDs answers p from the snapshot's postings over every
// partition, as a sorted id list (so a row filed twice shows).
func probeIDs(t testing.TB, s *Snapshot[reading], p attr.Pred) []int64 {
	t.Helper()
	visit := make([]int, s.NumPartitions())
	for i := range visit {
		visit[i] = i
	}
	probe, err := s.AttrProbe(nil, p, func(engine.Pair[stobject.STObject, reading]) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	rows, err := probe.CollectPartitions(visit)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for _, kv := range rows {
		ids = append(ids, kv.Value.ID)
	}
	slices.Sort(ids)
	return ids
}

// records reads the snapshot through its trees.
func records(s *Snapshot[reading]) []Record[reading] {
	var recs []Record[reading]
	s.Each(func(r Record[reading]) bool {
		recs = append(recs, r)
		return true
	})
	return recs
}

// scanIDs answers p by brute force over recs, through Pred.Matches —
// the closure-side reading of a predicate, which the postings never
// call.
func scanIDs(recs []Record[reading], f attr.Field[reading], p attr.Pred) []int64 {
	var ids []int64
	for _, r := range recs {
		if p.Matches(f.Get(r.Value)) {
			ids = append(ids, r.ID)
		}
	}
	slices.Sort(ids)
	return ids
}

// TestPostingsDifferentialBattery drives the ordered postings through
// random insert/upsert/delete batches with id reuse, large enough that
// chunks split many times (over 5,000 distinct seq values in every
// partition) and a shrink phase that forces vacuum rebuilds. After
// every batch it runs the invariant checker and compares every
// operator on one of the fields (they take turns), as id sets, against
// a brute-force filter over Snapshot.Each; a snapshot pinned before the
// shrink phase is probed again after the vacuums and must answer as it
// did when pinned. Re-registration and Restore, the two ways into the
// loader besides vacuum, end the run.
func TestPostingsDifferentialBattery(t *testing.T) {
	const (
		idSpace = 34_000
		seeded  = 24_000 // records of the first batch
	)
	rng := rand.New(rand.NewSource(17))
	fields := readingFields()
	d := NewDataset[reading](engine.NewContext(2), "battery", gridOver(t, 2), 8)
	d.SetAttrFields(fields)

	model := make(map[int64]reading)
	// Seq values arrive in random order, so new values go into the
	// middle of chunks, not only onto the end.
	fresh := func(id int64) (stobject.STObject, reading) {
		r := reading{
			ID:   id,
			Seq:  rng.Int63n(1 << 40),
			Cat:  fmt.Sprintf("cat-%d", rng.Intn(10)),
			Temp: float64(rng.Intn(4000)) / 8,
		}
		return pt(rng.Float64()*100, rng.Float64()*100), r
	}
	// batch draws n ops over distinct ids: a live id is deleted
	// with probability pDelete and upserted otherwise, a free one is
	// taken with probability pNew (by insert or upsert) and left alone
	// otherwise.
	batch := func(n int, pDelete, pNew float64) []Op[reading] {
		ops := make([]Op[reading], 0, n)
		seen := make(map[int64]bool, n)
		for len(ops) < n {
			id := rng.Int63n(idSpace)
			if seen[id] {
				continue
			}
			seen[id] = true
			_, isLive := model[id]
			switch {
			case isLive && rng.Float64() < pDelete:
				ops = append(ops, Delete[reading](id))
				delete(model, id)
			case !isLive && rng.Float64() >= pNew:
			case isLive || rng.Intn(2) == 0:
				key, r := fresh(id)
				ops = append(ops, Upsert(id, key, r))
				model[id] = r
			default:
				key, r := fresh(id)
				ops = append(ops, Insert(id, key, r))
				model[id] = r
			}
		}
		return ops
	}
	// preds draws one predicate per operator for field f, with operands
	// taken from live values (so Eq and In hit) and from fresh draws.
	preds := func(f attr.Field[reading]) []attr.Pred {
		operand := func() attr.Value {
			if r, ok := model[rng.Int63n(idSpace)]; ok {
				return f.Get(r)
			}
			_, r := fresh(0)
			return f.Get(r)
		}
		lo, hi := operand(), operand()
		if lo.Compare(hi) > 0 {
			lo, hi = hi, lo
		}
		out := []attr.Pred{
			{Op: attr.OpBetween, Lo: lo, Hi: hi},
			{Op: attr.OpBetween, Lo: hi, Hi: lo}, // empty unless lo == hi
			// Probes take predicates as the chain compiles them: set sorted, no duplicates.
			attr.Pred{Op: attr.OpIn, Set: []attr.Value{operand(), operand(), operand()}}.Canonicalize(),
		}
		for _, op := range []attr.Op{attr.OpEq, attr.OpLt, attr.OpLe, attr.OpGt, attr.OpGe} {
			out = append(out, attr.Pred{Op: op, Lo: operand()})
		}
		for i := range out {
			out[i].Field = f.Name
		}
		return out
	}
	// compare holds every operator on the given fields to the scan.
	compare := func(s *Snapshot[reading], fields ...attr.Field[reading]) {
		t.Helper()
		recs := records(s)
		for _, f := range fields {
			for _, p := range preds(f) {
				if got, want := probeIDs(t, s, p), scanIDs(recs, f, p); !slices.Equal(got, want) {
					t.Fatalf("generation %d, %s: postings give %d ids, scan gives %d", s.Gen(), p, len(got), len(want))
				}
			}
		}
	}
	rebuilt := make(map[int]bool) // partitions whose postings a vacuum replaced
	apply := func(ops []Op[reading]) {
		t.Helper()
		before := append([]*partAttrs[reading](nil), d.attrs...)
		if _, err := d.Apply(ops); err != nil {
			t.Fatal(err)
		}
		for p := range before {
			if d.attrs[p] != before[p] {
				rebuilt[p] = true
			}
		}
		checkPartitions(t, d)
		s := d.Snapshot()
		if int(s.Count()) != len(model) {
			t.Fatalf("generation %d: %d records live, model holds %d", s.Gen(), s.Count(), len(model))
		}
		compare(s, fields[s.Gen()%uint64(len(fields))]) // the fields take turns
	}

	apply(batch(seeded, 0, 1))
	for i := 0; i < 6; i++ {
		apply(batch(2000, 0.2, 1))
	}
	d.mu.Lock()
	for p, pa := range d.attrs {
		distinct := 0
		for range pa.field("seq").All() {
			distinct++
		}
		if distinct < 5000 {
			t.Fatalf("partition %d holds %d distinct seq values, want at least 5000", p, distinct)
		}
	}
	d.mu.Unlock()

	// Pin, then shrink until every partition's postings have been
	// rebuilt; the pinned snapshot keeps the objects the vacuums replaced.
	pin := d.Snapshot()
	pinRecs := records(pin)
	type answer struct {
		p    attr.Pred
		want []int64
	}
	var pinned []answer
	for _, f := range fields {
		for _, p := range preds(f) {
			pinned = append(pinned, answer{p, scanIDs(pinRecs, f, p)})
		}
	}
	clear(rebuilt)
	for round := 0; len(rebuilt) < d.NumPartitions(); round++ {
		if round == 50 {
			t.Fatalf("50 shrinking batches rebuilt the postings of partitions %v, want all %d", rebuilt, d.NumPartitions())
		}
		apply(batch(4000, 0.9, 0.05))
	}
	for _, a := range pinned {
		if got := probeIDs(t, pin, a.p); !slices.Equal(got, a.want) {
			t.Fatalf("snapshot pinned at generation %d, %s: %d ids after vacuum, %d when pinned", pin.Gen(), a.p, len(got), len(a.want))
		}
	}

	// Refill over the reused ids, then rebuild the same state through
	// the two other ways in: re-registration and Restore.
	for i := 0; i < 4; i++ {
		apply(batch(2000, 0.2, 0.5))
	}
	d.SetAttrFields(fields)
	checkPartitions(t, d)
	compare(d.Snapshot(), fields...)

	r := NewDataset[reading](engine.NewContext(2), "restored", gridOver(t, 2), 8)
	r.SetAttrFields(fields)
	if err := r.Restore(d.Generation(), records(d.Snapshot())); err != nil {
		t.Fatal(err)
	}
	checkPartitions(t, r)
	compare(r.Snapshot(), fields...)

	// A view that holds no postings for the field says so when the probe
	// is built, before any partition runs: an unregistered field, and
	// any field once the set is dropped.
	keep := func(engine.Pair[stobject.STObject, reading]) bool { return true }
	if _, err := r.Snapshot().AttrProbe(nil, attr.Pred{Field: "id", Op: attr.OpEq, Lo: attr.Int64(1)}, keep); err == nil {
		t.Error("probe of an unregistered field was built")
	}
	r.SetAttrFields(nil)
	if _, err := r.Snapshot().AttrProbe(nil, attr.Pred{Field: "cat", Op: attr.OpEq, Lo: attr.String("cat-1")}, keep); err == nil {
		t.Error("probe was built after the fields were dropped")
	}
}

// TestPostingsCheckCatchesDamage makes sure the entry-level half of
// the invariant checker is not vacuous: each kind of damage it is there
// for must be reported. The structural half (order, capacity, empty
// chunks) is attr.Postings.Check, tested in internal/attr.
func TestPostingsCheckCatchesDamage(t *testing.T) {
	fields := readingFields()
	build := func() *Dataset[reading] {
		d := NewDataset[reading](engine.NewContext(1), "damage", nil, 8)
		d.SetAttrFields(fields)
		ops := make([]Op[reading], 200) // seq spans several chunks
		for i := range ops {
			ops[i] = Insert(int64(i), pt(float64(i%100), 1), reading{ID: int64(i), Seq: int64(i), Cat: "c", Temp: 1})
		}
		if _, err := d.Apply(ops); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Apply([]Op[reading]{Delete[reading](7)}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	checkPartitions(t, build())

	// nth returns the entries of the field's k-th value: the postings'
	// own list, so writing to it damages them.
	nth := func(pa *partAttrs[reading], field string, k int) []*postEntry[reading] {
		for _, list := range pa.field(field).All() {
			if k == 0 {
				return list
			}
			k--
		}
		t.Fatalf("field %q holds fewer values", field)
		return nil
	}
	for name, damage := range map[string]func(pa *partAttrs[reading]){
		"misfiled": func(pa *partAttrs[reading]) { nth(pa, "seq", 3)[0].val.Seq = 2 },
		"counter":  func(pa *partAttrs[reading]) { pa.dead++ },
		"byID":     func(pa *partAttrs[reading]) { e := *pa.byID[5]; pa.byID[5] = &e },
		"lost": func(pa *partAttrs[reading]) {
			cat := slices.IndexFunc(pa.fields, func(f attr.Field[reading]) bool { return f.Name == "cat" })
			rest := &attr.Postings[*postEntry[reading]]{}
			for _, e := range nth(pa, "cat", 0)[1:] {
				rest.Insert(attr.String(e.val.Cat), e)
			}
			pa.posts[cat] = rest
		},
		"twice":      func(pa *partAttrs[reading]) { l := nth(pa, "cat", 0); l[1] = l[0] },
		"generation": func(pa *partAttrs[reading]) { nth(pa, "seq", 7)[0].delGen = 1 },
	} {
		d := build()
		damage(d.attrs[0])
		if err := d.attrs[0].check(d.trees[0]); err == nil {
			t.Errorf("%s: damage not reported", name)
		}
	}
	d := build()
	d.trees[0].delete(5, 3)
	if err := d.attrs[0].check(d.trees[0]); err == nil {
		t.Error("a record live in the postings and deleted in the tree: not reported")
	}
}
