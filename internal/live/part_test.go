package live

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"stark/internal/attr"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/stobject"
)

func pt(x, y float64) stobject.STObject { return stobject.New(geom.NewPoint(x, y)) }

// everything is an envelope no finite envelope fails to intersect.
var everything = geom.Envelope{MinX: -1e308, MinY: -1e308, MaxX: 1e308, MaxY: 1e308}

// collectIDs streams partition 0 of a view — the rows whose envelope
// meets *q, or all of them when q is nil — into an ID multiset.
func collectIDs(v *viewState[int], q *geom.Envelope, gen uint64) map[int64]int {
	out := make(map[int64]int)
	v.parts[0].scan(q, gen, func(id int64, _ *engine.Pair[stobject.STObject, int]) bool {
		out[id]++
		return true
	})
	return out
}

// TestTreeSearchMatchesBruteForce holds a partition's window scan —
// its base's leaf ranges, then its delta — to a brute-force filter,
// with a tiny order so that the base's tree is deep.
func TestTreeSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDataset[int](engine.NewContext(1), "t", nil, 5)
	type rec struct {
		id   int64
		x, y float64
	}
	var recs []rec
	var packed []Record[int]
	var ops []Op[int]
	for i := 0; i < 2000; i++ {
		r := rec{id: int64(i), x: rng.Float64() * 100, y: rng.Float64() * 100}
		recs = append(recs, r)
		if i < 1800 {
			packed = append(packed, Record[int]{ID: r.id, Key: pt(r.x, r.y), Value: i})
		} else {
			ops = append(ops, Insert(r.id, pt(r.x, r.y), i))
		}
	}
	if err := d.Restore(1, packed); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(ops); err != nil {
		t.Fatal(err)
	}
	v := d.view.Load()
	if len(v.parts[0].base.Rows) != 1800 || len(v.parts[0].delta) != 200 {
		t.Fatalf("base holds %d rows, delta %d, want 1800 and 200", len(v.parts[0].base.Rows), len(v.parts[0].delta))
	}
	for trial := 0; trial < 50; trial++ {
		x1, y1 := rng.Float64()*100, rng.Float64()*100
		q := geom.NewEnvelope(x1, y1, x1+rng.Float64()*30, y1+rng.Float64()*30)
		want := make(map[int64]int)
		for _, r := range recs {
			if q.ContainsPoint(r.x, r.y) {
				want[r.id] = 1
			}
		}
		got := collectIDs(v, &q, 2)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
		}
		for id, n := range got {
			if n != 1 {
				t.Fatalf("trial %d: id %d returned %d times", trial, id, n)
			}
			if want[id] != 1 {
				t.Fatalf("trial %d: unexpected id %d", trial, id)
			}
		}
	}
}

// TestTreeTombstoneVisibility tombstones rows of the base and of the
// delta and reads the partition at the generations around the deletes.
func TestTreeTombstoneVisibility(t *testing.T) {
	d := NewDataset[int](engine.NewContext(1), "t", nil, 4)
	var packed []Record[int]
	var ops []Op[int]
	for i := 0; i < 100; i++ {
		if i < 60 {
			packed = append(packed, Record[int]{ID: int64(i), Key: pt(float64(i), 0), Value: i})
		} else {
			ops = append(ops, Insert(int64(i), pt(float64(i), 0), i))
		}
	}
	if err := d.Restore(1, packed); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(ops); err != nil {
		t.Fatal(err)
	}
	// Tombstone the even IDs at generation 3.
	ops = ops[:0]
	for i := 0; i < 100; i += 2 {
		ops = append(ops, Delete[int](int64(i)))
	}
	if res, err := d.Apply(ops); err != nil || res.Deleted != 50 {
		t.Fatalf("deleted %d, err %v", res.Deleted, err)
	}
	if res, err := d.Apply([]Op[int]{Delete[int](0)}); err != nil || res.Missing != 1 {
		t.Fatalf("double delete: %+v, err %v", res, err)
	}
	v := d.view.Load()
	if at1 := collectIDs(v, nil, 1); len(at1) != 60 {
		t.Fatalf("gen 1 sees %d entries, want 60 (the delta's, added at gen 2, must be invisible)", len(at1))
	}
	if at2 := collectIDs(v, nil, 2); len(at2) != 100 {
		t.Fatalf("gen 2 sees %d entries, want 100 (deletes at gen 3 must be invisible)", len(at2))
	}
	at3 := collectIDs(v, nil, 3)
	if len(at3) != 50 {
		t.Fatalf("gen 3 sees %d entries, want 50", len(at3))
	}
	for id := range at3 {
		if id%2 == 0 {
			t.Fatalf("gen 3 sees deleted id %d", id)
		}
	}
	if pa := d.parts[0]; pa.live != 50 || pa.dead != 50 {
		t.Fatalf("live/dead = %d/%d, want 50/50", pa.live, pa.dead)
	}
}

// TestTreeRebuildDropsTombstones repacks a partition holding base and
// delta rows and tombstones in both: the new base holds exactly the
// live rows, with no delta and no tombstones, and reads like the old
// partition at the repack's generation.
func TestTreeRebuildDropsTombstones(t *testing.T) {
	d := NewDataset[int](engine.NewContext(1), "t", nil, 4)
	var packed []Record[int]
	for i := 0; i < 150; i++ {
		packed = append(packed, Record[int]{ID: int64(i), Key: pt(float64(i%20), float64(i/20)), Value: i})
	}
	if err := d.Restore(1, packed); err != nil {
		t.Fatal(err)
	}
	var ops []Op[int]
	for i := 150; i < 200; i++ {
		ops = append(ops, Insert(int64(i), pt(float64(i%20), float64(i/20)), i))
	}
	if _, err := d.Apply(ops); err != nil {
		t.Fatal(err)
	}
	ops = ops[:0]
	for i := 0; i < 200; i += 3 {
		ops = append(ops, Delete[int](int64(i)))
	}
	if _, err := d.Apply(ops); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.view.Load()
	if err := d.check(); err != nil {
		t.Fatal(err)
	}
	d.repack(0, 3)
	d.publish(3)
	if err := d.check(); err != nil {
		t.Fatal(err)
	}
	nv := d.view.Load()
	if np := nv.parts[0]; np.live != old.parts[0].live || np.dead != 0 || len(np.delta) != 0 || len(np.base.Rows) != np.live {
		t.Fatalf("repacked live/dead = %d/%d with %d base rows and %d delta slots, want %d/0, all in the base",
			np.live, np.dead, len(np.base.Rows), len(np.delta), old.parts[0].live)
	}
	want, got := collectIDs(old, nil, 3), collectIDs(nv, nil, 3)
	if len(got) != len(want) || len(got) != 133 {
		t.Fatalf("repacked sees %d entries, old %d, want 133", len(got), len(want))
	}
	for id := range want {
		if got[id] != 1 {
			t.Fatalf("repacked lost id %d", id)
		}
	}
	// The old view still answers for the generations before the repack.
	if at2 := collectIDs(old, nil, 2); len(at2) != 200 {
		t.Fatalf("the old view sees %d entries at gen 2, want 200", len(at2))
	}
}

// damagedPart builds a one-partition dataset with base and delta rows
// and tombstones in both, checks that it passes undamaged, and returns
// a builder of fresh copies for the damage cases.
func damagedPart(t *testing.T) func() *Dataset[reading] {
	t.Helper()
	build := func() *Dataset[reading] {
		d := NewDataset[reading](engine.NewContext(1), "damage", nil, 4)
		d.SetAttrFields(readingFields())
		recs := make([]Record[reading], 300)
		for i := range recs {
			recs[i] = Record[reading]{ID: int64(i), Key: pt(float64(i%20), float64(i/20)), Value: reading{ID: int64(i), Seq: int64(i), Cat: "c", Temp: 1}}
		}
		if err := d.Restore(1, recs); err != nil {
			t.Fatal(err)
		}
		var ops []Op[reading]
		for i := 300; i < 400; i++ {
			ops = append(ops, Insert(int64(i), pt(float64(i%20)+0.5, float64(i/20)), reading{ID: int64(i), Seq: int64(i), Cat: "d", Temp: 2}))
		}
		if _, err := d.Apply(ops); err != nil {
			t.Fatal(err)
		}
		ops = ops[:0]
		for i := 0; i < 400; i += 7 {
			ops = append(ops, Delete[reading](int64(i)))
		}
		if _, err := d.Apply(ops); err != nil {
			t.Fatal(err)
		}
		return d
	}
	if d := build(); len(d.parts[0].delta) != 100 || d.check() != nil {
		t.Fatalf("undamaged: %d delta slots, check says %v", len(d.parts[0].delta), d.check())
	}
	return build
}

// expectDamageReported applies each damage to a fresh dataset and
// requires the partition checker to report it.
func expectDamageReported(t *testing.T, build func() *Dataset[reading], cases map[string]func(d *Dataset[reading], pa *part[reading])) {
	t.Helper()
	for name, damage := range cases {
		d := build()
		damage(d, &d.parts[0])
		if err := d.check(); err == nil {
			t.Errorf("%s: damage not reported", name)
		}
	}
}

// TestTreeCheckCatchesDamage makes sure the structural half of the
// partition checker is not vacuous: damage to the base's tree, to the
// ID locator, to the tombstone generations and to the dead counter is
// reported.
func TestTreeCheckCatchesDamage(t *testing.T) {
	build := damagedPart(t)
	// find returns the first position of the base (or of the delta)
	// whose row is a tombstone, or live.
	find := func(pa *part[reading], inDelta, tombstone bool) int {
		for pos := range len(pa.base.Rows) + len(pa.delta) {
			if _, _, _, del := pa.row(pos); (del.Load() != 0) == tombstone && (pos >= len(pa.base.Rows)) == inDelta {
				return pos
			}
		}
		t.Fatal("no such row")
		return 0
	}
	expectDamageReported(t, build, map[string]func(d *Dataset[reading], pa *part[reading]){
		"tree": func(_ *Dataset[reading], pa *part[reading]) { pa.base.Rows[5].Key = pt(1e6, 1e6) },
		"stale partOf": func(d *Dataset[reading], pa *part[reading]) {
			d.partOf[pa.base.ids[find(pa, false, false)]] = loc{0, int32(find(pa, false, true))}
		},
		"extra partOf": func(d *Dataset[reading], _ *part[reading]) { d.partOf[1<<40] = loc{0, 1} },
		"lost partOf":  func(d *Dataset[reading], _ *part[reading]) { delete(d.partOf, 1) },
		"base generation": func(_ *Dataset[reading], pa *part[reading]) {
			pa.base.dels[find(pa, false, true)].Store(pa.base.gen)
		},
		"delta generation": func(_ *Dataset[reading], pa *part[reading]) {
			s := &pa.delta[find(pa, true, true)-len(pa.base.Rows)]
			s.delGen.Store(s.addGen)
		},
		"counter": func(_ *Dataset[reading], pa *part[reading]) { pa.dead++ },
	})
}

// TestPostingsCheckCatchesDamage makes sure the postings half of the
// partition checker is not vacuous: a base row filed under a value it
// does not hold, postings that do not match the base rows, and a
// postings list per field that is short are reported. The structural
// half of a postings list (order, capacity, empty chunks) is
// attr.Postings.Check, tested in internal/attr.
func TestPostingsCheckCatchesDamage(t *testing.T) {
	expectDamageReported(t, damagedPart(t), map[string]func(d *Dataset[reading], pa *part[reading]){
		"misfiled": func(_ *Dataset[reading], pa *part[reading]) { pa.base.Rows[9].Value.Seq = 1 << 20 },
		"postings": func(_ *Dataset[reading], pa *part[reading]) {
			pa.base.Posts[1] = attr.BuildIndex("cat", attr.KindString, []attr.Value{attr.String("c")})
		},
		"fields": func(_ *Dataset[reading], pa *part[reading]) { pa.base.Posts = pa.base.Posts[:2] },
	})
}

// TestReadersSeeTheirGeneration is the snapshot-isolation gate: one
// writer applies upsert, insert and delete batches that force repacks
// (by delta size and by tombstones) and delta reallocations, while
// readers pin snapshots and hold Tuples, Probe and AttrProbe to a model
// of the records at the pinned generation. Every record version
// carries the generation that wrote it, so a stale or future version
// shows as well as a missed or doubled record. Run it under -race.
func TestReadersSeeTheirGeneration(t *testing.T) {
	const (
		idSpace = 2000
		batches = 150
	)
	fields := readingFields()
	d := NewDataset[reading](engine.NewContext(4), "gate", gridOver(t, 2), 5)
	d.SetAttrFields(fields)
	rng := rand.New(rand.NewSource(5))
	version := func(id int64, gen uint64) Record[reading] {
		return Record[reading]{ID: id, Key: pt(rng.Float64()*100, rng.Float64()*100), Value: reading{
			ID: id, Seq: int64(gen), Cat: fmt.Sprintf("cat-%d", rng.Intn(6)), Temp: float64(rng.Intn(80)) / 8,
		}}
	}

	// models[g] is the live set at generation g, by id; the writer files
	// it before it publishes g.
	var mu sync.RWMutex
	models := make(map[uint64][]Record[reading])
	cur := make(map[int64]Record[reading])
	file := func(gen uint64) {
		recs := make([]Record[reading], 0, len(cur))
		for _, r := range cur {
			recs = append(recs, r)
		}
		slices.SortFunc(recs, func(a, b Record[reading]) int { return int(a.ID - b.ID) })
		mu.Lock()
		models[gen] = recs
		mu.Unlock()
	}
	var seed []Record[reading]
	for id := int64(0); id < idSpace*3/5; id++ {
		r := version(id, 1)
		seed, cur[id] = append(seed, r), r
	}
	file(1)
	if err := d.Restore(1, seed); err != nil {
		t.Fatal(err)
	}

	// sig is a record version as one number: id and writing generation.
	sig := func(r reading) int64 { return r.ID<<16 | r.Seq }
	want := func(gen uint64, match func(Record[reading]) bool) []int64 {
		mu.RLock()
		model := models[gen]
		mu.RUnlock()
		var out []int64
		for _, r := range model {
			if match(r) {
				out = append(out, sig(r.Value))
			}
		}
		return out
	}
	got := func(ds *engine.Dataset[engine.Pair[stobject.STObject, reading]]) ([]int64, error) {
		rows, err := ds.CollectPartitions(engine.AllPartitions(ds.NumPartitions()))
		out := make([]int64, 0, len(rows))
		for _, kv := range rows {
			out = append(out, sig(kv.Value))
		}
		slices.Sort(out)
		return out, err
	}
	keep := func(engine.Pair[stobject.STObject, reading]) bool { return true }

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	reads := make([]int, 3)
	for r := range reads {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := d.Snapshot()
				x, y := rng.Float64()*80, rng.Float64()*80
				w := geom.NewEnvelope(x, y, x+20, y+20)
				p := attr.Pred{Field: "cat", Op: attr.OpEq, Lo: attr.String(fmt.Sprintf("cat-%d", rng.Intn(6)))}
				if r == 1 {
					p = attr.Pred{Field: "seq", Op: attr.OpGe, Lo: attr.Value{Kind: attr.KindInt64, I: int64(rng.Intn(int(s.Gen()) + 1))}}
				}
				probe, err := s.AttrProbe(nil, p, keep)
				if err != nil {
					errs <- err
					return
				}
				f := fields[slices.IndexFunc(fields, func(f attr.Field[reading]) bool { return f.Name == p.Field })]
				for _, c := range []struct {
					what  string
					ds    *engine.Dataset[engine.Pair[stobject.STObject, reading]]
					match func(Record[reading]) bool
				}{
					{"Tuples", s.Tuples(), func(Record[reading]) bool { return true }},
					{"Probe", s.Probe(nil, w, keep), func(r Record[reading]) bool { return r.Key.EnvelopeIntersects(w) }},
					{"AttrProbe " + p.String(), probe, func(r Record[reading]) bool { return p.Matches(f.Get(r.Key, r.Value)) }},
				} {
					g, err := got(c.ds)
					if m := want(s.Gen(), c.match); err != nil || !slices.Equal(g, m) {
						errs <- fmt.Errorf("generation %d, %s: %d record versions, the model holds %d (err %v)", s.Gen(), c.what, len(g), len(m), err)
						return
					}
				}
				reads[r]++
			}
		}(r)
	}

	// Repacks in churning batches come from delta growth, the others
	// from tombstones.
	grown, vacuumed, reallocs := 0, 0, 0
	for k := 0; k < batches; k++ {
		gen := d.Generation() + 1
		// Most batches churn; every 30th deletes most live records, so
		// that tombstones outnumber the live rows, and the next refill.
		size, pDelete, pNew, repacks := 200, 0.2, 0.5, &grown
		if k%30 == 29 {
			size, pDelete, pNew, repacks = idSpace, 0.8, 0, &vacuumed
		}
		var ops []Op[reading]
		for _, id := range rng.Perm(idSpace)[:size] {
			id := int64(id)
			_, isLive := cur[id]
			switch {
			case isLive && rng.Float64() < pDelete:
				ops = append(ops, Delete[reading](id))
				delete(cur, id)
			case isLive:
				r := version(id, gen)
				ops, cur[id] = append(ops, Op[reading]{Kind: OpUpsert, Rec: r}), r
			case rng.Float64() < pNew:
				r := version(id, gen)
				ops, cur[id] = append(ops, Op[reading]{Kind: OpInsert, Rec: r}), r
			}
		}
		file(gen)
		before := d.view.Load().parts
		if _, err := d.Apply(ops); err != nil {
			t.Fatal(err)
		}
		for p, now := range d.view.Load().parts {
			switch old := before[p]; {
			case now.base != old.base:
				*repacks++
			case len(old.delta) > 0 && &now.delta[0] != &old.delta[0]:
				reallocs++
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	d.mu.Lock()
	err := d.check()
	d.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if grown < 10 || vacuumed < 10 || reallocs < 10 || slices.Min(reads) == 0 {
		t.Fatalf("%d repacks for delta growth, %d for tombstones, %d delta reallocations, reads per reader %v: the gate did not exercise them",
			grown, vacuumed, reallocs, reads)
	}
}
