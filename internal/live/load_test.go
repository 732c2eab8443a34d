package live

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"stark/internal/attr"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stobject"
)

// TestRestoreEqualsInsert is the loader's oracle. Each record set —
// points and polygons, timed and untimed, attribute values that
// repeat — is loaded once by Restore and once by one-at-a-time inserts
// (one Apply), on a single partition and on a grid. The two datasets
// must read alike: the same Each set, the same Probe over 200 random
// windows, the same AttrProbe for every operator on every field, and
// the same statistics summary. Then both take the same churn for 50
// generations, vacuums (which load too) included. Both checkers and the
// statistics comparison run after every batch; the questions are drawn
// after every batch too, the fields taking turns, and answered by both
// datasets after every generation that vacuumed and every tenth. A
// snapshot of the restored dataset pinned before its vacuums must still
// answer as it did when pinned. Drawing every generation's questions
// keeps the churn the same whichever generations are answered, so each
// case runs at least the vacuums minVacuums records.
func TestRestoreEqualsInsert(t *testing.T) {
	const order = 8
	fields := readingFields()
	minVacuums := map[string]int{
		"single/0": 6, "single/1": 6, "single/8": 6, "single/9": 6, "single/20000": 1,
		"grid/0": 18, "grid/1": 18, "grid/8": 17, "grid/9": 18, "grid/20000": 9,
	}
	for _, layout := range []struct {
		name string
		sp   partition.SpatialPartitioner
	}{{"single", nil}, {"grid", gridOver(t, 3)}} {
		for _, n := range []int{0, 1, order, order + 1, 20_000} {
			name := fmt.Sprintf("%s/%d", layout.name, n)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n) + 1))
				idSpace := int64(2*n + 400)
				rec := func(id int64) Record[reading] {
					x, y := rng.Float64()*100, rng.Float64()*100
					var g geom.Geometry = geom.NewPoint(x, y)
					if rng.Intn(4) == 0 {
						g = geom.NewEnvelope(x, y, x+rng.Float64()*5, y+rng.Float64()*5).ToPolygon()
					}
					key := stobject.New(g)
					if rng.Intn(2) == 0 {
						key = stobject.NewWithTime(g, stobject.Instant(rng.Int63n(1000)))
					}
					return Record[reading]{ID: id, Key: key, Value: reading{
						ID: id, Seq: rng.Int63n(int64(n/4 + 3)), Cat: fmt.Sprintf("cat-%d", rng.Intn(10)), Temp: float64(rng.Intn(400)) / 8,
					}}
				}
				recs := make([]Record[reading], n)
				ops := make([]Op[reading], n)
				for i, id := range rng.Perm(int(idSpace))[:n] {
					recs[i] = rec(int64(id))
					ops[i] = Op[reading]{Kind: OpInsert, Rec: recs[i]}
				}
				ctx := engine.NewContext(2)
				loaded := NewDataset[reading](ctx, "loaded", layout.sp, order)
				inserted := NewDataset[reading](ctx, "inserted", layout.sp, order)
				for _, d := range []*Dataset[reading]{loaded, inserted} {
					d.SetAttrFields(fields)
				}
				if err := loaded.Restore(1, recs); err != nil {
					t.Fatal(err)
				}
				if _, err := inserted.Apply(ops); err != nil {
					t.Fatal(err)
				}

				// The questions asked of both datasets, fresh each generation:
				// 200 windows, and every operator on the given fields.
				type question struct {
					windows []geom.Envelope
					preds   []attr.Pred
				}
				ask := func(s *Snapshot[reading], fields ...attr.Field[reading]) question {
					var q question
					for range 200 {
						x, y := rng.Float64()*110-5, rng.Float64()*110-5
						q.windows = append(q.windows, geom.NewEnvelope(x, y, x+rng.Float64()*10, y+rng.Float64()*10))
					}
					live := records(s)
					for _, f := range fields {
						operand := func() attr.Value {
							if len(live) > 0 && rng.Intn(4) > 0 {
								r := live[rng.Intn(len(live))]
								return f.Get(r.Key, r.Value)
							}
							r := rec(0)
							return f.Get(r.Key, r.Value)
						}
						lo, hi := operand(), operand()
						if lo.Compare(hi) > 0 {
							lo, hi = hi, lo
						}
						q.preds = append(q.preds,
							attr.Pred{Field: f.Name, Op: attr.OpBetween, Lo: lo, Hi: hi},
							attr.Pred{Field: f.Name, Op: attr.OpIn, Set: []attr.Value{operand(), operand(), operand()}}.Canonicalize())
						for _, op := range []attr.Op{attr.OpEq, attr.OpLt, attr.OpLe, attr.OpGt, attr.OpGe} {
							q.preds = append(q.preds, attr.Pred{Field: f.Name, Op: op, Lo: operand()})
						}
					}
					return q
				}
				// answer is everything a snapshot says to q, ids sorted.
				type answers struct {
					each   map[int64]Record[reading]
					probes [][]int64
					attrs  [][]int64
				}
				answer := func(s *Snapshot[reading], q question) answers {
					a := answers{each: make(map[int64]Record[reading])}
					s.Each(func(r Record[reading]) bool {
						a.each[r.ID] = r
						return true
					})
					visit := engine.AllPartitions(s.NumPartitions())
					keep := func(engine.Pair[stobject.STObject, reading]) bool { return true }
					for _, w := range q.windows {
						rows, err := s.Probe(nil, w, keep).CollectPartitions(visit)
						if err != nil {
							t.Fatal(err)
						}
						ids := make([]int64, 0, len(rows))
						for _, kv := range rows {
							ids = append(ids, kv.Value.ID)
						}
						slices.Sort(ids)
						a.probes = append(a.probes, ids)
					}
					for _, p := range q.preds {
						a.attrs = append(a.attrs, probeIDs(t, s, p))
					}
					return a
				}
				compare := func(answered bool, fields ...attr.Field[reading]) {
					t.Helper()
					checkPartitions(t, loaded)
					checkPartitions(t, inserted)
					sl, si := loaded.Snapshot(), inserted.Snapshot()
					if sl.Gen() != si.Gen() {
						t.Fatalf("generations %d and %d", sl.Gen(), si.Gen())
					}
					if !reflect.DeepEqual(sl.Stats(), si.Stats()) {
						t.Fatalf("generation %d: the statistics summaries differ", sl.Gen())
					}
					q := ask(sl, fields...)
					if !answered {
						return
					}
					al, ai := answer(sl, q), answer(si, q)
					if !reflect.DeepEqual(al.each, ai.each) {
						t.Fatalf("generation %d: Each gives %d and %d records", sl.Gen(), len(al.each), len(ai.each))
					}
					for i, w := range q.windows {
						if !slices.Equal(al.probes[i], ai.probes[i]) {
							t.Fatalf("generation %d, window %v: Probe gives %d and %d ids", sl.Gen(), w, len(al.probes[i]), len(ai.probes[i]))
						}
					}
					for i, p := range q.preds {
						if !slices.Equal(al.attrs[i], ai.attrs[i]) {
							t.Fatalf("generation %d, %s: AttrProbe gives %d and %d ids", sl.Gen(), p, len(al.attrs[i]), len(ai.attrs[i]))
						}
					}
				}
				compare(true, fields...)

				pin := loaded.Snapshot()
				pinQ := ask(pin, fields...)
				pinned := answer(pin, pinQ)
				live := make(map[int64]bool, n)
				for _, r := range recs {
					live[r.ID] = true
				}
				vacuums := 0
				for g := range 50 {
					// Upserts and deletes of live ids, inserts of some free ones,
					// about as many as the deletes: the tombstones pile up
					// until vacuums reload partitions.
					size := max(n/20, 40)
					batch := make([]Op[reading], 0, size)
					seen := make(map[int64]bool, size)
					for len(batch) < size {
						id := rng.Int63n(idSpace)
						if seen[id] {
							continue
						}
						seen[id] = true
						switch {
						case live[id] && rng.Intn(3) == 0:
							batch = append(batch, Delete[reading](id))
							delete(live, id)
						case live[id]:
							batch = append(batch, Op[reading]{Kind: OpUpsert, Rec: rec(id)})
						case rng.Intn(3) == 0:
							batch = append(batch, Op[reading]{Kind: OpInsert, Rec: rec(id)})
							live[id] = true
						}
					}
					before := bases(loaded)
					for _, d := range []*Dataset[reading]{loaded, inserted} {
						if _, err := d.Apply(batch); err != nil {
							t.Fatal(err)
						}
					}
					vacuumed := false
					for p, b := range bases(loaded) {
						if b != before[p] {
							vacuums++
							vacuumed = true
						}
					}
					compare(vacuumed || g%10 == 9, fields[loaded.Generation()%uint64(len(fields))]) // the fields take turns
				}
				if vacuums < minVacuums[name] {
					t.Fatalf("50 generations of churn ran %d vacuums, want at least %d", vacuums, minVacuums[name])
				}
				if again := answer(pin, pinQ); !reflect.DeepEqual(again, pinned) {
					t.Fatalf("the snapshot pinned at generation %d answers differently after %d vacuums", pin.Gen(), vacuums)
				}
			})
		}
	}
}
