package stark

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"stark/internal/attr"
	"stark/internal/engine"
	"stark/internal/live"
)

func livePoint(x, y float64) STObject { return NewSTObject(NewPoint(x, y)) }

func liveGrid(t testing.TB, ppd int) SpatialPartitioner {
	t.Helper()
	sp, err := Grid(ppd).build(func() ([]STObject, error) {
		return []STObject{livePoint(0, 0), livePoint(100, 100)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestMutableDatasetQueryAfterMutations(t *testing.T) {
	ctx := NewContext(4)
	md := NewMutableDataset[int](ctx, "fleet", liveGrid(t, 3), 8)

	rng := rand.New(rand.NewSource(42))
	type rec struct{ x, y float64 }
	recs := make(map[int64]rec)
	var batch []LiveRecord[int]
	for i := int64(0); i < 800; i++ {
		r := rec{rng.Float64() * 100, rng.Float64() * 100}
		recs[i] = r
		batch = append(batch, LiveRecord[int]{ID: i, Key: livePoint(r.x, r.y), Value: int(i)})
	}
	if _, err := md.Insert(batch...); err != nil {
		t.Fatal(err)
	}
	// Mutate: move some, delete some.
	var ups []LiveRecord[int]
	for i := int64(0); i < 100; i++ {
		r := rec{rng.Float64() * 100, rng.Float64() * 100}
		recs[i] = r
		ups = append(ups, LiveRecord[int]{ID: i, Key: livePoint(r.x, r.y), Value: int(i)})
	}
	if _, err := md.Upsert(ups...); err != nil {
		t.Fatal(err)
	}
	var dels []int64
	for i := int64(100); i < 200; i++ {
		delete(recs, i)
		dels = append(dels, i)
	}
	if _, err := md.Delete(dels...); err != nil {
		t.Fatal(err)
	}
	if md.Generation() != 3 {
		t.Fatalf("generation = %d, want 3", md.Generation())
	}
	if int(md.Count()) != len(recs) {
		t.Fatalf("count = %d, want %d", md.Count(), len(recs))
	}

	q := NewSTObject(NewEnvelope(25, 25, 75, 60).ToPolygon())
	got, err := md.Snapshot().Intersects(q).Collect()
	if err != nil {
		t.Fatal(err)
	}
	var gotIDs []int64
	for _, kv := range got {
		gotIDs = append(gotIDs, int64(kv.Value))
	}
	var wantIDs []int64
	for id, r := range recs {
		if r.x >= 25 && r.x <= 75 && r.y >= 25 && r.y <= 60 {
			wantIDs = append(wantIDs, id)
		}
	}
	sort.Slice(gotIDs, func(i, j int) bool { return gotIDs[i] < gotIDs[j] })
	sort.Slice(wantIDs, func(i, j int) bool { return wantIDs[i] < wantIDs[j] })
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("query matched %d records, want %d", len(gotIDs), len(wantIDs))
	}
	for i := range gotIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("result diverges at %d: %d != %d", i, gotIDs[i], wantIDs[i])
		}
	}

	// Differential gate: the mutated dataset must equal one built from
	// scratch over the surviving records.
	var tuples []Tuple[int]
	for id, r := range recs {
		tuples = append(tuples, NewTuple(livePoint(r.x, r.y), int(id)))
	}
	want2, err := Parallelize(ctx, tuples).Intersects(q).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(want2) != len(got) {
		t.Fatalf("mutated snapshot matched %d, rebuilt-from-scratch %d", len(got), len(want2))
	}
}

func TestMutableDatasetExplainShowsGenerationAndLivePath(t *testing.T) {
	ctx := NewContext(2)
	md := NewMutableDataset[int](ctx, "live-ds", liveGrid(t, 2), 8)
	var batch []LiveRecord[int]
	for i := int64(0); i < 200; i++ {
		batch = append(batch, LiveRecord[int]{ID: i, Key: livePoint(float64(i%20)*5, float64(i/20)*10), Value: int(i)})
	}
	if _, err := md.Insert(batch...); err != nil {
		t.Fatal(err)
	}

	q := NewSTObject(NewEnvelope(0, 0, 50, 50).ToPolygon())
	out, err := md.Snapshot().Intersects(q).Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"LiveScan[live-ds gen=1]",
		"concurrent R-link tree",
		"index=probe (existing partition trees)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}

	if _, err := md.Delete(0); err != nil {
		t.Fatal(err)
	}
	out, err = md.Snapshot().Intersects(q).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "LiveScan[live-ds gen=2]") {
		t.Fatalf("explain after mutation does not show new generation:\n%s", out)
	}
}

func TestMutableDatasetFingerprintTracksGeneration(t *testing.T) {
	ctx := NewContext(2)
	md := NewMutableDataset[int](ctx, "fp", nil, 8)
	if _, err := md.Insert(LiveRecord[int]{ID: 1, Key: livePoint(5, 5), Value: 1}); err != nil {
		t.Fatal(err)
	}
	q := NewSTObject(NewEnvelope(0, 0, 10, 10).ToPolygon())

	fp1, err := md.Snapshot().Intersects(q).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := md.Snapshot().Intersects(q).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("same generation, different fingerprints: %s vs %s (cache could never hit)", fp1, fp2)
	}

	if _, err := md.Insert(LiveRecord[int]{ID: 2, Key: livePoint(6, 6), Value: 2}); err != nil {
		t.Fatal(err)
	}
	fp3, err := md.Snapshot().Intersects(q).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp3 == fp1 {
		t.Fatalf("generation bump kept fingerprint %s (stale cache hits possible)", fp1)
	}
}

func TestMutableDatasetSnapshotPinned(t *testing.T) {
	ctx := NewContext(2)
	md := NewMutableDataset[int](ctx, "pin", nil, 8)
	if _, err := md.Insert(
		LiveRecord[int]{ID: 1, Key: livePoint(1, 1), Value: 1},
		LiveRecord[int]{ID: 2, Key: livePoint(2, 2), Value: 2},
	); err != nil {
		t.Fatal(err)
	}
	pinned := md.Snapshot()
	if _, err := md.Delete(1, 2); err != nil {
		t.Fatal(err)
	}
	n, err := pinned.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("pinned snapshot counts %d after delete, want 2", n)
	}
	n, err = md.Snapshot().Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("fresh snapshot counts %d, want 0", n)
	}
}

func TestMutableDatasetEmptyAndChaining(t *testing.T) {
	ctx := NewContext(2)
	md := NewMutableDataset[int](ctx, "empty", liveGrid(t, 2), 8)
	q := NewSTObject(NewEnvelope(0, 0, 100, 100).ToPolygon())
	n, err := md.Snapshot().Intersects(q).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("empty dataset matched %d records", n)
	}

	var batch []LiveRecord[int]
	for i := int64(0); i < 50; i++ {
		batch = append(batch, LiveRecord[int]{ID: i, Key: livePoint(float64(i), float64(i)), Value: int(i % 5)})
	}
	if _, err := md.Insert(batch...); err != nil {
		t.Fatal(err)
	}
	// Snapshot composes with the rest of the DSL (payload filter after
	// the spatial filter drops the live probe path safely).
	got, err := md.Snapshot().Intersects(q).FilterValues(func(v int) bool { return v == 0 }).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("chained query matched %d, want 10", len(got))
	}

	// Error surfaces, dataset unchanged.
	if _, err := md.Insert(LiveRecord[int]{ID: 3, Key: livePoint(1, 1), Value: 9}); err == nil {
		t.Fatal("insert of live ID did not error")
	}
	if md.Generation() != 1 || md.Count() != 50 {
		t.Fatalf("rejected batch mutated state: gen=%d count=%d", md.Generation(), md.Count())
	}
}

// TestPlanErrorsSurfaceAtRun: the query service commits its status line
// after Run(), so whatever can be known before the first row must fail
// there, on a static and on a live dataset, and the stream that follows
// must report the same error without calling the encoder or the sink.
// (A columnar sidecar cannot be made to vanish: nothing ever clears
// one, so that check of compile's has no row here.)
func TestPlanErrorsSurfaceAtRun(t *testing.T) {
	ctx := NewContext(2)
	schema := NewAttrSchema[int]().Int64("v", func(v int) int64 { return int64(v) })
	other := NewAttrSchema[int]().Int64("w", func(v int) int64 { return int64(v) })
	rng := rand.New(rand.NewSource(18))
	tuples := make([]Tuple[int], 2000)
	recs := make([]LiveRecord[int], len(tuples))
	for i := range tuples {
		tuples[i] = NewTuple(livePoint(rng.Float64()*100, rng.Float64()*100), i)
		recs[i] = LiveRecord[int]{ID: int64(i), Key: tuples[i].Key, Value: i}
	}
	static := Parallelize(ctx, tuples, 2)
	md := NewMutableDataset[int](ctx, "errs", liveGrid(t, 2), 8)
	if _, err := md.Insert(recs...); err != nil {
		t.Fatal(err)
	}
	// A live view whose source promises postings the pinned generation
	// does not hold: the planner takes the postings probe and the
	// snapshot refuses to build it.
	raw := live.NewDataset[int](ctx, "raw", nil, 8)
	ops := make([]LiveOp[int], len(recs))
	for i, r := range recs {
		ops[i] = LiveInsert(r.ID, r.Key, r.Value)
	}
	if _, err := raw.Apply(ops); err != nil {
		t.Fatal(err)
	}
	snap := raw.Snapshot()
	promised := newLiveView(ctx, "raw", raw.Order(), snap).chain("promise", func(st state[int]) (state[int], error) {
		st.live = func(rec *engine.Recorder) probeSource[int] {
			return probeSource[int]{
				hasPostings: func(string) bool { return true },
				postings: func(first attr.Pred, keep func(Tuple[int]) bool) (*engine.Dataset[Tuple[int]], error) {
					return snap.AttrProbe(rec, first, keep)
				},
			}
		}
		return st, nil
	})

	for _, tc := range []struct {
		name string
		d    *Dataset[int]
		want string
	}{
		{"static/unknown field", static.WithSchema(schema).FilterEq("w", 1), `"w"`},
		{"static/no schema", static.FilterEq("v", 1), "schema"},
		{"static/field gone from the schema", static.WithSchema(schema).FilterEq("v", 1).WithSchema(other), `no field "v" in schema`},
		{"live/unknown field", md.Snapshot().WithSchema(schema).FilterEq("w", 1), `"w"`},
		{"live/no schema", md.Snapshot().FilterEq("v", 1), "schema"},
		{"live/field gone from the schema", md.Snapshot().WithSchema(schema).FilterEq("v", 1).WithSchema(other), `no field "v" in schema`},
		{"live/no postings for the driving field", promised.WithSchema(schema).FilterEq("v", 1), `no attribute postings for field "v"`},
	} {
		err := tc.d.Run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run() = %v, want an error naming %s", tc.name, err, tc.want)
			continue
		}
		streamErr := tc.d.StreamEncodedContext(context.Background(),
			func(dst []byte, _ Tuple[int]) ([]byte, error) {
				t.Errorf("%s: encoder called after Run() failed", tc.name)
				return dst, nil
			},
			func([]byte, int64) bool {
				t.Errorf("%s: sink called after Run() failed", tc.name)
				return false
			})
		if streamErr == nil || streamErr.Error() != err.Error() {
			t.Errorf("%s: stream failed with %v, Run() with %v", tc.name, streamErr, err)
		}
	}
}
