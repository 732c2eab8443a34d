package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stobject"
)

// makeDataset builds a SpatialDataset of n uniform points in
// [0,100)² with IDs as values, split into numPart partitions.
func makeDataset(t testing.TB, ctx *engine.Context, n, numPart int, seed int64) (*SpatialDataset[int], []Tuple[int]) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]Tuple[int], n)
	for i := range tuples {
		p := stobject.New(geom.NewPoint(rng.Float64()*100, rng.Float64()*100))
		tuples[i] = engine.NewPair(p, i)
	}
	return Wrap(engine.Parallelize(ctx, tuples, numPart)), tuples
}

// makeTimedDataset builds points carrying instants in [0, 1000).
func makeTimedDataset(t testing.TB, ctx *engine.Context, n, numPart int, seed int64) (*SpatialDataset[int], []Tuple[int]) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]Tuple[int], n)
	for i := range tuples {
		p := stobject.NewWithTime(
			geom.NewPoint(rng.Float64()*100, rng.Float64()*100),
			stobject.Instant(rng.Int63n(1000)))
		tuples[i] = engine.NewPair(p, i)
	}
	return Wrap(engine.Parallelize(ctx, tuples, numPart)), tuples
}

// mustFromWKT parses a WKT literal, panicking on error.
func mustFromWKT(wkt string) stobject.STObject {
	o, err := stobject.FromWKT(wkt)
	if err != nil {
		panic(err)
	}
	return o
}

func queryPolygon(minX, minY, maxX, maxY float64) stobject.STObject {
	return stobject.New(geom.NewEnvelope(minX, minY, maxX, maxY).ToPolygon())
}

// bruteFilter applies pred(key, q) to all tuples.
func bruteFilter(tuples []Tuple[int], q stobject.STObject, pred stobject.Predicate) []int {
	var ids []int
	for _, kv := range tuples {
		if pred(kv.Key, q) {
			ids = append(ids, kv.Value)
		}
	}
	sort.Ints(ids)
	return ids
}

func gotIDs(tuples []Tuple[int]) []int {
	ids := make([]int, len(tuples))
	for i, kv := range tuples {
		ids[i] = kv.Value
	}
	sort.Ints(ids)
	return ids
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWrapAndBasics(t *testing.T) {
	ctx := engine.NewContext(4)
	s, tuples := makeDataset(t, ctx, 100, 4, 1)
	if s.Partitioner() != nil {
		t.Error("fresh wrap must have no partitioner")
	}
	if s.NumPartitions() != 4 {
		t.Errorf("partitions = %d", s.NumPartitions())
	}
	n, err := s.Count()
	if err != nil || n != 100 {
		t.Fatalf("count = %d err=%v", n, err)
	}
	got, err := s.Collect()
	if err != nil || len(got) != len(tuples) {
		t.Fatalf("collect len = %d err=%v", len(got), err)
	}
	if s.ds.Context() != ctx {
		t.Error("context mismatch")
	}
}

func TestWrapPartitionedValidation(t *testing.T) {
	ctx := engine.NewContext(2)
	s, _ := makeDataset(t, ctx, 50, 4, 2)
	objs := keysOf(t, s)
	g, err := partition.NewGrid(3, objs) // 9 partitions != 4
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WrapPartitioned(s.Dataset(), g); err == nil {
		t.Error("mismatched partition count must fail")
	}
	if _, err := WrapPartitioned(s.Dataset(), nil); err != nil {
		t.Errorf("nil partitioner is allowed: %v", err)
	}
}

func keysOf(t *testing.T, s *SpatialDataset[int]) []stobject.STObject {
	t.Helper()
	tuples, err := s.Collect()
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]stobject.STObject, len(tuples))
	for i, kv := range tuples {
		objs[i] = kv.Key
	}
	return objs
}

func TestPartitionByGrid(t *testing.T) {
	ctx := engine.NewContext(4)
	s, tuples := makeDataset(t, ctx, 500, 4, 3)
	g, err := partition.NewGrid(3, keysOf(t, s))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := s.PartitionBy(g)
	if err != nil {
		t.Fatal(err)
	}
	if ps.NumPartitions() != 9 {
		t.Fatalf("partitions = %d", ps.NumPartitions())
	}
	if ps.Partitioner() == nil {
		t.Fatal("partitioner must be recorded")
	}
	// No data lost in the shuffle.
	n, _ := ps.Count()
	if n != 500 {
		t.Errorf("count after shuffle = %d", n)
	}
	// Every record is in the partition its key maps to.
	for p := 0; p < 9; p++ {
		part, err := ps.Dataset().ComputePartition(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range part {
			if g.PartitionFor(kv.Key) != p {
				t.Fatalf("record %d in wrong partition", kv.Value)
			}
		}
	}
	_ = tuples
	if _, err := s.PartitionBy(nil); err == nil {
		t.Error("nil partitioner must fail")
	}
}

func TestFilterScanMatchesBruteForce(t *testing.T) {
	ctx := engine.NewContext(4)
	s, tuples := makeDataset(t, ctx, 1000, 8, 4)
	q := queryPolygon(20, 20, 50, 60)

	for _, tc := range []struct {
		name string
		run  func() ([]Tuple[int], error)
		pred stobject.Predicate
	}{
		{"intersects", func() ([]Tuple[int], error) { return s.Filter(q, q.Envelope(), stobject.Intersects) }, stobject.Intersects},
		{"containedBy", func() ([]Tuple[int], error) { return s.Filter(q, q.Envelope(), stobject.ContainedBy) }, stobject.ContainedBy},
		{"coveredBy", func() ([]Tuple[int], error) { return s.Filter(q, q.Envelope(), stobject.CoveredBy) }, stobject.CoveredBy},
	} {
		got, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := bruteFilter(tuples, q, tc.pred)
		if !sameIDs(gotIDs(got), want) {
			t.Errorf("%s: got %d ids, want %d", tc.name, len(got), len(want))
		}
		if len(want) == 0 {
			t.Errorf("%s: degenerate test, no matches", tc.name)
		}
	}
}

func TestContainsFilter(t *testing.T) {
	// Polygons containing a query point.
	ctx := engine.NewContext(2)
	tuples := []Tuple[int]{
		engine.NewPair(mustFromWKT("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"), 1),
		engine.NewPair(mustFromWKT("POLYGON ((20 20, 30 20, 30 30, 20 30, 20 20))"), 2),
	}
	s := Wrap(engine.Parallelize(ctx, tuples, 2))
	q := mustFromWKT("POINT (5 5)")
	got, err := s.Filter(q, q.Envelope(), stobject.Contains)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Value != 1 {
		t.Errorf("got %v", gotIDs(got))
	}
}

func TestFilterWithPartitionPruning(t *testing.T) {
	ctx := engine.NewContext(4)
	s, tuples := makeDataset(t, ctx, 2000, 4, 5)
	g, err := partition.NewGrid(4, keysOf(t, s))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := s.PartitionBy(g)
	if err != nil {
		t.Fatal(err)
	}
	before := ctx.Recorder().Snapshot()
	q := queryPolygon(10, 10, 20, 20) // small box → prune most of 16 cells
	got, err := ps.Filter(q, q.Envelope(), stobject.Intersects)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteFilter(tuples, q, stobject.Intersects)
	if !sameIDs(gotIDs(got), want) {
		t.Fatalf("pruned filter: got %d, want %d", len(got), len(want))
	}
	snap := ctx.Recorder().Snapshot().Sub(before)
	if snap[engine.TasksSkipped] == 0 {
		t.Error("expected pruned partitions")
	}
	if snap[engine.ElementsScanned] >= 2000 {
		t.Errorf("scanned %d elements; pruning should cut this below the full 2000", snap[engine.ElementsScanned])
	}
}

// withinDistance filters s (scanned or indexed) by distance to q: the
// pruning envelope must be grown by maxDist, because an object within
// distance of q can live in a partition whose extent does not touch q
// itself.
func withinDistance(s interface {
	Filter(stobject.STObject, geom.Envelope, stobject.Predicate) ([]Tuple[int], error)
}, q stobject.STObject, maxDist float64, df geom.DistanceFunc) ([]Tuple[int], error) {
	return s.Filter(q, q.Envelope().ExpandBy(maxDist), stobject.WithinDistancePredicate(maxDist, df))
}

func TestWithinDistanceAcrossPartitionBorders(t *testing.T) {
	// A query near a partition border must still find neighbours in
	// the adjacent partition (pruning envelope expanded by maxDist).
	ctx := engine.NewContext(4)
	s, tuples := makeDataset(t, ctx, 2000, 4, 6)
	g, err := partition.NewGrid(4, keysOf(t, s))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := s.PartitionBy(g)
	if err != nil {
		t.Fatal(err)
	}
	// Grid cells are 25 wide; query at a cell border.
	q := mustFromWKT("POINT (25 25)")
	got, err := withinDistance(ps, q, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteFilter(tuples, q, stobject.WithinDistancePredicate(5, nil))
	if !sameIDs(gotIDs(got), want) {
		t.Errorf("got %d, want %d", len(got), len(want))
	}
	if len(want) == 0 {
		t.Error("degenerate test")
	}
}

func TestWithinDistanceCustomFunction(t *testing.T) {
	ctx := engine.NewContext(2)
	tuples := []Tuple[int]{
		engine.NewPair(mustFromWKT("POINT (3 4)"), 1), // L2=5, L1=7
		engine.NewPair(mustFromWKT("POINT (6 8)"), 2), // L2=10
	}
	s := Wrap(engine.Parallelize(ctx, tuples, 1))
	q := mustFromWKT("POINT (0 0)")
	got, err := withinDistance(s, q, 5, nil)
	if err != nil || len(got) != 1 {
		t.Fatalf("euclidean got %d err=%v", len(got), err)
	}
	got, err = withinDistance(s, q, 6.5, manhattan)
	if err != nil || len(got) != 0 {
		t.Fatalf("manhattan(6.5) got %d err=%v", len(got), err)
	}
	got, err = withinDistance(s, q, 7, manhattan)
	if err != nil || len(got) != 1 {
		t.Fatalf("manhattan(7) got %d err=%v", len(got), err)
	}
}

func TestSpatioTemporalFilter(t *testing.T) {
	ctx := engine.NewContext(4)
	s, tuples := makeTimedDataset(t, ctx, 1000, 4, 7)
	// Query window: spatial box + temporal interval, the paper's
	// events.containedBy(qry) example.
	q := stobject.NewWithInterval(
		geom.NewEnvelope(20, 20, 60, 60).ToPolygon(),
		stobject.MustInterval(100, 400))
	got, err := s.Filter(q, q.Envelope(), stobject.ContainedBy)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteFilter(tuples, q, stobject.ContainedBy)
	if !sameIDs(gotIDs(got), want) {
		t.Fatalf("got %d, want %d", len(got), len(want))
	}
	if len(want) == 0 || len(want) == len(tuples) {
		t.Error("degenerate temporal test")
	}
	// The temporal window shrinks the result: the same box over the
	// whole time range matches more.
	qAllTime := stobject.NewWithInterval(q.Geo(), stobject.MustInterval(0, 1000))
	all, err := s.Filter(qAllTime, qAllTime.Envelope(), stobject.ContainedBy)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) <= len(got) {
		t.Errorf("the window [100, 400] kept %d of the box's %d rows over all time", len(got), len(all))
	}
	// The same spatial query without time matches nothing (mixed
	// semantics).
	qNoTime := queryPolygon(20, 20, 60, 60)
	got, err = s.Filter(qNoTime, qNoTime.Envelope(), stobject.ContainedBy)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("mixed-pair query returned %d results, want 0", len(got))
	}
}

func TestGenericFilter(t *testing.T) {
	ctx := engine.NewContext(2)
	s, tuples := makeDataset(t, ctx, 500, 4, 8)
	q := queryPolygon(0, 0, 30, 30)
	got, err := s.Filter(q, q.Envelope(), stobject.Intersects)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteFilter(tuples, q, stobject.Intersects)
	if !sameIDs(gotIDs(got), want) {
		t.Errorf("got %d, want %d", len(got), len(want))
	}
	// Empty prune envelope → full scan, same results.
	got2, err := s.Filter(q, geom.EmptyEnvelope(), stobject.Intersects)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(gotIDs(got2), want) {
		t.Error("unpruned filter differs")
	}
}

func TestCacheChaining(t *testing.T) {
	ctx := engine.NewContext(2)
	s, _ := makeDataset(t, ctx, 100, 2, 9)
	if s.Cache() != s {
		t.Error("Cache must return receiver")
	}
}

func TestMetricsElementsScanned(t *testing.T) {
	ctx := engine.NewContext(2)
	s, _ := makeDataset(t, ctx, 300, 3, 10)
	before := ctx.Recorder().Snapshot()
	q := queryPolygon(0, 0, 100, 100)
	if _, err := s.Filter(q, q.Envelope(), stobject.Intersects); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Recorder().Snapshot().Sub(before)[engine.ElementsScanned]; got != 300 {
		t.Errorf("scanned = %d, want 300 (no partitioner, full scan)", got)
	}
}

func ExampleWrap() {
	ctx := engine.NewContext(2)
	// The paper's running example: (id, category, time, wkt) records
	// keyed by STObject.
	events := []Tuple[string]{
		engine.NewPair(stobject.NewWithTime(geom.NewPoint(13.4, 52.5), 100), "concert"),
		engine.NewPair(stobject.NewWithTime(geom.NewPoint(11.6, 48.1), 400), "fair"),
	}
	ds := Wrap(engine.Parallelize(ctx, events, 2))
	qry := stobject.NewWithInterval(
		geom.NewEnvelope(10, 45, 15, 55).ToPolygon(),
		stobject.MustInterval(0, 200))
	hits, _ := ds.Filter(qry, qry.Envelope(), stobject.ContainedBy)
	for _, h := range hits {
		fmt.Println(h.Value)
	}
	// Output: concert
}

// manhattan is the L1 distance, a distance function other than the
// default Euclidean one.
func manhattan(a, b geom.Point) float64 {
	return math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y)
}
