package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stobject"
	"stark/internal/temporal"
)

// The scan rejects a row whose key envelope misses the prune envelope
// before the exact predicate sees it. These tests hold that pre-test to
// its contract: for every predicate the DSL plans with its prune
// envelope, Where with the envelope, Where without it and a loop over
// the rows return the same rows in the same order.

// pretestKeys draws n keys of every shape a scan can meet: points (most
// of them, as in the served datasets), polygons, linestrings, a point
// with NaN ordinates and an object without geometry; timed or not.
func pretestKeys(rng *rand.Rand, n int, timed bool) []Tuple[int] {
	tuples := make([]Tuple[int], n)
	for i := range tuples {
		x, y := rng.Float64()*100, rng.Float64()*100
		var g geom.Geometry
		switch r := rng.Intn(40); {
		case r == 0:
			g = geom.NewPoint(math.NaN(), y)
		case r == 1:
			g = nil
		case r < 6:
			w, h := rng.Float64()*12, rng.Float64()*12
			g = geom.NewEnvelope(x, y, x+w, y+h).ToPolygon()
		case r < 10:
			g = geom.MustLineString(geom.NewPoint(x, y), geom.NewPoint(x+rng.Float64()*10-5, y+rng.Float64()*10-5),
				geom.NewPoint(x+rng.Float64()*10-5, y+rng.Float64()*10-5))
		default:
			g = geom.NewPoint(x, y)
		}
		key := stobject.New(g)
		if timed {
			start := temporal.Instant(rng.Int63n(1000))
			key = stobject.NewWithInterval(g, temporal.MustInterval(start, start+temporal.Instant(rng.Int63n(50))))
		}
		tuples[i] = engine.NewPair(key, i)
	}
	return tuples
}

func TestWherePretestEquivalence(t *testing.T) {
	type scenario struct {
		name   string
		pred   stobject.Predicate
		expand float64 // how far a match may lie outside the query envelope
	}
	scenarios := []scenario{
		{"intersects", stobject.Intersects, 0},
		{"contains", stobject.Contains, 0},
		{"containedBy", stobject.ContainedBy, 0},
		{"covers", stobject.Covers, 0},
		{"coveredBy", stobject.CoveredBy, 0},
		{"touches", stobject.Touches, 0},
		{"overlaps", stobject.Overlaps, 0},
		{"withinDistance", stobject.WithinDistancePredicate(6, nil), 6},
		{"withinDistance/manhattan", stobject.WithinDistancePredicate(6, manhattan), 6},
		// An opaque predicate: all the scan knows of it is the envelope its
		// author promises its matches meet.
		{"opaque", func(o, p stobject.STObject) bool {
			return o.Intersects(p) && int(o.Centroid().X)%2 == 0
		}, 0},
	}
	rng := rand.New(rand.NewSource(22))
	ctx := engine.NewContext(2)
	matched := make(map[string]int)
	for _, timed := range []bool{false, true} {
		tuples := pretestKeys(rng, 6000, timed)
		// One partition larger than a morsel, one smaller, one empty.
		parts := [][]Tuple[int]{tuples[:5000], nil, tuples[5000:]}
		s := Wrap(engine.FromPartitions(ctx, parts))
		queries := []stobject.STObject{
			stobject.New(geom.NewEnvelope(20, 30, 45, 60).ToPolygon()),
			stobject.New(geom.MustPolygon(geom.NewPoint(50, 10), geom.NewPoint(90, 40), geom.NewPoint(60, 80), geom.NewPoint(50, 10))),
			stobject.New(geom.NewPoint(40, 40)),
			stobject.New(geom.MustLineString(geom.NewPoint(0, 0), geom.NewPoint(100, 70))),
		}
		// Queries that are themselves keys: equal geometries touch, contain
		// and cover each other.
		for _, i := range []int{3, 5500} {
			queries = append(queries, tuples[i].Key)
		}
		for qi, q := range queries {
			if q.IsEmpty() {
				continue
			}
			if timed && !q.HasTime() {
				q = stobject.NewWithInterval(q.Geo(), temporal.MustInterval(200, 700))
			}
			for _, sc := range scenarios {
				var want []int
				for _, kv := range tuples {
					if sc.pred(kv.Key, q) {
						want = append(want, kv.Value)
					}
				}
				matched[sc.name] += len(want)
				pruneEnv := q.Envelope().ExpandBy(sc.expand)
				for _, env := range []geom.Envelope{pruneEnv, geom.EmptyEnvelope()} {
					rows, err := s.Where(q, env, sc.pred).Collect()
					if err != nil {
						t.Fatal(err)
					}
					got := make([]int, len(rows))
					for i, kv := range rows {
						got[i] = kv.Value
					}
					if !slices.Equal(got, want) {
						t.Errorf("timed=%v query %d %s, prune envelope empty=%v: %d rows, the loop finds %d",
							timed, qi, sc.name, env.IsEmpty(), len(got), len(want))
					}
				}
				// The stream cuts the large partition into morsels; every
				// row is charged as scanned, rejected early or not.
				rec := ctx.NewJobRecorder()
				var streamed []int
				err := s.WithRecorder(rec).Where(q, pruneEnv, sc.pred).Dataset().StreamPartitionsParallelContext(nil,
					engine.AllPartitions(len(parts)), func(kv Tuple[int]) bool {
						streamed = append(streamed, kv.Value)
						return true
					})
				if err != nil {
					t.Fatal(err)
				}
				if snap := rec.Snapshot(); !slices.Equal(streamed, want) || snap.ElementsScanned != int64(len(tuples)) || snap.TasksLaunched != 4 {
					t.Errorf("timed=%v query %d %s: the stream returned %d rows (want %d) after scanning %d of %d in %d tasks (want 4)",
						timed, qi, sc.name, len(streamed), len(want), snap.ElementsScanned, len(tuples), snap.TasksLaunched)
				}
			}
		}
	}
	for _, sc := range scenarios {
		if matched[sc.name] == 0 {
			t.Errorf("%s matched no row of any query: the comparison is vacuous", sc.name)
		}
	}
}

// EnvelopeIntersects is the pre-test itself: it must be
// Envelope().Intersects for every key shape, the empty ones included,
// and the envelope test of the key's geometry boxed as a geom.Geometry,
// which a point key, read from the row, is not; timed or not, NaN
// ordinates and the edges of the envelope included.
func TestEnvelopeIntersectsMatchesEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	envs := []geom.Envelope{
		geom.NewEnvelope(20, 20, 60, 60), geom.NewEnvelope(0, 0, 100, 100),
		geom.NewEnvelope(50, 50, 50, 50), geom.EmptyEnvelope(),
		{MinX: math.NaN(), MinY: 0, MaxX: 100, MaxY: 100},
	}
	for _, timed := range []bool{false, true} {
		keys := append(pretestKeys(rng, 4000, timed), engine.NewPair(stobject.New(geom.NewPoint(20, 60)), 0),
			engine.NewPair(stobject.New(geom.NewPoint(math.NaN(), math.NaN())), 0))
		for _, kv := range keys {
			boxed := geom.EmptyEnvelope()
			if g := kv.Key.Geo(); g != nil {
				boxed = g.Envelope()
			}
			for _, env := range envs {
				got := kv.Key.EnvelopeIntersects(env)
				if want := kv.Key.Envelope().Intersects(env); got != want || got != boxed.Intersects(env) {
					t.Fatalf("%v against %v: EnvelopeIntersects %v, Envelope().Intersects %v, boxed %v", kv.Key, env, got, want, boxed.Intersects(env))
				}
			}
		}
	}
}

// TestScanPointRowsAllocatesNothing: the scan's batch function pre-tests
// and refines point rows in place, so a batch of them, most rows
// rejected and the rest refined against a polygon window, costs no
// allocation.
func TestScanPointRowsAllocatesNothing(t *testing.T) {
	rows := make([]Tuple[int], 2000)
	for i := range rows {
		key := stobject.NewWithTime(geom.NewPoint(float64(i%50), float64(i/50)), temporal.Instant(i))
		rows[i] = engine.NewPair(key, i)
	}
	window := geom.MustPolygon(geom.NewPoint(5, 5), geom.NewPoint(30, 8), geom.NewPoint(20, 30), geom.NewPoint(5, 5))
	q := stobject.NewWithInterval(window, temporal.MustInterval(0, 1500))
	batch := scanBatch[int](engine.NewContext(1).NewJobRecorder(), q, q.Envelope(), stobject.Intersects, false)
	out := make([]Tuple[int], len(rows))
	hits := 0
	if n := testing.AllocsPerRun(20, func() { hits = batch(rows, out) }); n != 0 {
		t.Errorf("scanning %d point rows allocates %v times, want 0", len(rows), n)
	}
	if hits == 0 || hits == len(rows) {
		t.Fatalf("the window keeps %d of %d rows: the refinement is not exercised", hits, len(rows))
	}
}

// TestPartitionByOrdersPointRowsByX pins the layout step: every
// partition of point keys leaves PartitionBy sorted by x, a NaN first
// and ties in source order, so two shuffles of one input are equal row
// for row; a dataset with a non-point key is not marked ordered.
func TestPartitionByOrdersPointRowsByX(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tuples := make([]Tuple[int], 3000)
	for i := range tuples {
		x := float64(rng.Intn(200)) / 2 // many ties
		if i%500 == 0 {
			x = math.NaN()
		}
		tuples[i] = engine.NewPair(stobject.NewWithTime(geom.NewPoint(x, rng.Float64()*100), temporal.Instant(i)), i)
	}
	ctx := engine.NewContext(2)
	keys := make([]stobject.STObject, len(tuples))
	for i := range tuples {
		keys[i] = tuples[i].Key
	}
	g, err := partition.NewGrid(3, keys)
	if err != nil {
		t.Fatal(err)
	}
	shuffle := func(tuples []Tuple[int]) *SpatialDataset[int] {
		s, err := Wrap(engine.Parallelize(ctx, tuples, 4)).PartitionBy(g)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := shuffle(tuples), shuffle(tuples)
	if !a.xOrdered {
		t.Fatal("a dataset of point keys is not marked ordered by x")
	}
	rank := func(x float64) float64 {
		if math.IsNaN(x) {
			return math.Inf(-1)
		}
		return x
	}
	for p := 0; p < a.NumPartitions(); p++ {
		ra, _ := a.Dataset().ComputePartition(p)
		rb, _ := b.Dataset().ComputePartition(p)
		if !slices.Equal(gotValues(ra), gotValues(rb)) {
			t.Fatalf("partition %d differs between two shuffles of one input", p)
		}
		for i := 1; i < len(ra); i++ {
			prev, _ := ra[i-1].Key.Point()
			cur, _ := ra[i].Key.Point()
			if rank(prev.X) > rank(cur.X) || rank(prev.X) == rank(cur.X) && ra[i-1].Value > ra[i].Value {
				t.Fatalf("partition %d rows %d, %d out of order: %v then %v", p, i-1, i, ra[i-1], ra[i])
			}
		}
	}
	mixed := append(slices.Clone(tuples), engine.NewPair(stobject.New(geom.NewEnvelope(1, 1, 2, 2).ToPolygon()), -1))
	if shuffle(mixed).xOrdered {
		t.Error("a dataset holding a polygon key is marked ordered by x")
	}
}

// TestScanOverOrderedRows holds the scan over x-ordered partitions, which
// skips the batches whose x range misses the prune envelope, to a loop
// over the rows for every built-in predicate; and pins that the skip
// reads only a batch's first and last row.
func TestScanOverOrderedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tuples := pretestKeys(rng, 20000, true)
	points := tuples[:0] // a NaN point would leave the grid without extent
	for _, kv := range tuples {
		if p, ok := kv.Key.Point(); ok && !p.IsEmpty() {
			points = append(points, kv)
		}
	}
	keys := make([]stobject.STObject, len(points))
	for i := range points {
		keys[i] = points[i].Key
	}
	g, err := partition.NewGrid(2, keys)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Wrap(engine.Parallelize(engine.NewContext(2), points, 3)).PartitionBy(g)
	if err != nil || !s.xOrdered {
		t.Fatalf("PartitionBy: %v, ordered %v", err, s.xOrdered)
	}
	preds := map[string]stobject.Predicate{
		"intersects": stobject.Intersects, "contains": stobject.Contains, "containedBy": stobject.ContainedBy,
		"covers": stobject.Covers, "coveredBy": stobject.CoveredBy, "touches": stobject.Touches,
		"overlaps": stobject.Overlaps, "within": stobject.WithinDistancePredicate(3, nil),
	}
	for i := 0; i < 20; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		w := geom.NewEnvelope(x, y, x+rng.Float64()*15, y+rng.Float64()*15)
		if i == 0 {
			w = geom.NewEnvelope(0, 0, 100, 100) // every batch in range
		}
		q := stobject.NewWithInterval(w.ToPolygon(), temporal.MustInterval(100, 800))
		for name, pred := range preds {
			env := q.Envelope().ExpandBy(3)
			got, err := s.Filter(q, env, pred)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteFilter(points, q, pred); !sameIDs(gotIDs(got), want) {
				t.Errorf("window %v %s: %d rows, the loop finds %d", w, name, len(got), len(want))
			}
		}
	}
	// A batch whose first and last x lie left of the envelope is
	// skipped whole: the unordered row between them is never tested.
	row := func(x float64) Tuple[int] { return engine.NewPair(stobject.New(geom.NewPoint(x, 5)), 0) }
	batch := []Tuple[int]{row(1), row(5), row(2)}
	q := queryPolygon(4, 4, 6, 6)
	out := make([]Tuple[int], len(batch))
	rec := engine.NewContext(1).NewJobRecorder()
	if n := scanBatch[int](rec, q, q.Envelope(), stobject.Intersects, false)(batch, out); n != 1 {
		t.Errorf("unordered scan keeps %d rows, want 1", n)
	}
	if n := scanBatch[int](rec, q, q.Envelope(), stobject.Intersects, true)(batch, out); n != 0 {
		t.Errorf("ordered scan keeps %d rows of a batch it should skip, want 0", n)
	}
	if got := rec.Snapshot().ElementsScanned; got != 6 {
		t.Errorf("elements scanned %d, want 6: a skipped batch still counts", got)
	}
}

func gotValues(rows []Tuple[int]) []int {
	vs := make([]int, len(rows))
	for i, kv := range rows {
		vs[i] = kv.Value
	}
	return vs
}
