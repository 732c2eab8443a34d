package stark_test

// Tests for typed attribute predicates: the differential battery
// (typed filters must equal the equivalent opaque closures
// element-for-element across every layout), fingerprint behaviour
// (attr predicates are canonical and cacheable where closures are
// not), EXPLAIN access paths, and a -race hammer mixing live ingest
// with concurrent attribute queries.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"stark"
)

// ride is the attribute-test payload: a typed record with numeric,
// string and boolean fields.
type ride struct {
	ID    int
	Fare  float64
	City  string
	Stops int64
	Pool  bool
}

func rideSchema() *stark.AttrSchema[ride] {
	return stark.NewAttrSchema[ride]().
		Int64("id", func(r ride) int64 { return int64(r.ID) }).
		Float64("fare", func(r ride) float64 { return r.Fare }).
		String("city", func(r ride) string { return r.City }).
		Int64("stops", func(r ride) int64 { return r.Stops }).
		Bool("pool", func(r ride) bool { return r.Pool })
}

var rideCities = []string{"berlin", "boston", "lima", "osaka", "quito"}

// rideTuples generates n rides at random points in [0,100)².
func rideTuples(rng *rand.Rand, n int) []stark.Tuple[ride] {
	tuples := make([]stark.Tuple[ride], n)
	for i := range tuples {
		r := ride{
			ID:    i,
			Fare:  rng.Float64() * 100,
			City:  rideCities[rng.Intn(len(rideCities))],
			Stops: rng.Int63n(6),
			Pool:  rng.Intn(3) == 0,
		}
		key := stark.NewSTObject(stark.NewPoint(rng.Float64()*100, rng.Float64()*100))
		tuples[i] = stark.NewTuple(key, r)
	}
	return tuples
}

func collectRideIDs(t *testing.T, d *stark.Dataset[ride]) []int {
	t.Helper()
	rows, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(rows))
	for i, kv := range rows {
		ids[i] = kv.Value.ID
	}
	sort.Ints(ids)
	return ids
}

// attrCase pairs a typed attribute chain with the opaque closure
// chain it must be equivalent to.
type attrCase struct {
	name   string
	typed  func(d *stark.Dataset[ride]) *stark.Dataset[ride]
	opaque func(d *stark.Dataset[ride]) *stark.Dataset[ride]
}

func attrCases() []attrCase {
	return []attrCase{
		{
			name:  "eq_string",
			typed: func(d *stark.Dataset[ride]) *stark.Dataset[ride] { return d.FilterEq("city", "berlin") },
			opaque: func(d *stark.Dataset[ride]) *stark.Dataset[ride] {
				return d.FilterValues(func(r ride) bool { return r.City == "berlin" })
			},
		},
		{
			name:  "range_float",
			typed: func(d *stark.Dataset[ride]) *stark.Dataset[ride] { return d.FilterRange("fare", 20.0, 60.0) },
			opaque: func(d *stark.Dataset[ride]) *stark.Dataset[ride] {
				return d.FilterValues(func(r ride) bool { return r.Fare >= 20 && r.Fare <= 60 })
			},
		},
		{
			name:  "gt_int",
			typed: func(d *stark.Dataset[ride]) *stark.Dataset[ride] { return d.FilterOp("stops", "gt", 2) },
			opaque: func(d *stark.Dataset[ride]) *stark.Dataset[ride] {
				return d.FilterValues(func(r ride) bool { return r.Stops > 2 })
			},
		},
		{
			name:  "in_string",
			typed: func(d *stark.Dataset[ride]) *stark.Dataset[ride] { return d.FilterIn("city", "lima", "osaka") },
			opaque: func(d *stark.Dataset[ride]) *stark.Dataset[ride] {
				return d.FilterValues(func(r ride) bool { return r.City == "lima" || r.City == "osaka" })
			},
		},
		{
			name:  "eq_bool",
			typed: func(d *stark.Dataset[ride]) *stark.Dataset[ride] { return d.FilterEq("pool", true) },
			opaque: func(d *stark.Dataset[ride]) *stark.Dataset[ride] {
				return d.FilterValues(func(r ride) bool { return r.Pool })
			},
		},
		{
			name: "conjunction",
			typed: func(d *stark.Dataset[ride]) *stark.Dataset[ride] {
				return d.FilterRange("fare", 10.0, 80.0).FilterEq("city", "boston")
			},
			opaque: func(d *stark.Dataset[ride]) *stark.Dataset[ride] {
				return d.FilterValues(func(r ride) bool {
					return r.Fare >= 10 && r.Fare <= 80 && r.City == "boston"
				})
			},
		},
	}
}

// TestAttrFilterDifferential: typed attribute filters must select
// exactly the rows the equivalent opaque closures select, across
// every layout, with and without a spatial predicate in the chain.
func TestAttrFilterDifferential(t *testing.T) {
	ctx := stark.NewContext(4)
	rng := rand.New(rand.NewSource(7))
	tuples := rideTuples(rng, 800)
	schema := rideSchema()
	window := stark.NewSTObject(stark.NewEnvelope(20, 20, 80, 80).ToPolygon())

	layouts := []struct {
		name string
		base *stark.Dataset[ride]
	}{
		{"plain", stark.Parallelize(ctx, tuples, 5)},
		{"grid", stark.Parallelize(ctx, tuples, 5).PartitionBy(stark.Grid(4))},
		{"grid_hilbert", stark.Parallelize(ctx, tuples, 5).PartitionBy(stark.Grid(4).HilbertOrdered())},
		{"bsp", stark.Parallelize(ctx, tuples, 5).PartitionBy(stark.BSP(100))},
		{"live", stark.Parallelize(ctx, tuples, 5).Index(stark.Live(8))},
	}
	totalMatched := 0
	for _, layout := range layouts {
		for _, tc := range attrCases() {
			for _, spatial := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/spatial=%v", layout.name, tc.name, spatial)
				typed := layout.base.WithSchema(schema)
				opaque := layout.base
				if spatial {
					typed = typed.Intersects(window)
					opaque = opaque.Intersects(window)
				}
				typed = tc.typed(typed)
				opaque = tc.opaque(opaque)
				want := collectRideIDs(t, opaque)
				got := collectRideIDs(t, typed)
				if len(got) != len(want) {
					t.Errorf("%s: typed %d rows, opaque %d rows", name, len(got), len(want))
					continue
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s: results diverge at %d: %d != %d", name, i, got[i], want[i])
						break
					}
				}
				totalMatched += len(got)
			}
		}
	}
	if totalMatched == 0 {
		t.Error("attr differential suite never matched a single row — cases are degenerate")
	}
}

// TestAttrFilterNeedsSchema: attribute filters without a registered
// schema, or naming an unknown field, fail with a diagnosable error.
func TestAttrFilterNeedsSchema(t *testing.T) {
	ctx := stark.NewContext(2)
	base := stark.Parallelize(ctx, rideTuples(rand.New(rand.NewSource(1)), 50), 2)
	if _, err := base.FilterEq("fare", 10.0).Collect(); err == nil ||
		!strings.Contains(err.Error(), "schema") {
		t.Errorf("missing schema: err = %v, want schema error", err)
	}
	if _, err := base.WithSchema(rideSchema()).FilterEq("tip", 1.0).Collect(); err == nil ||
		!strings.Contains(err.Error(), "tip") {
		t.Errorf("unknown field: err = %v, want error naming the field", err)
	}
	// A type mismatch that cannot coerce losslessly is refused.
	if _, err := base.WithSchema(rideSchema()).FilterEq("city", 3).Collect(); err == nil {
		t.Error("int literal against string field accepted")
	}
}

// TestAttrFingerprint: mixed spatial+attribute chains fingerprint —
// identically for identical chains, canonically for reordered IN
// sets — while opaque closures still refuse with the position of the
// offending operator.
func TestAttrFingerprint(t *testing.T) {
	ctx := stark.NewContext(2)
	base := stark.Parallelize(ctx, rideTuples(rand.New(rand.NewSource(3)), 200), 4)
	schema := rideSchema()
	window := stark.NewSTObject(stark.NewEnvelope(10, 10, 90, 90).ToPolygon())

	chain := func() *stark.Dataset[ride] {
		return base.WithSchema(schema).Intersects(window).FilterRange("fare", 5.0, 50.0)
	}
	a, err := chain().Fingerprint()
	if err != nil {
		t.Fatalf("mixed spatial+attr chain refused to fingerprint: %v", err)
	}
	b, err := chain().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("identical mixed chains fingerprint differently: %s vs %s", a, b)
	}
	c, err := base.WithSchema(schema).Intersects(window).FilterRange("fare", 5.0, 60.0).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different attr bounds share a fingerprint")
	}

	// IN sets canonicalize: value order must not matter.
	in1, err := base.WithSchema(schema).FilterIn("city", "osaka", "lima", "berlin").Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	in2, err := base.WithSchema(schema).FilterIn("city", "berlin", "osaka", "lima", "osaka").Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if in1 != in2 {
		t.Errorf("reordered IN sets fingerprint differently: %s vs %s", in1, in2)
	}

	// Opaque closures still refuse, and the error names the operator
	// and its position in the chain.
	_, err = base.WithSchema(schema).Intersects(window).
		FilterValues(func(r ride) bool { return r.Fare > 1 }).
		FilterEq("city", "lima").Fingerprint()
	if err == nil {
		t.Fatal("opaque closure in an attr chain fingerprinted without error")
	}
	if !strings.Contains(err.Error(), "operator") || !strings.Contains(err.Error(), "of") {
		t.Errorf("opaque refusal does not locate the operator: %v", err)
	}
}

// TestAttrExplainShowsAccessPath: EXPLAIN renders AttrScan/AttrIndex
// nodes with estimated selectivities and, after execution, actual
// tested/passed counters.
func TestAttrExplainShowsAccessPath(t *testing.T) {
	ctx := stark.NewContext(4)
	tuples := rideTuples(rand.New(rand.NewSource(5)), 600)
	schema := rideSchema()
	window := stark.NewSTObject(stark.NewEnvelope(10, 10, 90, 90).ToPolygon())

	chain := stark.Parallelize(ctx, tuples, 4).PartitionBy(stark.Grid(3)).
		WithSchema(schema).Intersects(window).FilterEq("city", "quito")
	out, err := chain.Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"AttrScan[", // access path node for the typed predicate
		"city=",     // canonical predicate text
		"est_sel=",  // estimated selectivity from collected stats
		"actual:",   // executed: actual counters attached
		"tested=",
		"passed=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, out)
		}
	}

	// A pure attribute query (no spatial predicate) also explains,
	// with the attribute access path as the filter's strategy.
	pure, err := stark.Parallelize(ctx, tuples, 4).WithSchema(schema).
		FilterRange("fare", 90.0, 100.0).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pure, "Attr") {
		t.Errorf("pure attr EXPLAIN has no attribute access path:\n%s", pure)
	}
}

// TestAttrLiveIngestQueryHammer mixes live mutations with concurrent
// typed attribute queries over pinned snapshots; run with -race this
// exercises the generation-tagged postings under churn, and every
// query's result must exactly match a sequential filter of the
// snapshot it pinned.
func TestAttrLiveIngestQueryHammer(t *testing.T) {
	ctx := stark.NewContext(4)
	md := stark.NewMutableDataset[ride](ctx, "rides", liveGridFor(t), 8)
	schema := rideSchema()
	md.SetAttrFields(schema)

	rng := rand.New(rand.NewSource(9))
	seed := rideTuples(rng, 400)
	var batch []stark.LiveRecord[ride]
	for _, tu := range seed {
		batch = append(batch, stark.LiveRecord[ride]{ID: int64(tu.Value.ID), Key: tu.Key, Value: tu.Value})
	}
	if _, err := md.Insert(batch...); err != nil {
		t.Fatal(err)
	}

	const writers, readers, rounds = 2, 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < rounds; i++ {
				id := int64(1000 + w*rounds + i)
				r := ride{ID: int(id), Fare: wrng.Float64() * 100, City: rideCities[wrng.Intn(len(rideCities))], Stops: wrng.Int63n(6)}
				key := stark.NewSTObject(stark.NewPoint(wrng.Float64()*100, wrng.Float64()*100))
				if _, err := md.Upsert(stark.LiveRecord[ride]{ID: id, Key: key, Value: r}); err != nil {
					errs <- err
					return
				}
				if i%3 == 2 {
					if _, err := md.Delete(id); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				snap := md.Snapshot().WithSchema(schema)
				var typed, opaque *stark.Dataset[ride]
				if (r+i)%2 == 0 {
					typed = snap.FilterRange("fare", 25.0, 75.0)
					opaque = snap.FilterValues(func(v ride) bool { return v.Fare >= 25 && v.Fare <= 75 })
				} else {
					typed = snap.FilterEq("city", "lima")
					opaque = snap.FilterValues(func(v ride) bool { return v.City == "lima" })
				}
				got, err := typed.Collect()
				if err != nil {
					errs <- err
					return
				}
				want, err := opaque.Collect()
				if err != nil {
					errs <- err
					return
				}
				if len(got) != len(want) {
					errs <- fmt.Errorf("reader %d round %d: typed %d rows, opaque %d rows", r, i, len(got), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// liveGridFor builds a concrete grid partitioner covering [0,100)².
func liveGridFor(t testing.TB) stark.SpatialPartitioner {
	t.Helper()
	corners := []stark.Tuple[int]{
		stark.NewTuple(stark.NewSTObject(stark.NewPoint(0, 0)), 0),
		stark.NewTuple(stark.NewSTObject(stark.NewPoint(100, 100)), 1),
	}
	ctx := stark.NewContext(1)
	sp, err := stark.Parallelize(ctx, corners).PartitionBy(stark.Grid(3)).Partitioner()
	if err != nil {
		t.Fatal(err)
	}
	if sp == nil {
		t.Fatal("grid partitioner resolved to nil")
	}
	return sp
}

// TestAttrNaNPlannedEqualsNaive: a float field holding NaN counts the
// same on every access path. Compare places NaN below every number, so
// a NaN row satisfies f < 50 and nothing else here: the inline scan
// (Matches), the static postings probe, the postings AND kernel
// intersection and the live postings probe must all agree with that
// reading, and each path must be the one the plan names. The
// intersection runs under a window covering about a tenth of the rows,
// where the planner prefers it to the probe for every range.
func TestAttrNaNPlannedEqualsNaive(t *testing.T) {
	type rec struct {
		ID int
		F  float64
	}
	const n = 4000
	recs := make([]stark.LiveRecord[rec], n)
	tuples := make([]stark.Tuple[rec], n)
	for i := range recs {
		r := rec{ID: i, F: float64(i % 100)}
		if i%7 == 0 {
			r.F = math.NaN()
		}
		key := stark.NewSTObject(stark.NewPoint(float64(i%97), float64(i%89)))
		recs[i] = stark.LiveRecord[rec]{ID: int64(i), Key: key, Value: r}
		tuples[i] = stark.NewTuple(key, r)
	}
	schema := stark.NewAttrSchema[rec]().Float64("f", func(r rec) float64 { return r.F })
	ctx := stark.NewContext(2)
	base := stark.Parallelize(ctx, tuples, 4).PartitionBy(stark.Grid(2))
	window := stark.NewSTObject(stark.NewEnvelope(10, 10, 40, 40).ToPolygon())
	inWindow := func(tu stark.Tuple[rec]) bool {
		c := tu.Key.Centroid()
		return c.X >= 10 && c.X <= 40 && c.Y >= 10 && c.Y <= 40
	}
	md := stark.NewMutableDataset[rec](ctx, "nan", liveGridFor(t), 8)
	md.SetAttrFields(schema)
	if _, err := md.Insert(recs...); err != nil {
		t.Fatal(err)
	}

	const probe, intersect = "attr=index postings probe", "attr=postings AND kernel survivors"
	for _, c := range []struct {
		op   string
		want func(float64) bool
	}{
		{"eq", func(f float64) bool { return f == 50 }},
		{"gt", func(f float64) bool { return f > 50 }},
		{"lt", func(f float64) bool { return f < 50 || math.IsNaN(f) }},
	} {
		var all, windowed int64
		for _, tu := range tuples {
			if c.want(tu.Value.F) {
				all++
				if inWindow(tu) {
					windowed++
				}
			}
		}
		windowPlan := intersect
		if c.op == "eq" {
			windowPlan = probe // a point lookup: the planner prefers the probe
		}
		paths := []struct {
			name, plan string
			chain      *stark.Dataset[rec]
			want       int64
		}{
			{"inline", "", base.WithSchema(schema).Optimize(false).FilterOp("f", c.op, 50), all},
			{"postings", probe, base.WithSchema(schema).AttrIndex("f").FilterOp("f", c.op, 50), all},
			{"live", probe, md.Snapshot().WithSchema(schema).FilterOp("f", c.op, 50), all},
			{"intersect", windowPlan, base.Columnar().WithSchema(schema).AttrIndex("f").Intersects(window).FilterOp("f", c.op, 50), windowed},
		}
		for _, path := range paths {
			got, err := path.chain.Count()
			if err != nil {
				t.Fatal(err)
			}
			if got != path.want {
				t.Errorf("f %s 50, %s: %d rows, want %d", c.op, path.name, got, path.want)
			}
			if path.plan == "" {
				continue
			}
			if out, err := path.chain.Explain(); err != nil || !strings.Contains(out, path.plan) {
				t.Errorf("f %s 50, %s: plan does not say %q (%v):\n%s", c.op, path.name, path.plan, err, out)
			}
		}
	}
}
