package stark_test

// The columnar differential battery: the batched-kernel scan is pure
// optimisation, so a chain executed through the columnar sidecar must
// return exactly the rows of the naive row scan — element for element,
// over randomized datasets (timed and untimed records, points and
// extended geometries) × every predicate kind (including opaque custom
// metrics and closures) × plain/Grid/BSP/live-snapshot layouts. Plus
// the allocation gate: the kernel path must not allocate per element.

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"stark"
)

// colTuples generates records in [0,1000)²: mostly points, some small
// rectangles (so Contains can match), ~70% carrying a time interval.
func colTuples(rng *rand.Rand, n int) []stark.Tuple[int] {
	tuples := make([]stark.Tuple[int], n)
	for i := range tuples {
		x, y := rng.Float64()*990, rng.Float64()*990
		var g stark.Geometry = stark.NewPoint(x, y)
		if rng.Intn(10) < 3 {
			w, h := 1+rng.Float64()*8, 1+rng.Float64()*8
			poly, err := stark.ParseWKT(fmt.Sprintf("POLYGON ((%f %f, %f %f, %f %f, %f %f, %f %f))",
				x, y, x+w, y, x+w, y+h, x, y+h, x, y))
			if err != nil {
				panic(err)
			}
			g = poly
		}
		if rng.Intn(10) < 7 {
			begin := rng.Int63n(900)
			iv, err := stark.NewInterval(stark.Instant(begin), stark.Instant(begin+1+rng.Int63n(99)))
			if err != nil {
				panic(err)
			}
			tuples[i] = stark.NewTuple(stark.NewSTObjectWithInterval(g, iv), i)
		} else {
			tuples[i] = stark.NewTuple(stark.NewSTObject(g), i)
		}
	}
	return tuples
}

// colPred draws one randomized predicate covering every kernel path:
// the four built-in kinds, an opaque distance metric, and an opaque
// custom closure. Queries are timed ~2/3 of the time so both sides of
// the combined temporal semantics (timed query vs untimed query over
// mixed records) are exercised.
func colPred(t *testing.T, rng *rand.Rand, tuples []stark.Tuple[int]) diffPred {
	t.Helper()
	w := 40 + rng.Float64()*300
	h := 40 + rng.Float64()*300
	x := rng.Float64() * (1000 - w)
	y := rng.Float64() * (1000 - h)
	window := func(g stark.Geometry) stark.STObject {
		if rng.Intn(3) == 0 {
			return stark.NewSTObject(g)
		}
		begin := rng.Int63n(700)
		iv, err := stark.NewInterval(stark.Instant(begin), stark.Instant(begin+100+rng.Int63n(300)))
		if err != nil {
			t.Fatal(err)
		}
		return stark.NewSTObjectWithInterval(g, iv)
	}
	poly, err := stark.ParseWKT(fmt.Sprintf("POLYGON ((%f %f, %f %f, %f %f, %f %f, %f %f))",
		x, y, x+w, y, x+w, y+h, x, y+h, x, y))
	if err != nil {
		t.Fatal(err)
	}
	box := window(poly)
	pt := window(stark.NewPoint(x+w/2, y+h/2))
	switch rng.Intn(6) {
	case 0:
		return diffPred{"intersects", func(d *stark.Dataset[int]) *stark.Dataset[int] { return d.Intersects(box) }}
	case 1:
		// Records contain a point query. A uniformly random point almost
		// never lands inside the small record rectangles, which would
		// leave the oracle vacuous — so aim the query at an actual
		// extended record (point at its centroid; when timed, the
		// record's own interval, which TimeContains accepts exactly).
		cq := pt
		for _, off := range rng.Perm(len(tuples)) {
			k := tuples[off].Key
			env := k.Envelope()
			if env.MaxX <= env.MinX {
				continue
			}
			c := env.Center()
			iv, timed := k.Time()
			if rng.Intn(2) == 0 {
				cq = stark.NewSTObject(stark.NewPoint(c.X, c.Y))
			} else if timed {
				cq = stark.NewSTObjectWithInterval(stark.NewPoint(c.X, c.Y), iv)
			} else {
				continue
			}
			break
		}
		return diffPred{"contains", func(d *stark.Dataset[int]) *stark.Dataset[int] { return d.Contains(cq) }}
	case 2:
		return diffPred{"containedby", func(d *stark.Dataset[int]) *stark.Dataset[int] { return d.ContainedBy(box) }}
	case 3:
		return diffPred{"coveredby", func(d *stark.Dataset[int]) *stark.Dataset[int] { return d.CoveredBy(box) }}
	case 4:
		dist := 20 + rng.Float64()*120
		if rng.Intn(2) == 0 {
			return diffPred{"withindistance", func(d *stark.Dataset[int]) *stark.Dataset[int] {
				return d.WithinDistance(pt, dist, nil)
			}}
		}
		// Opaque metric (1.5× Euclidean): the kernel must fall back to
		// the pruning-envelope sweep, never the envelope-gap bound.
		df := func(a, b stark.Point) float64 {
			dx, dy := a.X-b.X, a.Y-b.Y
			return 1.5 * (dx*dx + dy*dy)
		}
		d2 := dist * dist
		return diffPred{"withindistance-custom", func(d *stark.Dataset[int]) *stark.Dataset[int] {
			return d.WithinDistance(pt, 1.5*d2, df)
		}}
	default:
		// Opaque closure via Where: exact Intersects with the contract
		// prune envelope.
		return diffPred{"where-custom", func(d *stark.Dataset[int]) *stark.Dataset[int] {
			return d.Where(box, stark.Intersects, 0)
		}}
	}
}

func TestDifferentialColumnarVsRowScan(t *testing.T) {
	matched := map[string]int{}
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(100 + seed))
			ctx := stark.NewContext(4)
			tuples := colTuples(rng, 700)

			// Live-snapshot layout: the records ingested into a mutable
			// dataset, queried through a pinned snapshot.
			sp, err := stark.Grid(3).Build([]stark.STObject{
				stark.NewSTObject(stark.NewPoint(0, 0)),
				stark.NewSTObject(stark.NewPoint(1000, 1000)),
			})
			if err != nil {
				t.Fatal(err)
			}
			md := stark.NewMutableDataset[int](ctx, fmt.Sprintf("col-live-%d", seed), sp, 8)
			recs := make([]stark.LiveRecord[int], len(tuples))
			for i, kv := range tuples {
				recs[i] = stark.LiveRecord[int]{ID: int64(i), Key: kv.Key, Value: kv.Value}
			}
			if _, err := md.Insert(recs...); err != nil {
				t.Fatal(err)
			}

			layouts := []struct {
				name string
				base *stark.Dataset[int]
			}{
				{"plain", stark.Parallelize(ctx, tuples, 5)},
				{"grid", stark.Parallelize(ctx, tuples, 5).PartitionBy(stark.Grid(4))},
				{"grid-hilbert", stark.Parallelize(ctx, tuples, 5).PartitionBy(stark.Grid(4).HilbertOrdered())},
				{"bsp", stark.Parallelize(ctx, tuples, 5).PartitionBy(stark.BSP(200))},
				{"live-snapshot", md.Snapshot()},
			}
			for trial := 0; trial < 4; trial++ {
				nPreds := 1 + rng.Intn(2)
				preds := make([]diffPred, nPreds)
				names := ""
				for i := range preds {
					preds[i] = colPred(t, rng, tuples)
					names += preds[i].name + " "
				}
				for _, layout := range layouts {
					columnar := layout.base.Columnar()
					row := layout.base.Optimize(false)
					for _, p := range preds {
						columnar = p.apply(columnar)
						row = p.apply(row)
					}
					want := collectIDs(t, row)
					got := collectIDs(t, columnar)
					if !equalIDs(got, want) {
						t.Errorf("layout=%s preds=[%s]: columnar %d rows, row scan %d rows — results diverge",
							layout.name, names, len(got), len(want))
					}
					for _, p := range preds {
						matched[p.name] += len(got)
					}
				}
			}
		})
	}
	// The oracle is vacuous for any kernel whose queries never match.
	for _, op := range []string{"intersects", "contains", "containedby", "withindistance"} {
		if matched[op] == 0 {
			t.Errorf("differential suite never matched a row for %s — queries are degenerate", op)
		}
	}
}

// TestColumnarExplain pins the acceptance shape: on clustered,
// unindexed data with the sidecar built, EXPLAIN must show the
// ColumnarScan access path with actual kernel_survivors strictly below
// elements_scanned (the coarse kernels did real filtering work).
func TestColumnarExplain(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var tuples []stark.Tuple[int]
	for c := 0; c < 8; c++ {
		cx, cy := rng.Float64()*900+50, rng.Float64()*900+50
		for i := 0; i < 500; i++ {
			x, y := cx+rng.NormFloat64()*10, cy+rng.NormFloat64()*10
			tuples = append(tuples, stark.NewTuple(stark.NewSTObject(stark.NewPoint(x, y)), len(tuples)))
		}
	}
	first := tuples[0].Key.Centroid()
	ctx := stark.NewContext(4)
	q, err := stark.ParseWKT(fmt.Sprintf("POLYGON ((%f %f, %f %f, %f %f, %f %f, %f %f))",
		first.X-25, first.Y-25, first.X+25, first.Y-25, first.X+25, first.Y+25, first.X-25, first.Y+25, first.X-25, first.Y-25))
	if err != nil {
		t.Fatal(err)
	}
	d := stark.Parallelize(ctx, tuples, 4).Columnar().Intersects(stark.NewSTObject(q))
	out, err := d.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ColumnarScan") {
		t.Fatalf("EXPLAIN lacks ColumnarScan node:\n%s", out)
	}
	if !strings.Contains(out, "access=columnar kernels") {
		t.Fatalf("EXPLAIN lacks columnar access prop:\n%s", out)
	}
	m := regexp.MustCompile(`elements_scanned=(\d+) kernel_batches=(\d+) kernel_survivors=(\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("EXPLAIN lacks kernel actuals:\n%s", out)
	}
	scanned, _ := strconv.Atoi(m[1])
	batches, _ := strconv.Atoi(m[2])
	survivors, _ := strconv.Atoi(m[3])
	if scanned == 0 || batches == 0 {
		t.Fatalf("kernel actuals empty (scanned=%d batches=%d):\n%s", scanned, batches, out)
	}
	if survivors >= scanned {
		t.Fatalf("kernel_survivors=%d not below elements_scanned=%d:\n%s", survivors, scanned, out)
	}
	// The query window covers one cluster of ~500; survivors must be in
	// that ballpark, not the full 4000.
	if survivors > 1500 {
		t.Fatalf("kernels barely filtered: %d survivors of %d", survivors, scanned)
	}
}

// TestColumnarQueryAllocs is the allocation gate: a steady-state
// columnar query (kernel sweep + refinement + count) must not allocate
// per element — only a small per-partition constant for the stream
// plumbing.
func TestColumnarQueryAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tuples := colTuples(rng, 20000)
	ctx := stark.NewContext(2)
	q, err := stark.ParseWKT("POLYGON ((100 100, 400 100, 400 400, 100 400, 100 100))")
	if err != nil {
		t.Fatal(err)
	}
	d := stark.Parallelize(ctx, tuples, 4).Columnar().Intersects(stark.NewSTObject(q))
	want, err := d.Count()
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Fatal("degenerate query matches nothing")
	}
	allocs := testing.AllocsPerRun(10, func() {
		n, err := d.Count()
		if err != nil || n != want {
			t.Fatalf("count=%d err=%v", n, err)
		}
	})
	// 20k elements through 4 partitions: a per-element path would cost
	// tens of thousands of allocations; the stream plumbing costs a few
	// dozen per partition.
	if allocs > 1000 {
		t.Fatalf("columnar count allocates %.0f per run over 20k rows — per-element allocation suspected", allocs)
	}
}
