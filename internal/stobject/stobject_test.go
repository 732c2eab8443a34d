package stobject

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"stark/internal/geom"
	"stark/internal/temporal"
)

func pointAt(x, y float64) STObject { return New(geom.NewPoint(x, y)) }

// mustFromWKT parses a WKT literal, panicking on error.
func mustFromWKT(wkt string) STObject {
	o, err := FromWKT(wkt)
	if err != nil {
		panic(err)
	}
	return o
}

func timedPoint(x, y float64, t temporal.Instant) STObject {
	return NewWithTime(geom.NewPoint(x, y), t)
}

func TestConstructors(t *testing.T) {
	o, err := FromWKT("POINT (1 2)")
	if err != nil {
		t.Fatal(err)
	}
	if o.HasTime() {
		t.Error("spatial-only object must not carry time")
	}
	o2, err := FromWKTWithTime("POINT (1 2)", 100)
	if err != nil {
		t.Fatal(err)
	}
	iv, ok := o2.Time()
	if !ok || !iv.IsInstant() || iv.Start != 100 {
		t.Errorf("time = %v ok=%v", iv, ok)
	}
	o3, err := FromWKTWithInterval("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))", 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ = o3.Time()
	if iv.Start != 10 || iv.End != 20 {
		t.Errorf("interval = %v", iv)
	}
	if _, err := FromWKT("JUNK"); err == nil {
		t.Error("expected WKT error")
	}
	if _, err := FromWKTWithTime("JUNK", 0); err == nil {
		t.Error("expected WKT error")
	}
	if _, err := FromWKTWithInterval("POINT (0 0)", 20, 10); err == nil {
		t.Error("expected interval error")
	}
}

func TestCombinedSemanticsBothUntimed(t *testing.T) {
	// (2): both temporal components undefined → spatial only.
	a := pointAt(1, 1)
	poly := mustFromWKT("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))")
	if !a.Intersects(poly) {
		t.Error("untimed spatial intersection must hold")
	}
	if !poly.Contains(a) {
		t.Error("untimed containment must hold")
	}
}

func TestCombinedSemanticsBothTimed(t *testing.T) {
	// (3): both defined → spatial AND temporal must hold.
	a := timedPoint(1, 1, 100)
	qIn, _ := FromWKTWithInterval("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))", 50, 150)
	qOut, _ := FromWKTWithInterval("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))", 500, 600)
	if !a.Intersects(qIn) {
		t.Error("spatially+temporally matching pair must intersect")
	}
	if a.Intersects(qOut) {
		t.Error("temporal miss must fail despite spatial hit")
	}
	if !qIn.Contains(a) {
		t.Error("containment with matching interval must hold")
	}
	if qOut.Contains(a) {
		t.Error("containment with temporal miss must fail")
	}
}

func TestCombinedSemanticsMixed(t *testing.T) {
	// Mixed pair: one timed, one untimed → predicate always false.
	timed := timedPoint(1, 1, 100)
	untimed := pointAt(1, 1)
	if timed.Intersects(untimed) {
		t.Error("mixed pair must not intersect")
	}
	if untimed.Intersects(timed) {
		t.Error("mixed pair must not intersect (reversed)")
	}
	poly := mustFromWKT("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))")
	if poly.Contains(timed) {
		t.Error("untimed polygon must not contain timed point")
	}
}

func TestContainedByReverse(t *testing.T) {
	p := pointAt(1, 1)
	poly := mustFromWKT("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))")
	if !p.ContainedBy(poly) {
		t.Error("point must be containedBy polygon")
	}
	if poly.ContainedBy(p) {
		t.Error("polygon must not be containedBy point")
	}
	// CoveredBy tolerates boundary contact.
	corner := pointAt(0, 0)
	if corner.ContainedBy(poly) {
		t.Error("corner is boundary-only, Contains must fail")
	}
	if !corner.CoveredBy(poly) {
		t.Error("corner must be coveredBy polygon")
	}
}

func TestWithinDistance(t *testing.T) {
	a := pointAt(0, 0)
	b := pointAt(3, 4)
	if !a.WithinDistance(b, 5, nil) {
		t.Error("distance-5 pair must match")
	}
	if a.WithinDistance(b, 4, nil) {
		t.Error("distance-5 pair must not match at 4")
	}
	// Custom distance function.
	if !a.WithinDistance(b, 7, manhattan) {
		t.Error("Manhattan 7 must match")
	}
	// Temporal dimension gates the result.
	ta := timedPoint(0, 0, 100)
	tb := timedPoint(3, 4, 100)
	tc := timedPoint(3, 4, 999)
	if !ta.WithinDistance(tb, 5, nil) {
		t.Error("co-temporal neighbours must match")
	}
	if ta.WithinDistance(tc, 5, nil) {
		t.Error("temporally distant neighbours must not match")
	}
}

func TestDistance(t *testing.T) {
	a := pointAt(0, 0)
	b := pointAt(3, 4)
	if d := a.Distance(b, nil); d != 5 {
		t.Errorf("distance = %v", d)
	}
	if d := a.Distance(b, manhattan); d != 7 {
		t.Errorf("manhattan = %v", d)
	}
}

func TestEmptyAndString(t *testing.T) {
	var zero STObject
	if !zero.IsEmpty() {
		t.Error("zero STObject must be empty")
	}
	if zero.Intersects(pointAt(0, 0)) {
		t.Error("empty object must not intersect")
	}
	if !zero.Envelope().IsEmpty() {
		t.Error("empty object envelope must be empty")
	}
	if got := zero.String(); got != "STObject(empty)" {
		t.Errorf("String = %q", got)
	}
	if got := pointAt(1, 2).String(); !strings.Contains(got, "POINT") {
		t.Errorf("String = %q", got)
	}
	timed := timedPoint(1, 2, 5)
	if got := timed.String(); !strings.Contains(got, "@5") {
		t.Errorf("String = %q", got)
	}
}

func TestPredicateValues(t *testing.T) {
	poly := mustFromWKT("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))")
	inner := pointAt(1, 1)
	if !Intersects(inner, poly) || !Contains(poly, inner) || !ContainedBy(inner, poly) {
		t.Error("canonical predicates disagree with methods")
	}
	if !poly.Covers(pointAt(0, 0)) || !CoveredBy(pointAt(0, 0), poly) {
		t.Error("covers predicates disagree")
	}
	wd := WithinDistancePredicate(5, nil)
	if !wd(pointAt(0, 0), pointAt(3, 4)) {
		t.Error("withinDistance predicate failed")
	}
}

func TestPropMixedPairsAlwaysFalse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		x1, y1 := rng.Float64()*10, rng.Float64()*10
		timed := timedPoint(x1, y1, temporal.Instant(rng.Int63n(1000)))
		untimed := pointAt(x1, y1) // same location: spatial predicate holds
		return !timed.Intersects(untimed) && !untimed.Intersects(timed) &&
			!timed.Contains(untimed) && !untimed.Contains(timed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropIntersectsSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func() bool {
		o := randomST(rng)
		p := randomST(rng)
		return o.Intersects(p) == p.Intersects(o)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropContainsImpliesIntersects(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	f := func() bool {
		o := randomST(rng)
		p := randomST(rng)
		return !o.Contains(p) || o.Intersects(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func randomST(rng *rand.Rand) STObject {
	x, y := rng.Float64()*4, rng.Float64()*4
	var g geom.Geometry
	if rng.Intn(2) == 0 {
		g = geom.NewPoint(x, y)
	} else {
		w, h := 0.5+rng.Float64(), 0.5+rng.Float64()
		g = geom.MustPolygon(
			geom.NewPoint(x, y), geom.NewPoint(x+w, y),
			geom.NewPoint(x+w, y+h), geom.NewPoint(x, y+h))
	}
	if rng.Intn(2) == 0 {
		return New(g)
	}
	start := temporal.Instant(rng.Int63n(100))
	return NewWithInterval(g, temporal.MustInterval(start, start+temporal.Instant(rng.Int63n(50))))
}

func TestTouchesAndOverlaps(t *testing.T) {
	a := mustFromWKT("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))")
	edge := mustFromWKT("POLYGON ((10 0, 20 0, 20 10, 10 10, 10 0))")
	partial := mustFromWKT("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))")
	if !a.Touches(edge) || a.Overlaps(edge) {
		t.Error("edge-sharing polygons: touches, not overlaps")
	}
	if a.Touches(partial) || !a.Overlaps(partial) {
		t.Error("partially overlapping polygons: overlaps, not touches")
	}
	// Temporal gating: co-located but temporally disjoint pairs fail.
	ta := NewWithInterval(a.Geo(), temporal.MustInterval(0, 10))
	tEdge := NewWithInterval(edge.Geo(), temporal.MustInterval(100, 110))
	if ta.Touches(tEdge) {
		t.Error("temporally disjoint pair must not touch")
	}
	tEdge2 := NewWithInterval(edge.Geo(), temporal.MustInterval(5, 15))
	if !ta.Touches(tEdge2) {
		t.Error("temporally overlapping pair must touch")
	}
}

// boxed is o with its point geometry behind the geom.Geometry interface,
// the layout every point key had before they were held inline: its
// predicates run the generic geom functions, the oracle for the
// point-first ones.
func boxed(o STObject) STObject {
	o.geo, o.flags, o.x, o.y = o.Geo(), o.flags&^isPoint, 0, 0
	return o
}

// TestPointKeyEquivalence holds every predicate on an inline point key to
// the same point boxed, in both argument orders, against every geometry
// kind, another point, a NaN point and the zero object, untimed, timed
// and mixed.
func TestPointKeyEquivalence(t *testing.T) {
	nan := math.NaN()
	var pts []geom.Point
	for _, c := range []float64{-1, 0, 0.5, 1, 2, 3, 4, 5} {
		for _, d := range []float64{0, 1, 2, 4} {
			pts = append(pts, geom.NewPoint(c, d))
		}
	}
	pts = append(pts, geom.NewPoint(nan, 1), geom.NewPoint(1, nan), geom.NewPoint(nan, nan))
	others := []geom.Geometry{nil}
	for _, w := range []string{
		"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
		"POLYGON ((0 0, 4 0, 2 4, 0 0))",
		"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 3 1, 3 3, 1 3, 1 1))",
		"POLYGON EMPTY",
		"LINESTRING (0 0, 2 2, 4 2)",
		"MULTIPOINT ((1 1), (2 2))",
		"MULTIPOINT ((2 2), (2 2))",
		"MULTIPOINT EMPTY",
	} {
		g, err := geom.ParseWKT(w)
		if err != nil {
			t.Fatal(w, err)
		}
		others = append(others, g)
	}
	for _, p := range pts {
		others = append(others, p)
	}
	times := []func(geom.Geometry) STObject{
		New,
		func(g geom.Geometry) STObject { return NewWithInterval(g, temporal.MustInterval(0, 10)) },
		func(g geom.Geometry) STObject { return NewWithInterval(g, temporal.MustInterval(5, 5)) },
		func(g geom.Geometry) STObject { return NewWithInterval(g, temporal.MustInterval(20, 30)) },
	}
	preds := map[string]Predicate{
		"intersects": Intersects, "contains": Contains, "containedby": ContainedBy,
		"covers": STObject.Covers, "coveredby": CoveredBy, "touches": STObject.Touches, "overlaps": STObject.Overlaps,
		"within0": WithinDistancePredicate(0, nil), "within1": WithinDistancePredicate(1, nil),
		"within2.5": WithinDistancePredicate(2.5, nil), "manhattan2": WithinDistancePredicate(2, manhattan),
	}
	same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	for _, p := range pts {
		for _, tp := range times {
			key := tp(p)
			if _, ok := key.Point(); !ok {
				t.Fatalf("%v is not held inline", p)
			}
			if key.IsEmpty() != boxed(key).IsEmpty() || key.Centroid() != boxed(key).Centroid() && !p.IsEmpty() {
				t.Errorf("%v: IsEmpty or Centroid differs from the boxed key", key)
			}
			for _, g := range others {
				for _, to := range times {
					other := to(g)
					if g == nil {
						other = STObject{}
					}
					// The other operand inline and boxed, against the key
					// inline and boxed, in both orders.
					for _, w := range []STObject{other, boxed(other)} {
						for name, pred := range preds {
							want := pred(boxed(key), boxed(w))
							if got := pred(key, w); got != want {
								t.Errorf("%s(%v, %v) = %v inline, %v boxed", name, key, w, got, want)
							}
							want = pred(boxed(w), boxed(key))
							if got := pred(w, key); got != want {
								t.Errorf("%s(%v, %v) = %v inline, %v boxed", name, w, key, got, want)
							}
						}
						for _, df := range []geom.DistanceFunc{nil, manhattan} {
							if got, want := key.Distance(w, df), boxed(key).Distance(boxed(w), df); !same(got, want) {
								t.Errorf("Distance(%v, %v) = %v inline, %v boxed", key, w, got, want)
							}
							if got, want := w.Distance(key, df), boxed(w).Distance(boxed(key), df); !same(got, want) {
								t.Errorf("Distance(%v, %v) = %v inline, %v boxed", w, key, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestPointKeyPredicatesAllocateNothing: refining a point key reads its
// coordinates in place, against a polygon window and against a point.
func TestPointKeyPredicatesAllocateNothing(t *testing.T) {
	key := timedPoint(1, 2, 5)
	for _, q := range []STObject{
		NewWithInterval(mustFromWKT("POLYGON ((0 0, 4 0, 2 4, 0 0))").Geo(), temporal.MustInterval(0, 10)),
		NewWithInterval(mustFromWKT("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))").Geo(), temporal.MustInterval(0, 10)),
		timedPoint(1, 2, 5),
	} {
		var hits int
		n := testing.AllocsPerRun(100, func() {
			for _, hit := range []bool{
				key.Intersects(q), q.Intersects(key), key.Contains(q), q.Contains(key),
				key.Covers(q), q.Covers(key), key.WithinDistance(q, 1, nil), q.WithinDistance(key, 1, nil),
				key.EnvelopeIntersects(q.Envelope()),
			} {
				if hit {
					hits++
				}
			}
		})
		if n != 0 {
			t.Errorf("predicates of a point key against %v allocate %v times, want 0", q, n)
		}
		if hits == 0 {
			t.Errorf("no predicate of %v against %v held", key, q)
		}
	}
}

// manhattan is the L1 distance, a distance function other than the
// default Euclidean one.
func manhattan(a, b geom.Point) float64 {
	return math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y)
}
