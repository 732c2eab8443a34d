package stobject

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"stark/internal/geom"
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

func timedPoint(x, y float64, t Instant) STObject {
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
	if !ok || iv.Start != iv.End || iv.Start != 100 {
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
		timed := timedPoint(x1, y1, Instant(rng.Int63n(1000)))
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
		g, _ = geom.NewPolygonFromPoints([]geom.Point{{X: x, Y: y}, {X: x + w, Y: y}, {X: x + w, Y: y + h}, {X: x, Y: y + h}})
	}
	if rng.Intn(2) == 0 {
		return New(g)
	}
	start := Instant(rng.Int63n(100))
	return NewWithInterval(g, MustInterval(start, start+Instant(rng.Int63n(50))))
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
		func(g geom.Geometry) STObject { return NewWithInterval(g, MustInterval(0, 10)) },
		func(g geom.Geometry) STObject { return NewWithInterval(g, MustInterval(5, 5)) },
		func(g geom.Geometry) STObject { return NewWithInterval(g, MustInterval(20, 30)) },
	}
	preds := map[string]Predicate{
		"intersects": Intersects, "contains": Contains, "containedby": ContainedBy,
		"covers": STObject.Covers, "coveredby": CoveredBy,
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
		NewWithInterval(mustFromWKT("POLYGON ((0 0, 4 0, 2 4, 0 0))").Geo(), MustInterval(0, 10)),
		NewWithInterval(mustFromWKT("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))").Geo(), MustInterval(0, 10)),
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

// at is the degenerate interval [t, t].
func at(t Instant) Interval { return Interval{Start: t, End: t} }

func TestNewInterval(t *testing.T) {
	if _, err := NewInterval(5, 3); err == nil {
		t.Error("expected error for inverted interval")
	}
	iv, err := NewInterval(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Start != 3 || iv.End != 5 || iv.Start == iv.End {
		t.Errorf("NewInterval(3, 5) = %v", iv)
	}
}

func TestInstantInterval(t *testing.T) {
	iv := at(7)
	if iv.Start != iv.End {
		t.Error("an instant must be degenerate")
	}
	if !iv.contains(at(7)) || iv.contains(at(8)) {
		t.Error("instant containment wrong")
	}
	if iv.String() != "@7" {
		t.Errorf("String = %q", iv.String())
	}
	if MustInterval(1, 2).String() != "[1, 2]" {
		t.Errorf("String = %q", MustInterval(1, 2).String())
	}
}

func TestIntersects(t *testing.T) {
	cases := []struct {
		a, b Interval
		want bool
	}{
		{MustInterval(0, 10), MustInterval(5, 15), true},
		{MustInterval(0, 10), MustInterval(10, 20), true}, // closed endpoint contact
		{MustInterval(0, 10), MustInterval(11, 20), false},
		{at(5), MustInterval(0, 10), true},
		{at(5), at(5), true},
		{at(5), at(6), false},
		{MustInterval(0, 100), MustInterval(40, 60), true},
	}
	for i, c := range cases {
		if got := c.a.intersects(c.b); got != c.want {
			t.Errorf("case %d: %v ∩ %v = %v, want %v", i, c.a, c.b, got, c.want)
		}
		if got := c.b.intersects(c.a); got != c.want {
			t.Errorf("case %d swapped: got %v", i, got)
		}
	}
}

func TestContains(t *testing.T) {
	outer := MustInterval(0, 100)
	if !outer.contains(MustInterval(10, 20)) {
		t.Error("nested containment failed")
	}
	if !outer.contains(outer) {
		t.Error("self containment failed")
	}
	if outer.contains(MustInterval(50, 150)) {
		t.Error("overhang must not be contained")
	}
	if !outer.contains(at(0)) || !outer.contains(at(100)) {
		t.Error("endpoints must be contained (closed interval)")
	}
}

func normPair(x, y int32) Interval {
	a, b := int64(x), int64(y)
	if a > b {
		a, b = b, a
	}
	return Interval{Start: Instant(a), End: Instant(b)}
}

func TestPropIntersectsSymmetric(t *testing.T) {
	f := func(x1, y1, x2, y2 int32) bool {
		a, b := normPair(x1, y1), normPair(x2, y2)
		return a.intersects(b) == b.intersects(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropIntervalContainsImpliesIntersects(t *testing.T) {
	f := func(x1, y1, x2, y2 int32) bool {
		a, b := normPair(x1, y1), normPair(x2, y2)
		return !a.contains(b) || a.intersects(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// smallPair draws an interval with endpoints in [-7, 7], so that equal
// endpoints, and with them every Allen relation, occur.
func smallPair(x, y int8) Interval { return normPair(int32(x%8), int32(y%8)) }

// TestPropIntersectsIsUnionOfAllenRelations: two intervals intersect
// unless one lies wholly before the other — Allen's before and after.
func TestPropIntersectsIsUnionOfAllenRelations(t *testing.T) {
	f := func(x1, y1, x2, y2 int8) bool {
		a, b := smallPair(x1, y1), smallPair(x2, y2)
		before, after := a.End < b.Start, b.End < a.Start
		return a.intersects(b) == !(before || after)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropContainsIsUnionOfAllenRelations: a contains b exactly when
// Allen's relation of a to b is contains, started-by, finished-by or
// equal.
func TestPropContainsIsUnionOfAllenRelations(t *testing.T) {
	f := func(x1, y1, x2, y2 int8) bool {
		a, b := smallPair(x1, y1), smallPair(x2, y2)
		contains := a.Start < b.Start && b.End < a.End
		startedBy := a.Start == b.Start && b.End < a.End
		finishedBy := a.Start < b.Start && a.End == b.End
		return a.contains(b) == (contains || startedBy || finishedBy || a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFromWKTPointKeysMatchParseWKT: a POINT read by FromWKTWithTime
// (geom.ParsePoint into NewPointAt, no box) gives the key ParseWKT and
// NewWithTime give, bit for bit, for every spelling the parser accepts,
// and the same error for every malformed one.
func TestFromWKTPointKeysMatchParseWKT(t *testing.T) {
	for _, wkt := range []string{
		"POINT (1 2)", "point (1 2)", "Point(3.10 4.0)", "POINT(1 2)",
		"  POINT  (  1e-7   -2.5e300 )  ", "POINT\t(\n-0 0\r)",
		"POINT EMPTY", "point empty", "POINT EMPTY (1 2)",
		"POINT (1)", "POINT (1 2", "POINT (1 2) 3", "POINT", "POINTS (1 2)", "POINT (1e400 0)",
		"LINESTRING (0 0, 1 1)", "", "MULTIPOINT ((1 2))", "LINESTRING EMPTY", "LINESTRING EMPTY junk",
	} {
		got, err := FromWKTWithTime(wkt, 7)
		g, wantErr := geom.ParseWKT(wkt)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%q: error %v, ParseWKT %v", wkt, err, wantErr)
			continue
		}
		if err != nil {
			continue
		}
		want := NewWithTime(g, 7)
		if math.Float64bits(got.x) != math.Float64bits(want.x) || math.Float64bits(got.y) != math.Float64bits(want.y) ||
			got.flags != want.flags || got.time != want.time || (got.geo == nil) != (want.geo == nil) {
			t.Errorf("%q: key %#v, ParseWKT + NewWithTime %#v", wkt, got, want)
		}
	}
	for _, wkt := range []string{"POINT EMPTY (1 2)", "LINESTRING EMPTY junk"} {
		if _, err := FromWKTWithTime(wkt, 7); err == nil || !strings.Contains(err.Error(), "trailing input") {
			t.Errorf("%q: error %v, want trailing input", wkt, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = FromWKTWithTime("POINT (3.10 4.0)", 7) }); n != 0 {
		t.Errorf("FromWKTWithTime of a point allocates %v times", n)
	}
}
