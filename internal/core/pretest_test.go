package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"stark/internal/engine"
	"stark/internal/geom"
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
		{"withinDistance/manhattan", stobject.WithinDistancePredicate(6, geom.Manhattan), 6},
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
// Envelope().Intersects for every key shape, the empty ones included.
func TestEnvelopeIntersectsMatchesEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	envs := []geom.Envelope{
		geom.NewEnvelope(20, 20, 60, 60), geom.NewEnvelope(0, 0, 100, 100),
		geom.NewEnvelope(50, 50, 50, 50), geom.EmptyEnvelope(),
	}
	for _, kv := range pretestKeys(rng, 4000, false) {
		for _, env := range envs {
			if got, want := kv.Key.EnvelopeIntersects(env), kv.Key.Envelope().Intersects(env); got != want {
				t.Fatalf("%v against %v: EnvelopeIntersects %v, Envelope().Intersects %v", kv.Key, env, got, want)
			}
		}
	}
}
