package core

// Differential property tests for the join engine: every physical
// strategy (pairs, broadcast, copartition — indexed and nested-loop)
// must return exactly the result of the brute-force nested loop,
// element for element, over randomized datasets in every layout
// combination (unpartitioned / Grid / BSP on either side) under
// Intersects, Contains and WithinDistance, and for the self join of
// each layout. Plus -race regression tests for the shared build slots.

import (
	"math/rand"
	"testing"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stobject"
)

// makeBoxDataset builds n random small boxes (axis-aligned
// rectangles), so Contains joins are non-degenerate.
func makeBoxDataset(t testing.TB, ctx *engine.Context, n, numPart int, seed int64) (*SpatialDataset[int], []Tuple[int]) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]Tuple[int], n)
	for i := range tuples {
		x, y := rng.Float64()*90, rng.Float64()*90
		w, h := 2+rng.Float64()*8, 2+rng.Float64()*8
		env := geom.Envelope{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
		tuples[i] = engine.NewPair(stobject.New(env.ToPolygon()), i)
	}
	return Wrap(engine.Parallelize(ctx, tuples, numPart)), tuples
}

// makeMixedDataset builds boxes random small boxes followed by points
// random points, payload = index: a Contains self join pairs a box with
// what lies inside it and never a point with a box.
func makeMixedDataset(t testing.TB, ctx *engine.Context, boxes, points, numPart int, seed int64) (*SpatialDataset[int], []Tuple[int]) {
	_, tuples := makeBoxDataset(t, ctx, boxes, numPart, seed)
	_, pts := makeDataset(t, ctx, points, numPart, seed+1)
	tuples = append(tuples, pts...)
	for i := range tuples {
		tuples[i].Value = i
	}
	return Wrap(engine.Parallelize(ctx, tuples, numPart)), tuples
}

// layoutName → a function re-partitioning a dataset into that layout.
var joinLayouts = []struct {
	name  string
	apply func(t *testing.T, s *SpatialDataset[int]) *SpatialDataset[int]
}{
	{"plain", func(t *testing.T, s *SpatialDataset[int]) *SpatialDataset[int] { return s }},
	{"grid", func(t *testing.T, s *SpatialDataset[int]) *SpatialDataset[int] {
		g, err := partition.NewGrid(3, keysOf(t, s))
		if err != nil {
			t.Fatal(err)
		}
		ps, err := s.PartitionBy(g)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}},
	{"bsp", func(t *testing.T, s *SpatialDataset[int]) *SpatialDataset[int] {
		b, err := partition.NewBSP(partition.BSPConfig{MaxCost: 60}, keysOf(t, s))
		if err != nil {
			t.Fatal(err)
		}
		ps, err := s.PartitionBy(b)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}},
}

func TestJoinStrategiesDifferential(t *testing.T) {
	ctx := engine.NewContext(4)
	preds := []struct {
		name   string
		pred   stobject.Predicate
		expand float64
		boxes  bool // left side uses boxes so the predicate can hold
	}{
		{"intersects", stobject.Intersects, 0, true},
		{"contains", stobject.Contains, 0, true},
		{"withindistance", stobject.WithinDistancePredicate(4, nil), 4, false},
	}
	strategies := []struct {
		name string
		opts JoinOptions
	}{
		{"pairs", JoinOptions{Strategy: JoinPairs, IndexOrder: -1}},
		{"broadcast", JoinOptions{Strategy: JoinBroadcast, IndexOrder: -1}},
		{"copartition", JoinOptions{Strategy: JoinCoPartition, IndexOrder: -1}},
		{"nestedloop", JoinOptions{Strategy: JoinPairs, IndexOrder: 0}},
		{"auto", JoinOptions{Strategy: JoinAuto, IndexOrder: -1}},
	}
	seed := int64(100)
	for _, pc := range preds {
		for _, ll := range joinLayouts {
			for _, rl := range joinLayouts {
				seed += 2
				name := pc.name + "/" + ll.name + "×" + rl.name
				t.Run(name, func(t *testing.T) {
					var l *SpatialDataset[int]
					var lt []Tuple[int]
					if pc.boxes {
						l, lt = makeBoxDataset(t, ctx, 220, 3, seed)
					} else {
						l, lt = makeDataset(t, ctx, 220, 3, seed)
					}
					r, rt := makeDataset(t, ctx, 150, 4, seed+1)
					l = ll.apply(t, l)
					r = rl.apply(t, r)
					want := bruteJoin(lt, rt, pc.pred)
					for _, sc := range strategies {
						opts := sc.opts
						opts.Predicate = pc.pred
						opts.ProbeExpansion = pc.expand
						var rep JoinReport
						opts.Report = &rep
						got, err := Join(l, r, opts)
						if err != nil {
							t.Fatalf("%s: %v", sc.name, err)
						}
						if !samePairs(joinedPairs(got), want) {
							t.Errorf("%s: got %d pairs, want %d", sc.name, len(got), len(want))
						}
						// A forced copartition with no partitioner on
						// either side must fall back to pairs, and with
						// one it must shuffle; a forced broadcast runs
						// fewer tasks than the pairs it does not
						// enumerate; any other forced strategy must run
						// as forced.
						switch {
						case sc.opts.Strategy == JoinCoPartition &&
							ll.name == "plain" && rl.name == "plain":
							if rep.Strategy != JoinPairs {
								t.Errorf("copartition fallback ran %v", rep.Strategy)
							}
						case sc.opts.Strategy == JoinCoPartition:
							if rep.Strategy != JoinCoPartition || rep.Shuffled == 0 {
								t.Errorf("copartition: ran %v, shuffled %d rows", rep.Strategy, rep.Shuffled)
							}
						case sc.opts.Strategy == JoinBroadcast:
							if rep.Strategy != JoinBroadcast || rep.Tasks >= rep.TotalPairs {
								t.Errorf("broadcast: ran %v with %d tasks, %d enumerable pairs", rep.Strategy, rep.Tasks, rep.TotalPairs)
							}
						case sc.opts.Strategy != JoinAuto:
							if rep.Strategy != sc.opts.Strategy {
								t.Errorf("%s: ran %v", sc.name, rep.Strategy)
							}
						default:
							if rep.Strategy == JoinAuto || rep.Decision == nil {
								t.Errorf("auto: strategy=%v decision=%v", rep.Strategy, rep.Decision)
							}
						}
					}
				})
			}
		}
	}

	// Self joins: both inputs are one dataset, so pairs (and a
	// copartition that falls back to it) enumerate the unordered pairs
	// of partitions and rows and test each pair of rows in both
	// orientations. Contains over boxes and points is the asymmetric
	// predicate.
	for _, pc := range preds {
		for _, lay := range joinLayouts {
			seed++
			t.Run("self/"+pc.name+"/"+lay.name, func(t *testing.T) {
				s, st := makeDataset(t, ctx, 300, 3, seed)
				if pc.boxes {
					s, st = makeMixedDataset(t, ctx, 100, 200, 3, seed)
				}
				s = lay.apply(t, s)
				want := bruteJoin(st, st, pc.pred)
				// The unordered pairs of rows (i ≤ j) that match, and those
				// whose envelopes meet, the first expanded.
				var unordered, candidates int64
				for i := range st {
					reach := st[i].Key.Envelope().ExpandBy(pc.expand)
					for j := i; j < len(st); j++ {
						if pc.pred(st[i].Key, st[j].Key) {
							unordered++
						}
						if reach.Intersects(st[j].Key.Envelope()) {
							candidates++
						}
					}
				}
				for _, sc := range strategies {
					opts := sc.opts
					opts.Predicate = pc.pred
					opts.ProbeExpansion = pc.expand
					var rep JoinReport
					opts.Report = &rep
					before := ctx.Recorder().Snapshot()
					got, err := Join(s, s, opts)
					if err != nil {
						t.Fatalf("%s: %v", sc.name, err)
					}
					if !samePairs(joinedPairs(got), want) {
						t.Errorf("%s: got %d pairs, want %d", sc.name, len(got), len(want))
					}
					if sc.name != "pairs" {
						continue
					}
					k := s.NumPartitions()
					if rep.TotalPairs != k*(k+1)/2 || rep.Tasks+rep.PairsPruned != rep.TotalPairs {
						t.Errorf("pairs: %d tasks + %d pruned of %d pairs of partitions, want %d of them", rep.Tasks, rep.PairsPruned, rep.TotalPairs, k*(k+1)/2)
					}
					if refined := ctx.Recorder().Snapshot().Sub(before)[engine.CandidatesRefined]; refined != candidates {
						t.Errorf("pairs: %d candidates refined, want each of the %d unordered ones once", refined, candidates)
					}
					if pc.name == "withindistance" && int64(len(got)) != 2*unordered-int64(len(st)) {
						t.Errorf("pairs: %d ordered rows, want 2 × %d unordered pairs − %d rows", len(got), unordered, len(st))
					}
				}
			})
		}
	}
}

// TestJoinTreeCacheBuildsOncePerPartition is the -race regression
// test for the shared right-partition slot cache: a pairs join whose
// left partitions all probe the same right partitions must build
// each right tree exactly once, no matter how many tasks miss
// concurrently.
func TestJoinTreeCacheBuildsOncePerPartition(t *testing.T) {
	ctx := engine.NewContext(8)
	// Many left partitions (tasks), few right partitions: every right
	// partition is shared by ~16 concurrent tasks.
	l, _ := makeDataset(t, ctx, 2000, 16, 77)
	r, _ := makeDataset(t, ctx, 400, 2, 78)
	var rep JoinReport
	_, err := Join(l, r, JoinOptions{
		Predicate: stobject.WithinDistancePredicate(3, nil), ProbeExpansion: 3,
		IndexOrder: -1, Strategy: JoinPairs, Report: &rep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != 32 {
		t.Fatalf("tasks = %d, want 32", rep.Tasks)
	}
	if rep.TreesBuilt != 2 {
		t.Errorf("trees built = %d, want exactly one per right partition (2)", rep.TreesBuilt)
	}
}

// TestSelfJoinCountTreeCacheRace exercises the same slot cache on
// the Figure 4 counting path, the symmetric self join, under -race:
// every slot is shared by the tasks of the pairs it is in.
func TestSelfJoinCountTreeCacheRace(t *testing.T) {
	ctx := engine.NewContext(8)
	s, tuples := makeDataset(t, ctx, 800, 8, 79)
	var rep JoinReport
	n, err := JoinCount(s, s, JoinOptions{
		Predicate: stobject.WithinDistancePredicate(2, nil), ProbeExpansion: 2,
		IndexOrder: -1, Strategy: JoinPairs, Report: &rep,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for _, a := range tuples {
		for _, b := range tuples {
			if a.Key.WithinDistance(b.Key, 2, nil) {
				want++
			}
		}
	}
	if n != want || rep.Tasks != 36 || rep.TreesBuilt != 8 {
		t.Errorf("count = %d, want %d; %d tasks, want 36; %d trees, want 8", n, want, rep.Tasks, rep.TreesBuilt)
	}
}

// TestJoinAutoBroadcastsSmallOverlappingSide proves the cost model
// broadcasts a small, fully-overlapping side — and that broadcast
// then schedules fewer tasks than the L×R pair enumeration.
func TestJoinAutoBroadcastsSmallOverlappingSide(t *testing.T) {
	ctx := engine.NewContext(4)
	// Both sides spread over the full space: pair pruning cannot help,
	// so broadcasting the small right side wins.
	l, _ := makeDataset(t, ctx, 600, 4, 80)
	g, err := partition.NewGrid(4, keysOf(t, l))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := l.PartitionBy(g)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := makeDataset(t, ctx, 60, 2, 81)
	var rep JoinReport
	_, err = Join(pl, r, JoinOptions{
		Predicate: stobject.WithinDistancePredicate(2, nil), ProbeExpansion: 2,
		IndexOrder: -1, Strategy: JoinAuto, Report: &rep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != JoinBroadcast {
		t.Fatalf("auto picked %v, want broadcast (decision: %+v)", rep.Strategy, rep.Decision)
	}
	if rep.Tasks >= rep.TotalPairs {
		t.Errorf("broadcast scheduled %d tasks, not fewer than the %d-pair enumeration", rep.Tasks, rep.TotalPairs)
	}
	if rep.TreesBuilt != 1 {
		t.Errorf("broadcast built %d trees, want 1", rep.TreesBuilt)
	}
}

// TestJoinBroadcastPrunesStreamPartitions: stream-side partitions
// whose extent cannot reach the broadcast envelope are never
// scheduled.
func TestJoinBroadcastPrunesStreamPartitions(t *testing.T) {
	ctx := engine.NewContext(4)
	// Left spread over the full space and grid-partitioned; right
	// clustered in one corner, so most left partitions cannot match.
	l, _ := makeDataset(t, ctx, 600, 4, 82)
	g, err := partition.NewGrid(4, keysOf(t, l))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := l.PartitionBy(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(83))
	var rts []Tuple[int]
	for i := 0; i < 50; i++ {
		p := stobject.New(geom.NewPoint(rng.Float64()*10, rng.Float64()*10))
		rts = append(rts, engine.NewPair(p, i))
	}
	r := Wrap(engine.Parallelize(ctx, rts, 2))
	var rep JoinReport
	_, err = Join(pl, r, JoinOptions{
		Predicate: stobject.WithinDistancePredicate(2, nil), ProbeExpansion: 2,
		IndexOrder: -1, Strategy: JoinBroadcast, Report: &rep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks >= pl.NumPartitions() {
		t.Errorf("broadcast visited %d of %d stream partitions, expected corner pruning", rep.Tasks, pl.NumPartitions())
	}
}
