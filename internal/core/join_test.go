package core

import (
	"context"
	"errors"
	"sort"
	"testing"

	"stark/internal/engine"
	"stark/internal/partition"
	"stark/internal/stobject"
)

// bruteJoin returns the sorted (leftID, rightID) pairs satisfying
// pred.
func bruteJoin(l, r []Tuple[int], pred stobject.Predicate) [][2]int {
	var out [][2]int
	for _, lk := range l {
		for _, rk := range r {
			if pred(lk.Key, rk.Key) {
				out = append(out, [2]int{lk.Value, rk.Value})
			}
		}
	}
	sortPairs(out)
	return out
}

func sortPairs(p [][2]int) {
	sort.Slice(p, func(i, j int) bool {
		if p[i][0] != p[j][0] {
			return p[i][0] < p[j][0]
		}
		return p[i][1] < p[j][1]
	})
}

func joinedPairs(res []Tuple[JoinRow[int, int]]) [][2]int {
	out := make([][2]int, len(res))
	for i, jp := range res {
		out[i] = [2]int{jp.Value.Left, jp.Value.Right}
	}
	sortPairs(out)
	return out
}

func samePairs(a, b [][2]int) bool {
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

func TestWithinDistanceJoinUnpartitioned(t *testing.T) {
	ctx := engine.NewContext(4)
	l, lt := makeDataset(t, ctx, 300, 3, 30)
	r, rt := makeDataset(t, ctx, 200, 2, 31)
	pred := stobject.WithinDistancePredicate(3, nil)
	got, err := Join(l, r, JoinOptions{Predicate: pred, ProbeExpansion: 3, IndexOrder: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteJoin(lt, rt, pred)
	if !samePairs(joinedPairs(got), want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	if len(want) == 0 {
		t.Error("degenerate test")
	}
}

func TestJoinNestedLoopEqualsIndexed(t *testing.T) {
	ctx := engine.NewContext(4)
	l, _ := makeDataset(t, ctx, 250, 2, 32)
	r, _ := makeDataset(t, ctx, 250, 3, 33)
	pred := stobject.WithinDistancePredicate(2, nil)
	indexed, err := Join(l, r, JoinOptions{Predicate: pred, ProbeExpansion: 2, IndexOrder: -1})
	if err != nil {
		t.Fatal(err)
	}
	nested, err := Join(l, r, JoinOptions{Predicate: pred, ProbeExpansion: 2, IndexOrder: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !samePairs(joinedPairs(indexed), joinedPairs(nested)) {
		t.Errorf("indexed (%d) and nested-loop (%d) joins disagree", len(indexed), len(nested))
	}
}

func TestJoinWithPartitionPruning(t *testing.T) {
	ctx := engine.NewContext(4)
	l, lt := makeDataset(t, ctx, 600, 4, 34)
	r, rt := makeDataset(t, ctx, 400, 4, 35)
	gl, err := partition.NewGrid(3, keysOf(t, l))
	if err != nil {
		t.Fatal(err)
	}
	gr, err := partition.NewGrid(3, keysOf(t, r))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := l.PartitionBy(gl)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := r.PartitionBy(gr)
	if err != nil {
		t.Fatal(err)
	}
	pred := stobject.WithinDistancePredicate(2, nil)
	before := ctx.Recorder().Snapshot()
	var rep JoinReport
	got, err := Join(pl, pr, JoinOptions{Predicate: pred, ProbeExpansion: 2, IndexOrder: -1,
		Strategy: JoinPairs, Report: &rep})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteJoin(lt, rt, pred)
	if !samePairs(joinedPairs(got), want) {
		t.Fatalf("pruned join: got %d, want %d", len(got), len(want))
	}
	if ctx.Recorder().Snapshot().Sub(before)[engine.TasksSkipped] == 0 {
		t.Error("expected pruned partition pairs")
	}
	if rep.PairsPruned == 0 || rep.Tasks+rep.PairsPruned != rep.TotalPairs {
		t.Errorf("report: tasks=%d pruned=%d total=%d", rep.Tasks, rep.PairsPruned, rep.TotalPairs)
	}
}

func TestSelfJoinIncludesIdentity(t *testing.T) {
	ctx := engine.NewContext(2)
	s, tuples := makeDataset(t, ctx, 100, 2, 36)
	got, err := Join(s, s, JoinOptions{Predicate: stobject.Intersects, IndexOrder: -1})
	if err != nil {
		t.Fatal(err)
	}
	// With distinct uniform points, intersects-self-join ≈ identity
	// pairs only.
	if len(got) < len(tuples) {
		t.Errorf("self join returned %d < n=%d", len(got), len(tuples))
	}
	seen := make(map[int]bool)
	for _, jp := range got {
		if jp.Value.Left == jp.Value.Right {
			seen[jp.Value.Left] = true
		}
	}
	if len(seen) != len(tuples) {
		t.Errorf("identity pairs: %d of %d", len(seen), len(tuples))
	}
}

func TestSelfJoinWithinDistancePartitioned(t *testing.T) {
	// The Figure 4 workload at test scale: self join with distance
	// predicate, partitioned vs not, results must agree.
	ctx := engine.NewContext(4)
	s, tuples := makeDataset(t, ctx, 500, 4, 37)
	pred := stobject.WithinDistancePredicate(2, nil)
	plain, err := Join(s, s, JoinOptions{Predicate: pred, ProbeExpansion: 2, IndexOrder: -1})
	if err != nil {
		t.Fatal(err)
	}
	bsp, err := partition.NewBSP(partition.BSPConfig{MaxCost: 100}, keysOf(t, s))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := s.PartitionBy(bsp)
	if err != nil {
		t.Fatal(err)
	}
	parted, err := Join(ps, ps, JoinOptions{Predicate: pred, ProbeExpansion: 2, IndexOrder: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !samePairs(joinedPairs(plain), joinedPairs(parted)) {
		t.Errorf("partitioned self join (%d) differs from plain (%d)", len(parted), len(plain))
	}
	want := bruteJoin(tuples, tuples, pred)
	if !samePairs(joinedPairs(plain), want) {
		t.Errorf("self join vs brute force: %d vs %d", len(plain), len(want))
	}
}

func TestJoinContainsPredicate(t *testing.T) {
	// Regions (polygons) containing points.
	ctx := engine.NewContext(2)
	regions := []Tuple[int]{
		engine.NewPair(mustFromWKT("POLYGON ((0 0, 50 0, 50 50, 0 50, 0 0))"), 100),
		engine.NewPair(mustFromWKT("POLYGON ((50 50, 100 50, 100 100, 50 100, 50 50))"), 200),
	}
	l := Wrap(engine.Parallelize(ctx, regions, 2))
	r, rt := makeDataset(t, ctx, 200, 2, 38)
	got, err := Join(l, r, JoinOptions{Predicate: stobject.Contains, IndexOrder: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Every returned pair must satisfy Contains; counts must match
	// brute force.
	count := 0
	for _, rk := range rt {
		for _, lk := range regions {
			if lk.Key.Contains(rk.Key) {
				count++
			}
		}
	}
	if len(got) != count {
		t.Errorf("got %d pairs, want %d", len(got), count)
	}
	for _, jp := range got {
		if !jp.Key.Contains(jp.Value.RightKey) {
			t.Fatal("join returned non-matching pair")
		}
	}
}

func TestJoinCount(t *testing.T) {
	ctx := engine.NewContext(2)
	l, _ := makeDataset(t, ctx, 100, 2, 39)
	n, err := JoinCount(l, l, JoinOptions{Predicate: stobject.Intersects, IndexOrder: -1})
	if err != nil {
		t.Fatal(err)
	}
	if n < 100 {
		t.Errorf("count = %d", n)
	}
}

func TestJoinEmptySides(t *testing.T) {
	ctx := engine.NewContext(2)
	empty := Wrap(engine.Parallelize(ctx, []Tuple[int]{}, 2))
	l, _ := makeDataset(t, ctx, 50, 2, 40)
	got, err := Join(l, empty, JoinOptions{IndexOrder: -1})
	if err != nil || len(got) != 0 {
		t.Errorf("join with empty right: %d err=%v", len(got), err)
	}
	got, err = Join(empty, l, JoinOptions{IndexOrder: -1})
	if err != nil || len(got) != 0 {
		t.Errorf("join with empty left: %d err=%v", len(got), err)
	}
}

func TestJoinDefaultPredicateIsIntersects(t *testing.T) {
	ctx := engine.NewContext(2)
	a := []Tuple[int]{engine.NewPair(mustFromWKT("POINT (1 1)"), 1)}
	b := []Tuple[int]{engine.NewPair(mustFromWKT("POINT (1 1)"), 2)}
	l := Wrap(engine.Parallelize(ctx, a, 1))
	r := Wrap(engine.Parallelize(ctx, b, 1))
	got, err := Join(l, r, JoinOptions{IndexOrder: -1})
	if err != nil || len(got) != 1 {
		t.Errorf("got %d err=%v", len(got), err)
	}
}

func TestKNNScanMatchesBruteForce(t *testing.T) {
	ctx := engine.NewContext(4)
	s, tuples := makeDataset(t, ctx, 1000, 4, 41)
	q := mustFromWKT("POINT (50 50)")
	for _, k := range []int{1, 5, 23} {
		got, err := s.KNN(q, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("k=%d: returned %d", k, len(got))
		}
		// Brute force distances.
		dists := make([]float64, len(tuples))
		for i, kv := range tuples {
			dists[i] = q.Distance(kv.Key, nil)
		}
		sort.Float64s(dists)
		for i, nb := range got {
			if nb.Distance != dists[i] {
				t.Fatalf("k=%d neighbor %d: dist %v, want %v", k, i, nb.Distance, dists[i])
			}
		}
	}
	if _, err := s.KNN(q, 0, nil); err == nil {
		t.Error("k=0 must fail")
	}
}

func TestKNNPartitionedPrunes(t *testing.T) {
	ctx := engine.NewContext(4)
	s, tuples := makeDataset(t, ctx, 3000, 4, 42)
	g, err := partition.NewGrid(6, keysOf(t, s))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := s.PartitionBy(g)
	if err != nil {
		t.Fatal(err)
	}
	q := mustFromWKT("POINT (20 20)")
	before := ctx.Recorder().Snapshot()
	got, err := ps.KNN(q, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	dists := make([]float64, len(tuples))
	for i, kv := range tuples {
		dists[i] = q.Distance(kv.Key, nil)
	}
	sort.Float64s(dists)
	for i, nb := range got {
		if nb.Distance != dists[i] {
			t.Fatalf("neighbor %d: %v vs %v", i, nb.Distance, dists[i])
		}
	}
	snap := ctx.Recorder().Snapshot().Sub(before)
	if snap[engine.TasksSkipped] == 0 {
		t.Error("partitioned kNN should prune far partitions")
	}
	if snap[engine.ElementsScanned] >= 3000 {
		t.Errorf("scanned %d, want < 3000", snap[engine.ElementsScanned])
	}
}

func TestKNNIndexedMatchesScan(t *testing.T) {
	ctx := engine.NewContext(4)
	s, _ := makeDataset(t, ctx, 1000, 4, 43)
	q := mustFromWKT("POINT (70 30)")
	scan, err := s.KNN(q, 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.LiveIndex(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := idx.KNN(q, 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != len(scan) {
		t.Fatalf("lengths: %d vs %d", len(fast), len(scan))
	}
	for i := range fast {
		if fast[i].Distance != scan[i].Distance {
			t.Fatalf("neighbor %d: %v vs %v", i, fast[i].Distance, scan[i].Distance)
		}
	}
	if _, err := idx.KNN(q, 0, nil); err == nil {
		t.Error("k=0 must fail")
	}
}

func TestKNNCustomDistance(t *testing.T) {
	ctx := engine.NewContext(2)
	tuples := []Tuple[int]{
		engine.NewPair(mustFromWKT("POINT (3 4)"), 1), // L2 5, L1 7
		engine.NewPair(mustFromWKT("POINT (0 6)"), 2), // L2 6, L1 6
	}
	s := Wrap(engine.Parallelize(ctx, tuples, 1))
	q := mustFromWKT("POINT (0 0)")
	got, err := s.KNN(q, 1, manhattan)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Value != 2 {
		t.Errorf("manhattan nearest = %d, want 2", got[0].Value)
	}
	got, err = s.KNN(q, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Value != 1 {
		t.Errorf("euclidean nearest = %d, want 1", got[0].Value)
	}
	// Indexed with custom metric falls back to scan but stays correct.
	idx, err := s.LiveIndex(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotIdx, err := idx.KNN(q, 1, manhattan)
	if err != nil {
		t.Fatal(err)
	}
	if gotIdx[0].Value != 2 {
		t.Errorf("indexed manhattan nearest = %d, want 2", gotIdx[0].Value)
	}
}

func TestKNNSmallerThanK(t *testing.T) {
	ctx := engine.NewContext(2)
	s, _ := makeDataset(t, ctx, 5, 2, 44)
	got, err := s.KNN(mustFromWKT("POINT (0 0)"), 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Errorf("len = %d, want 5", len(got))
	}
}

func TestKNNContextCancelled(t *testing.T) {
	ctx := engine.NewContext(2)
	s, _ := makeDataset(t, ctx, 2000, 8, 45)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.KNNContext(cctx, mustFromWKT("POINT (50 50)"), 5, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("scan kNN with cancelled ctx: err = %v", err)
	}
	idx, err := s.LiveIndex(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.KNNContext(cctx, mustFromWKT("POINT (50 50)"), 5, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("indexed kNN with cancelled ctx: err = %v", err)
	}
}
