package stark_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"stark"
)

// latticeTuples returns side×side points at the cell centres of the
// unit lattice, payload = index: with Grid(4) every partition holds
// (side/4)² of them and partition extents never touch.
func latticeTuples(side int) []stark.Tuple[int] {
	tuples := make([]stark.Tuple[int], 0, side*side)
	for i := 0; i < side*side; i++ {
		tuples = append(tuples, stark.NewTuple(pointAt(float64(i%side)+0.5, float64(i/side)+0.5), i))
	}
	return tuples
}

var joinStrategies = []stark.JoinStrategy{stark.JoinAuto, stark.JoinPairs, stark.JoinBroadcast, stark.JoinCoPartition}

// TestJoinHonoursInputPruning: a window filter on a grid-partitioned,
// unindexed input prunes the partitions outside the window for the
// join's statistics pass and for the join itself, not only for the
// actions of the filtered chain.
func TestJoinHonoursInputPruning(t *testing.T) {
	ctx := stark.NewContext(2)
	tuples := latticeTuples(40)
	left := stark.Parallelize(ctx, tuples, 4).PartitionBy(stark.Grid(4))
	right := stark.Parallelize(ctx, tuples, 4).PartitionBy(stark.Grid(4))
	for _, d := range []*stark.Dataset[int]{left, right} {
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// One cell of the 4×4 grid: the 10×10 points with x, y < 10.
	window := stark.NewSTObject(stark.NewEnvelope(0, 0, 10, 10).ToPolygon())
	for _, strategy := range joinStrategies {
		ctx.Metrics().Reset()
		n, err := stark.Join(left.Intersects(window), right, stark.JoinOptions{IndexOrder: -1, Strategy: strategy}).Count()
		if err != nil {
			t.Fatal(err)
		}
		if n != 100 {
			t.Errorf("%v: %d pairs, want the 100 identity pairs of the window", strategy, n)
		}
		if scanned := ctx.Metrics().Snapshot().ElementsScanned; scanned >= int64(len(tuples)) {
			t.Errorf("%v: %d elements scanned for a window over one of 16 partitions of %d rows", strategy, scanned, len(tuples))
		}
	}
}

// TestJoinStreamsProbePartitionOnce: however many build partitions a
// probe partition reaches, its pipeline runs once per pass over the
// input (the join, and before it the statistics pass when the cost
// model chooses).
func TestJoinStreamsProbePartitionOnce(t *testing.T) {
	ctx := stark.NewContext(2)
	tuples := latticeTuples(40)
	var calls atomic.Int64
	left := stark.Parallelize(ctx, tuples, 4).PartitionBy(stark.Grid(4)).
		FilterValues(func(int) bool { calls.Add(1); return true })
	right := stark.Parallelize(ctx, tuples, 4).PartitionBy(stark.Grid(4))
	// Every point has the 13 lattice points within distance 2 around it,
	// less those beyond the border; a probe partition reaches up to nine
	// build partitions.
	opts := stark.JoinOptions{Predicate: stark.WithinDistancePredicate(2, nil), ProbeExpansion: 2, IndexOrder: -1}
	var want int64
	for passes, strategy := range []stark.JoinStrategy{stark.JoinPairs, stark.JoinAuto} {
		var rep stark.JoinReport
		opts.Strategy, opts.Report = strategy, &rep
		calls.Store(0)
		n, err := stark.Join(left, right, opts).Count()
		if err != nil {
			t.Fatal(err)
		}
		if strategy == stark.JoinPairs {
			want = n
			if rep.Tasks <= 16 {
				t.Fatalf("pairs planned %d probes for 16 probe partitions; the test is vacuous", rep.Tasks)
			}
		}
		if n != want || n <= int64(len(tuples)) {
			t.Errorf("%v: %d pairs, pairs found %d", strategy, n, want)
		}
		if got, most := calls.Load(), int64((passes+1)*len(tuples)); got > most {
			t.Errorf("%v: the left pipeline saw %d rows for %d in the input, want at most %d", strategy, got, len(tuples), most)
		}
	}
}

// TestJoinConcurrentActions races a Take against a Count on one joined
// Dataset under every strategy (run with -race): the build slots are
// shared between the actions and the report is written while both run.
func TestJoinConcurrentActions(t *testing.T) {
	ctx := stark.NewContext(4)
	tuples := latticeTuples(20)
	base := stark.Parallelize(ctx, tuples, 4).PartitionBy(stark.Grid(4))
	for _, strategy := range joinStrategies {
		var rep stark.JoinReport
		joined := stark.Join(base, base, stark.JoinOptions{IndexOrder: -1, Strategy: strategy, Report: &rep})
		var (
			wg   sync.WaitGroup
			n    int64
			head []stark.Tuple[stark.JoinRow[int, int]]
			errs [2]error
		)
		wg.Add(2)
		go func() { defer wg.Done(); n, errs[0] = joined.Count() }()
		go func() { defer wg.Done(); head, errs[1] = joined.Take(3) }()
		wg.Wait()
		if errs[0] != nil || errs[1] != nil {
			t.Fatal(errs)
		}
		if n != int64(len(tuples)) || len(head) != 3 {
			t.Errorf("%v: count %d of %d, take %d of 3", strategy, n, len(tuples), len(head))
		}
		explain, err := joined.Explain()
		if err != nil {
			t.Fatal(err)
		}
		if rep.TreesBuilt == 0 || rep.TreesBuilt > 16 {
			t.Errorf("%v: %d trees built by two actions over 16 partitions:\n%s", strategy, rep.TreesBuilt, explain)
		}
	}
}
