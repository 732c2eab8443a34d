package stark_test

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"stark"
	"stark/internal/workload"
)

// heapAlloc is the live heap after two collections.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestShuffledDatasetIsTheOnlyCopy pins that a resolved chain holds one
// copy of its rows: PartitionBy copies them into their partitions (and
// their point keys next to them), after which nothing of the chain pins
// the slice handed to Parallelize.
func TestShuffledDatasetIsTheOnlyCopy(t *testing.T) {
	ctx := stark.NewContext(2)
	rng := rand.New(rand.NewSource(5))
	base := heapAlloc()
	rows := make([]stark.Tuple[[4]int64], 300_000)
	for i := range rows {
		key := stark.NewSTObject(stark.NewPoint(rng.Float64()*1000, rng.Float64()*1000))
		rows[i] = stark.NewTuple(key, [4]int64{int64(i)})
	}
	oneCopy := heapAlloc() - base

	ds := stark.Parallelize(ctx, rows).PartitionBy(stark.Grid(8))
	if err := ds.Run(); err != nil {
		t.Fatal(err)
	}
	rows = nil
	held := heapAlloc() - base
	if limit := oneCopy + oneCopy/4; held > limit {
		t.Errorf("registered dataset holds %.1f MB, one copy of its rows is %.1f MB (limit 1.25×)",
			float64(held)/(1<<20), float64(oneCopy)/(1<<20))
	}
	n, err := ds.Count()
	if err != nil || n != 300_000 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

// TestColumnarHoldsNoSecondCopy pins that the columnar sidecar addresses
// the dataset's rows and does not copy them: beside the one copy of the
// rows it holds six 8-byte columns and a 4-byte Hilbert permutation per
// row. The windows check that kernel row i still leads to the right
// row.
func TestColumnarHoldsNoSecondCopy(t *testing.T) {
	const n = 300_000
	ctx := stark.NewContext(2)
	rng := rand.New(rand.NewSource(5))
	base := heapAlloc()
	rows := make([]stark.Tuple[[4]int64], n)
	for i := range rows {
		key := stark.NewSTObject(stark.NewPoint(rng.Float64()*1000, rng.Float64()*1000))
		rows[i] = stark.NewTuple(key, [4]int64{int64(i)})
	}
	oneCopy := heapAlloc() - base

	ds := stark.Parallelize(ctx, rows).PartitionBy(stark.Grid(8)).Columnar()
	if err := ds.Run(); err != nil {
		t.Fatal(err)
	}
	rows = nil
	held := heapAlloc() - base
	limit := oneCopy + n*(6*8+4)
	limit += limit / 10
	if held > limit {
		t.Errorf("columnar dataset holds %.1f MB; its rows are %.1f MB, columns and permutation %.1f MB (limit %.1f MB)",
			float64(held)/(1<<20), float64(oneCopy)/(1<<20), float64(n*(6*8+4))/(1<<20), float64(limit)/(1<<20))
	}

	q := stark.NewSTObject(stark.NewEnvelope(100, 100, 300, 250).ToPolygon())
	got, err := ds.Intersects(q).Count()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ds.Optimize(false).Intersects(q).Count()
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got == 0 {
		t.Fatalf("columnar count = %d, naive scan = %d", got, want)
	}
}

// TestLoadIndexFitsFreshShuffle pins that the shuffle is deterministic
// row for row: persisted trees address rows by position, so an index
// saved from one shuffle of the rows must answer like a scan when
// re-attached to another shuffle of the same rows.
func TestLoadIndexFitsFreshShuffle(t *testing.T) {
	ctx := stark.NewContext(4)
	dir := t.TempDir()
	tuples, _ := workload.EventTuples(workload.Events(workload.Config{
		N: 40_000, Seed: 9, Dist: workload.Skewed, Width: 1000, Height: 1000, TimeRange: 1000,
	}))
	shuffle := func() *stark.Dataset[workload.Event] {
		return stark.Parallelize(ctx, tuples, 4).PartitionBy(stark.BSP(2000))
	}
	if err := shuffle().Index(stark.Persistent(8)).SaveIndex(dir); err != nil {
		t.Fatal(err)
	}
	c := tuples[17].Key.Centroid()
	q := stark.NewSTObjectWithInterval(
		stark.NewEnvelope(c.X-150, c.Y-150, c.X+150, c.Y+150).ToPolygon(),
		stark.MustInterval(0, 1000))
	ids := func(ts []stark.Tuple[workload.Event], err error) []int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(ts))
		for i, kv := range ts {
			out[i] = kv.Value.ID
		}
		slices.Sort(out)
		return out
	}
	for round := 0; round < 20; round++ {
		fresh := shuffle()
		want := ids(fresh.Intersects(q).Collect())
		if len(want) < 100 {
			t.Fatalf("window matches %d rows: bad test set-up", len(want))
		}
		got := ids(stark.LoadIndex(fresh, dir).Intersects(q).Collect())
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: loaded index returns %d rows, scan %d", round, len(got), len(want))
		}
	}
}
