package stark_test

import (
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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

// TestColumnarHoldsNoSecondCopy pins that a columnar dataset holds one
// copy of its rows, the one Columnar laid out in Hilbert order, and
// beside it six 8-byte columns per row at most, no permutation. The
// windows check that column row i is still the dataset's row i.
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
	limit := oneCopy + n*6*8
	limit += limit / 10
	if held > limit {
		t.Errorf("columnar dataset holds %.1f MB; its rows are %.1f MB, columns %.1f MB (limit %.1f MB)",
			float64(held)/(1<<20), float64(oneCopy)/(1<<20), float64(n*6*8)/(1<<20), float64(limit)/(1<<20))
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

// TestIndexFileFormat pins the bytes of a persisted index: format v2,
// one entry (item id, envelope) per row in the order the shuffle leaves
// the rows, and a CRC32C footer. A directory written by an older build
// must load into a newer one, and the files a build writes must not
// move when the in-memory tree changes shape.
func TestIndexFileFormat(t *testing.T) {
	ctx := stark.NewContext(2)
	var rows []stark.Tuple[int]
	for i, xy := range [][2]float64{{1, 1}, {9, 2}, {2, 8}, {7, 7}, {3, 3}, {8, 9}, {4, 1}, {6, 4}, {1, 6}, {5, 5}} {
		rows = append(rows, stark.NewTuple(stark.NewSTObject(stark.NewPoint(xy[0], xy[1])), i))
	}
	poly, err := stark.FromWKT("POLYGON ((2 2, 4 2, 4 5, 2 5, 2 2))")
	if err != nil {
		t.Fatal(err)
	}
	rows = append(rows, stark.NewTuple(poly, len(rows)))
	shuffle := func() *stark.Dataset[int] {
		return stark.Parallelize(ctx, rows, 2).PartitionBy(stark.BSP(6))
	}
	dir := t.TempDir()
	indexed := shuffle().Index(stark.Persistent(3))
	if n, err := indexed.NumPartitions(); err != nil || n != 2 {
		t.Fatalf("%d partitions, %v: bad test set-up", n, err)
	}
	if err := indexed.SaveIndex(dir); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{indexFilePart0, indexFilePart1} {
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("part-%d.idx", i)))
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(got) != want {
			t.Errorf("part-%d.idx:\n%x\nwant\n%s", i, got, want)
		}
	}
	ids := func(ts []stark.Tuple[int], err error) []int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(ts))
		for i, kv := range ts {
			out[i] = kv.Value
		}
		slices.Sort(out)
		return out
	}
	for _, w := range []stark.Envelope{stark.NewEnvelope(0, 0, 10, 10), stark.NewEnvelope(2.5, 2.5, 5, 5), stark.NewEnvelope(6, 0, 10, 5)} {
		q := stark.NewSTObject(w.ToPolygon())
		want := ids(shuffle().Intersects(q).Collect())
		if got := ids(stark.LoadIndex(shuffle(), dir).Intersects(q).Collect()); !slices.Equal(got, want) || len(want) == 0 {
			t.Errorf("window %v: loaded index returns %v, scan %v", w, got, want)
		}
	}
}

// The bytes TestIndexFileFormat pins for its two partitions.
const (
	// Header (magic "STRK", version 2, order 3, 5 entries), then
	// (id, minX, minY, maxX, maxY) per row, the polygon last, then the
	// CRC32C.
	indexFilePart0 = "4b5254530200030005000000" +
		"00000000000000000000f03f000000000000f03f000000000000f03f000000000000f03f" +
		"010000000000000000000040000000000000204000000000000000400000000000002040" +
		"020000000000000000000840000000000000084000000000000008400000000000000840" +
		"03000000000000000000f03f0000000000001840000000000000f03f0000000000001840" +
		"040000000000000000000040000000000000004000000000000010400000000000001440" +
		"704b6322"
	indexFilePart1 = "4b5254530200030006000000" +
		"000000000000000000001040000000000000f03f0000000000001040000000000000f03f" +
		"010000000000000000001440000000000000144000000000000014400000000000001440" +
		"020000000000000000001840000000000000104000000000000018400000000000001040" +
		"030000000000000000001c400000000000001c400000000000001c400000000000001c40" +
		"040000000000000000002040000000000000224000000000000020400000000000002240" +
		"050000000000000000002240000000000000004000000000000022400000000000000040" +
		"137875ca"
)

// TestNaNKeyHidesNoRow: a point key with a NaN coordinate matches no
// window, and must not hide the rows beside it. One such key among
// 2,000 points used to poison the envelope folds it entered (the data
// space, partition extents, per-partition statistics), so a window
// over all the data found nothing, and Voronoi's nearest-seed search
// gave it no partition. Every layout must return what brute force does.
func TestNaNKeyHidesNoRow(t *testing.T) {
	ctx := stark.NewContext(2)
	tuples := workload.SpatialTuples(workload.Config{N: 2000, Seed: 9, Dist: workload.Skewed, Width: 100, Height: 100})
	windows := []stark.STObject{
		stark.NewSTObject(stark.NewEnvelope(-1, -1, 101, 101).ToPolygon()),
		stark.NewSTObject(stark.NewEnvelope(20, 20, 70, 70).ToPolygon()),
	}
	grid, bsp, voronoi := stark.Grid(4), stark.BSP(100), stark.Voronoi(8, 42)
	empty, err := stark.FromWKT("POINT EMPTY")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []stark.STObject{empty, stark.NewSTObject(stark.NewPoint(math.NaN(), 5))} {
		wkt := key.String()
		rows := append(slices.Clone(tuples), stark.NewTuple(key, len(tuples)))
		for _, p := range []*stark.Partitioner{nil, &grid, &bsp, &voronoi} {
			ds, layout := stark.Parallelize(ctx, rows), "none"
			if p != nil {
				ds, layout = ds.PartitionBy(*p), p.String()
			}
			if err := ds.Run(); err != nil {
				t.Fatalf("%s %s: %v", wkt, layout, err)
			}
			for wi, w := range windows {
				want := 0
				for _, kv := range rows {
					if kv.Key.Intersects(w) {
						want++
					}
				}
				got, err := ds.Intersects(w).Count()
				if err != nil || got != int64(want) || (wi == 0 && want != len(tuples)) {
					t.Errorf("%s %s window %d: %d rows (%v), brute force %d", wkt, layout, wi, got, err, want)
				}
			}
		}
	}
}

// TestLoadIndexKeepsEmptyKeys: a persisted index over rows with a
// POINT EMPTY or a NaN-coordinate key loads back. The file stores such
// a row's NaN envelope like any other, so the load compares envelopes
// bit for bit instead of refusing NaN bounds.
func TestLoadIndexKeepsEmptyKeys(t *testing.T) {
	ctx := stark.NewContext(2)
	empty, err := stark.FromWKT("POINT EMPTY")
	if err != nil {
		t.Fatal(err)
	}
	rows := workload.SpatialTuples(workload.Config{N: 300, Seed: 5, Dist: workload.Uniform, Width: 100, Height: 100})
	rows = append(rows, stark.NewTuple(empty, len(rows)), stark.NewTuple(stark.NewSTObject(stark.NewPoint(math.NaN(), 5)), len(rows)+1))
	dir := t.TempDir()
	if err := stark.Parallelize(ctx, rows).PartitionBy(stark.Grid(2)).Index(stark.Persistent(4)).SaveIndex(dir); err != nil {
		t.Fatal(err)
	}
	loaded := stark.LoadIndex(stark.Parallelize(ctx, rows).PartitionBy(stark.Grid(2)), dir)
	if n, err := loaded.Count(); err != nil || n != int64(len(rows)) {
		t.Fatalf("the reloaded index counts %d rows (err %v), want %d", n, err, len(rows))
	}
}
