package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stobject"
	"stark/internal/workload"
)

// cmpOrderByX is orderByX as a comparison sort: x by cmp.Compare (a NaN
// first, −0 equal to +0), ties in row order. Kept as the order the
// radix sort must reproduce.
func cmpOrderByX[V any](rows []Tuple[V]) bool {
	type xAt struct {
		x float64
		i int
	}
	keys := make([]xAt, len(rows))
	for i := range rows {
		p, ok := rows[i].Key.Point()
		if !ok {
			return false
		}
		keys[i] = xAt{p.X, i}
	}
	slices.SortFunc(keys, func(a, b xAt) int { return cmp.Or(cmp.Compare(a.x, b.x), a.i-b.i) })
	sorted := make([]Tuple[V], len(rows))
	for d, k := range keys {
		sorted[d] = rows[k.i]
	}
	copy(rows, sorted)
	return true
}

// sameRows compares two row slices by their values, distinct row
// numbers, so equal values mean the same rows in the same order.
func sameRows(a, b []Tuple[int]) bool {
	return slices.EqualFunc(a, b, func(x, y Tuple[int]) bool { return x.Value == y.Value })
}

// TestOrderByXMatchesComparisonSort holds the radix sort to the
// comparison sort on the floats whose order is easy to get wrong: NaN
// (both signs), ±0, ±Inf, subnormals, the extremes, heavy duplicates,
// and partitions that share every byte but the last.
func TestOrderByXMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	special := []float64{
		math.NaN(), math.Copysign(math.NaN(), -1), 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, math.MaxFloat64, -math.MaxFloat64, 1, -1, 1.5, -1.5,
	}
	draws := []struct {
		name string
		x    func(i int) float64
	}{
		{"special", func(int) float64 { return special[rng.Intn(len(special))] }},
		{"duplicates", func(int) float64 { return float64(rng.Intn(7)) - 3 }},
		{"mixed", func(i int) float64 {
			if i%3 == 0 {
				return special[rng.Intn(len(special))]
			}
			return rng.NormFloat64() * 1e3
		}},
		{"last-byte", func(int) float64 { return math.Float64frombits(math.Float64bits(100) + uint64(rng.Intn(256))) }},
		{"constant", func(int) float64 { return 2.5 }},
	}
	for _, draw := range draws {
		name := draw.name
		for _, n := range []int{0, 1, 2, 17, 5000} {
			rows := make([]Tuple[int], n)
			for i := range rows {
				rows[i] = engine.NewPair(stobject.New(geom.NewPoint(draw.x(i), float64(i))), i)
			}
			got, want := slices.Clone(rows), slices.Clone(rows)
			if !orderByX(got) || !cmpOrderByX(want) {
				t.Fatalf("%s/%d: a point partition is reported unordered", name, n)
			}
			if !sameRows(got, want) {
				t.Fatalf("%s/%d: the radix order differs from the comparison sort", name, n)
			}
		}
	}

	rows := make([]Tuple[int], 100)
	for i := range rows {
		rows[i] = engine.NewPair(stobject.New(geom.NewPoint(float64(100-i), 0)), i)
	}
	rows[50] = engine.NewPair(stobject.New(geom.NewEnvelope(1, 1, 2, 2).ToPolygon()), 50)
	before := slices.Clone(rows)
	if orderByX(rows) {
		t.Fatal("a partition holding a polygon key is reported ordered")
	}
	if !sameRows(rows, before) {
		t.Fatal("orderByX moved rows of a partition it reports unordered")
	}
}

// TestPartitionByMatchesShuffleThenSort holds PartitionBy over 100k
// skewed points to the shuffle followed by the comparison sort, row for
// row, under every data-driven partitioner.
func TestPartitionByMatchesShuffleThenSort(t *testing.T) {
	pts := workload.Points(workload.Config{
		N: 100_000, Seed: 42, Dist: workload.Skewed, Clusters: 5, Spread: 6, Width: 1000, Height: 1000,
	})
	tuples := make([]Tuple[int], len(pts))
	keys := make([]stobject.STObject, len(pts))
	for i, p := range pts {
		keys[i] = stobject.New(p)
		tuples[i] = engine.NewPair(keys[i], i)
	}
	grid, err := partition.NewGrid(8, keys)
	if err != nil {
		t.Fatal(err)
	}
	bsp, err := partition.NewBSP(partition.BSPConfig{MaxCost: 2000}, keys)
	if err != nil {
		t.Fatal(err)
	}
	voronoi, err := partition.NewVoronoi(32, 7, keys)
	if err != nil {
		t.Fatal(err)
	}
	ctx := engine.NewContext(2)
	for name, sp := range map[string]partition.SpatialPartitioner{"grid": grid, "bsp": bsp, "voronoi": voronoi} {
		t.Run(name, func(t *testing.T) {
			in := engine.Parallelize(ctx, tuples, 3)
			got, err := Wrap(in).PartitionBy(sp)
			if err != nil {
				t.Fatal(err)
			}
			if !got.xOrdered {
				t.Fatal("a dataset of point keys is not marked ordered by x")
			}
			want, err := engine.PartitionBy(in, engine.Partitioner[stobject.STObject](sp))
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < sp.NumPartitions(); p++ {
				g, _ := got.Dataset().ComputePartition(p)
				w, _ := want.ComputePartition(p)
				if !cmpOrderByX(w) {
					t.Fatal("a point partition is reported unordered")
				}
				if !sameRows(g, w) {
					t.Fatalf("partition %d: rows differ from the shuffle sorted by cmp.Compare", p)
				}
			}
		})
	}
}
