package geom

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestOrderByKeyIsStable holds the radix order to a stable comparison
// sort of the indexes: keys over every byte, keys below 2^32, heavy
// duplicates, one key for all, one row and none.
func TestOrderByKeyIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	draws := []struct {
		name string
		draw func() uint64
	}{
		{"64-bit", rng.Uint64},
		{"32-bit", func() uint64 { return uint64(rng.Uint32()) }},
		{"duplicates", func() uint64 { return uint64(rng.Intn(7)) << (8 * rng.Intn(8)) }},
		{"32-bit duplicates", func() uint64 { return uint64(rng.Intn(7)) << (8 * rng.Intn(4)) }},
		{"one key", func() uint64 { return 1 << 40 }},
	}
	for _, d := range draws {
		for _, n := range []int{0, 1, 2, 255, 256, 10_000} {
			keys := make([]uint64, n)
			want := make([]int32, n)
			for i := range keys {
				keys[i], want[i] = d.draw(), int32(i)
			}
			slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
			if got := OrderByKey(keys); !slices.Equal(got, want) {
				t.Fatalf("%s, %d keys: radix order differs from the stable sort", d.name, n)
			}
		}
	}
}

// TestFloatKeyOrdersAsCompare: the keys of floats order as
// cmp.Compare orders the floats, every NaN first and equal to every
// other, −0 equal to +0.
func TestFloatKeyOrdersAsCompare(t *testing.T) {
	fs := []float64{
		math.NaN(), math.Float64frombits(0xfff8000000000001), math.Copysign(math.NaN(), -1),
		math.Inf(-1), -math.MaxFloat64, -1e300, -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1),
		0, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 0.5, 1, 1e300, math.MaxFloat64, math.Inf(1),
	}
	rng := rand.New(rand.NewSource(46))
	for range 1000 {
		fs = append(fs, math.Float64frombits(rng.Uint64()))
	}
	for _, a := range fs {
		for _, b := range fs {
			if got, want := cmp.Compare(FloatKey(a), FloatKey(b)), cmp.Compare(a, b); got != want {
				t.Fatalf("%v vs %v: keys compare %d, floats %d", a, b, got, want)
			}
		}
	}
	if FloatKey(math.NaN()) != 0 || FloatKey(math.Copysign(0, -1)) != FloatKey(0) {
		t.Fatal("NaN must key to 0 and −0 to the key of +0")
	}
}
