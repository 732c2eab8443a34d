package geom

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// checkFixed holds AppendFixed to strconv's 'f' shortest form. It
// appends after a prefix, once into a slice with no room left and once
// into spare capacity full of junk, so a slip that overwrites the prefix
// or leaves a stale byte shows.
func checkFixed(t testing.TB, f float64) {
	t.Helper()
	want := strconv.AppendFloat([]byte("x="), f, 'f', -1, 64)
	if got := AppendFixed([]byte("x="), f); !bytes.Equal(got, want) {
		t.Fatalf("%b (%v): got %q, want %q", f, f, got, want)
	}
	junk := bytes.Repeat([]byte{'#'}, 64)
	copy(junk, "x=")
	if got := AppendFixed(junk[:2], f); !bytes.Equal(got, want) {
		t.Fatalf("%b (%v) into spare capacity: got %q, want %q", f, f, got, want)
	}
}

// inRange folds a bit pattern into the kernel's range: its sign and
// mantissa are kept and its exponent is taken modulo the range's.
func inRange(bits uint64) float64 {
	lo := math.Float64bits(fixedMin) >> 52 & 0x7ff
	hi := math.Float64bits(fixedMax) >> 52 & 0x7ff
	e := lo + (bits>>52&0x7ff)%(hi-lo+1)
	return math.Float64frombits(bits&(1<<63|1<<52-1) | e<<52)
}

func TestAppendFixedRandomBits(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 1_000_000; i++ {
		checkFixed(t, inRange(rng.Uint64()))
	}
}

func TestAppendFixedEdges(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64,
		fixedMin, fixedMax, 0.1, 0.2, 0.3, 1.0 / 3, 2.0 / 3, 0.30000000000000004, 123456.78901234567,
		5e-324, 1e-7, 9.999999999999999e-7, 999999999999999999999, 9.999999999999998e20,
	} {
		checkFixed(t, f)
		checkFixed(t, -f)
	}
}

// TestAppendFixedIntegers: around 2^52 every integer is exact and the
// unit in the last place is 1; past 2^53 it is 2 and odd integers round.
func TestAppendFixedIntegers(t *testing.T) {
	for _, base := range []float64{1 << 52, 1 << 53, 1 << 54} {
		for i := -2000.0; i <= 2000; i++ {
			checkFixed(t, base+i)
			checkFixed(t, -(base + i))
		}
	}
	for i := 1; i < 100_000; i++ {
		checkFixed(t, float64(i))
	}
}

// TestAppendFixedPowers covers every power of two in range, where the
// mantissa is 2^52 and the rounding interval is asymmetric, every power
// of ten, and a few neighbours of each on both sides, the range's ends
// included.
func TestAppendFixedPowers(t *testing.T) {
	near := func(f float64) {
		for _, dir := range []float64{math.Inf(-1), math.Inf(1)} {
			g := f
			for i := 0; i < 8; i++ {
				checkFixed(t, g)
				checkFixed(t, -g)
				g = math.Nextafter(g, dir)
			}
		}
	}
	for e := -24; e <= 72; e++ {
		near(math.Ldexp(1, e))
	}
	for j := -7; j <= 22; j++ {
		f, err := strconv.ParseFloat("1e"+strconv.Itoa(j), 64)
		if err != nil {
			t.Fatal(err)
		}
		near(f)
	}
}

// TestAppendFixedTrailingZeros: short decimals, whose digits the kernel
// finds with zeros to strip, at every scale of the range.
func TestAppendFixedTrailingZeros(t *testing.T) {
	for m := 1; m < 2000; m++ {
		for j := -9; j <= 18; j++ {
			f, err := strconv.ParseFloat(strconv.Itoa(m)+"e"+strconv.Itoa(j), 64)
			if err != nil {
				t.Fatal(err)
			}
			checkFixed(t, f)
		}
	}
}

func FuzzAppendFixed(f *testing.F) {
	for _, v := range []float64{0, 1, 0.1, 512.0625, 1e-6, 1e21, 1 << 53, 123.456, 5e-324, math.NaN()} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFixed(t, math.Float64frombits(bits))
		checkFixed(t, inRange(bits))
	})
}

// TestPow10Table derives the table from its definition with math/big,
// and checks the two log approximations shortestDecimal indexes it with
// over every exponent of the range.
func TestPow10Table(t *testing.T) {
	pow := func(b int64, e int) *big.Rat { // b^e exactly
		n := new(big.Int).Exp(big.NewInt(b), big.NewInt(int64(max(e, -e))), nil)
		if e < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), n)
		}
		return new(big.Rat).SetInt(n)
	}
	floorLog := func(b int64, r *big.Rat) (e int) { // ⌊log_b r⌋
		for ; r.Cmp(pow(b, e)) < 0; e-- {
		}
		for ; r.Cmp(pow(b, e+1)) >= 0; e++ {
		}
		return e
	}
	for j := pow10Min; j <= pow10Max; j++ {
		fl := floorLog(2, pow(10, j))
		if got := j * 1741647 >> 19; got != fl {
			t.Errorf("floor(log2 1e%d) = %d, approximated as %d", j, fl, got)
		}
		beta := new(big.Rat).Mul(pow(10, j), pow(2, 127-fl)) // in [2^127, 2^128)
		want := new(big.Int).Add(new(big.Int).Quo(beta.Num(), beta.Denom()), big.NewInt(1))
		got := new(big.Int).Lsh(new(big.Int).SetUint64(pow10[j-pow10Min][0]), 64)
		if got.Or(got, new(big.Int).SetUint64(pow10[j-pow10Min][1])).Cmp(want) != 0 {
			t.Errorf("pow10 entry for 1e%d: %#x, want %#x", j, got, want)
		}
	}
	lo := int(math.Float64bits(fixedMin)>>52&0x7ff) - 1075
	hi := int(math.Float64bits(fixedMax)>>52&0x7ff) - 1075
	for q := lo; q <= hi; q++ {
		for _, c := range []struct {
			k int
			r *big.Rat
		}{
			{q * 1262611 >> 22, pow(2, q)},
			{(q*1262611 - 524031) >> 22, new(big.Rat).Mul(big.NewRat(3, 4), pow(2, q))},
		} {
			if want := floorLog(10, c.r); c.k != want {
				t.Errorf("q=%d: k=%d, want floor(log10 %v) = %d", q, c.k, c.r, want)
			}
			if -c.k < pow10Min || -c.k > pow10Max {
				t.Errorf("q=%d needs 1e%d, outside the table", q, -c.k)
			}
		}
	}
}
