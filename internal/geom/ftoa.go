package geom

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"strconv"
)

const fixedMin, fixedMax = 1e-6, 1e21 // where encoding/json prints fixed notation

// pow10[j-pow10Min] is {hi, lo} of g = ⌊10^j·2^-r⌋ + 1, with r such that
// 2^127 ≤ g < 2^128, for every 10^j a magnitude in [fixedMin, fixedMax)
// needs. TestPow10Table derives it again with math/big.
const pow10Min, pow10Max = -5, 22

var pow10 = [pow10Max - pow10Min + 1][2]uint64{
	{0xa7c5ac471b478423, 0x0fcf80dc33721d54}, {0xd1b71758e219652b, 0xd3c36113404ea4a9}, // 1e-5, 1e-4
	{0x83126e978d4fdf3b, 0x645a1cac083126ea}, {0xa3d70a3d70a3d70a, 0x3d70a3d70a3d70a4}, // 1e-3, 1e-2
	{0xcccccccccccccccc, 0xcccccccccccccccd}, {0x8000000000000000, 0x0000000000000001}, // 1e-1, 1e0
	{0xa000000000000000, 0x0000000000000001}, {0xc800000000000000, 0x0000000000000001}, // 1e1, 1e2
	{0xfa00000000000000, 0x0000000000000001}, {0x9c40000000000000, 0x0000000000000001}, // 1e3, 1e4
	{0xc350000000000000, 0x0000000000000001}, {0xf424000000000000, 0x0000000000000001}, // 1e5, 1e6
	{0x9896800000000000, 0x0000000000000001}, {0xbebc200000000000, 0x0000000000000001}, // 1e7, 1e8
	{0xee6b280000000000, 0x0000000000000001}, {0x9502f90000000000, 0x0000000000000001}, // 1e9, 1e10
	{0xba43b74000000000, 0x0000000000000001}, {0xe8d4a51000000000, 0x0000000000000001}, // 1e11, 1e12
	{0x9184e72a00000000, 0x0000000000000001}, {0xb5e620f480000000, 0x0000000000000001}, // 1e13, 1e14
	{0xe35fa931a0000000, 0x0000000000000001}, {0x8e1bc9bf04000000, 0x0000000000000001}, // 1e15, 1e16
	{0xb1a2bc2ec5000000, 0x0000000000000001}, {0xde0b6b3a76400000, 0x0000000000000001}, // 1e17, 1e18
	{0x8ac7230489e80000, 0x0000000000000001}, {0xad78ebc5ac620000, 0x0000000000000001}, // 1e19, 1e20
	{0xd8d726b7177a8000, 0x0000000000000001}, {0x878678326eac9000, 0x0000000000000001}, // 1e21, 1e22
}

// AppendFixed appends the shortest fixed-notation decimal that parses
// back to f: exactly strconv.AppendFloat(dst, f, 'f', -1, 64). Magnitudes
// in [1e-6, 1e21) take a Schubfach kernel; zero, NaN, the infinities and
// everything else outside that range go to strconv.
func AppendFixed(dst []byte, f float64) []byte {
	if abs := math.Abs(f); !(abs >= fixedMin && abs < fixedMax) {
		return strconv.AppendFloat(dst, f, 'f', -1, 64)
	}
	if f < 0 {
		dst = append(dst, '-')
	}
	d, k := shortestDecimal(math.Float64bits(f))
	return appendFixedDecimal(dst, d, k)
}

// shortestDecimal returns the decimal d·10^k closest to the normal
// float64 with bit pattern b among the shortest that parse back to it
// (ties to an even d; d may end in zeros). It is Schubfach (R. Giulietti,
// "The Schubfach way to render doubles", 2020): three products with a
// 128-bit power of ten place the rounding interval in decimal, and the
// paper's Figure 4 picks the decimal in it.
func shortestDecimal(b uint64) (d uint64, k int) {
	c := b&(1<<52-1) | 1<<52
	q := int(b>>52&0x7ff) - 1075 // the float is c·2^q
	// The rounding interval is [cbl, cbr]·2^(q-2), closed when c is even.
	// k is the largest with 10^k at most its width, so the interval holds
	// at least one multiple of 10^k and at most one of 10^(k+1).
	odd := c & 1 // an odd c's interval is open: its ends parse to the neighbours
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	k = q * 1262611 >> 22
	if c == 1<<52 {
		cbl = cb - 1 // the lower neighbour is half as far
		k = (q*1262611 - 524031) >> 22
	}
	// h = q + ⌊log2 10^-k⌋ + 1: the products' top 64 bits are 4·10^-k·(ends, v).
	g := &pow10[-k-pow10Min]
	h := q + (-k*1741647)>>19 + 1
	vb := roundToOdd(g, cb<<h)
	vbl := roundToOdd(g, cbl<<h) + odd
	vbr := roundToOdd(g, cbr<<h) - odd
	// s = ⌊v·10^-k⌋ ≥ 2^52. One digit shorter, the candidates are sp and
	// sp+1 times 10^(k+1); otherwise s and s+1 times 10^k.
	s := vb >> 2
	sp := s / 10
	if upin, wpin := vbl <= 40*sp, 40*sp+40 <= vbr; upin != wpin {
		if wpin {
			sp++
		}
		return sp, k + 1
	}
	if uin, win := vbl <= 4*s, 4*s+4 <= vbr; uin != win {
		if win {
			s++
		}
		return s, k
	}
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// roundToOdd returns ⌊g·cp / 2^128⌋, its last bit set when the exact
// quotient is not an integer: g overstates its power of ten by less than
// one unit, so an integer quotient leaves 0 or 1 in the next 64 bits.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z, carry := bits.Add64(y0, x1, 0)
	if z > 1 {
		return (y1 + carry) | 1
	}
	return y1 + carry
}

var pow10Ints = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17}

// appendFixedDecimal appends d·10^k (0 < d < 10^17) in fixed notation
// without trailing zeros after the point.
func appendFixedDecimal(dst []byte, d uint64, k int) []byte {
	for k < 0 && d%10 == 0 {
		d /= 10
		k++
	}
	n := bits.Len64(d) * 1233 >> 12 // ⌊log10 2^bits⌋: the digit count or one less
	if d >= pow10Ints[n] {
		n++
	}
	i := len(dst)
	dst = slices.Grow(dst, 24) // "0.00000" and 17 digits, or 21 integer digits
	b := dst[i : i+24]
	switch point := n + k; {
	case k >= 0: // an integer: the digits, then k zeros
		putDigits(b[:n], d)
		copy(b[n:point], "000000000000000000000")
		return dst[:i+point]
	case point > 0: // the digits one place right, then the integer part back over the gap
		putDigits(b[1:n+1], d)
		for j := 0; j < point; j++ {
			b[j] = b[j+1]
		}
		b[point] = '.'
		return dst[:i+n+1]
	default: // "0." and -point zeros before the digits
		z := 2 - point
		copy(b[:z], "0.00000")
		putDigits(b[z:z+n], d)
		return dst[:i+z+n]
	}
}

// digitPairs[r] is the two digits of r < 100 as one little-endian
// uint16, so a pair is one load and one store.
var digitPairs = func() (t [100]uint16) {
	for r := range t {
		t[r] = uint16('0'+r/10) | uint16('0'+r%10)<<8
	}
	return t
}()

// putDigits fills b with the len(b) digits of d. Eight-digit chunks
// from the right go through uint32 arithmetic as two independent
// halves, two digits at a time.
func putDigits(b []byte, d uint64) {
	for len(b) >= 8 {
		hi := d / 1e8
		lo := uint32(d - hi*1e8)
		put4(b[len(b)-8:], lo/1e4)
		put4(b[len(b)-4:], lo%1e4)
		b, d = b[:len(b)-8], hi
	}
	v := uint32(d)
	for ; len(b) > 1; b = b[:len(b)-2] {
		binary.LittleEndian.PutUint16(b[len(b)-2:], digitPairs[v%100])
		v /= 100
	}
	if len(b) == 1 {
		b[0] = byte('0' + v)
	}
}

// put4 writes the four digits of v < 10000 into b[:4].
func put4(b []byte, v uint32) {
	binary.LittleEndian.PutUint16(b, digitPairs[v/100])
	binary.LittleEndian.PutUint16(b[2:], digitPairs[v%100])
}
