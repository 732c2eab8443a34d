package geom

import "math"

// This file holds the one sort the build steps share (the columnar
// sidecar's Hilbert order, the x order of a partition of points, the
// postings of an attribute column) and the one key that orders floats
// for it.

// FloatKey maps f to a uint64 that orders as cmp.Compare orders floats:
// every NaN is 0, below every number, and −0 is +0; a negative f has
// every bit flipped, any other the sign bit set.
func FloatKey(f float64) uint64 {
	if f != f {
		return 0
	}
	if f == 0 {
		f = 0
	}
	b := math.Float64bits(f)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}

// OrderByKey returns the indexes of keys in ascending order of their
// keys, equal keys in index order, and overwrites keys. It is a least
// significant digit radix sort over the key bytes, each pass stable:
// the bytes are counted before the passes, and a byte all keys share is
// skipped. When every key is below 2^32 (a Hilbert key, a string's
// rank) the passes move key<<32|index words, half the bytes, between
// keys and one more array, and the four high bytes are never counted;
// otherwise they move each key and its index between keys and a second
// key array and between two index arrays.
func OrderByKey(keys []uint64) []int32 {
	n := len(keys)
	var counts [8][256]int
	var all uint64
	for _, k := range keys {
		all |= k
		for d := range 4 {
			counts[d][byte(k>>(8*d))]++
		}
	}
	order := make([]int32, n)
	if all>>32 == 0 {
		for i, k := range keys {
			keys[i] = k<<32 | uint64(i)
		}
		src, dst := keys, make([]uint64, n)
		for d := range 4 {
			if !offsets(&counts[d], n) {
				continue
			}
			for _, w := range src {
				b := byte(w >> (32 + 8*d))
				dst[counts[d][b]] = w
				counts[d][b]++
			}
			src, dst = dst, src
		}
		for i, w := range src {
			order[i] = int32(w)
		}
		return order
	}
	for i, k := range keys {
		order[i] = int32(i)
		for d := 4; d < 8; d++ {
			counts[d][byte(k>>(8*d))]++
		}
	}
	keys2, order2 := make([]uint64, n), make([]int32, n)
	for d := range counts {
		if !offsets(&counts[d], n) {
			continue
		}
		for i, k := range keys {
			b := byte(k >> (8 * d))
			keys2[counts[d][b]], order2[counts[d][b]] = k, order[i]
			counts[d][b]++
		}
		keys, keys2 = keys2, keys
		order, order2 = order2, order
	}
	return order
}

// offsets turns the counts of one byte's values into the position of
// each value's first key, and reports false instead when one value
// holds all n keys, which leaves a pass nothing to move.
func offsets(c *[256]int, n int) bool {
	next := 0
	for b, v := range c {
		if v == n {
			return false
		}
		c[b], next = next, next+v
	}
	return true
}
