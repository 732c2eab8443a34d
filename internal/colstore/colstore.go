// Package colstore implements the columnar sidecar of the scan
// engine: per-partition structure-of-arrays columns holding every
// record's envelope bounds and temporal interval, Hilbert-sorted so
// spatially-near records are cache-near, plus branch-free batched
// kernels that evaluate the coarse (envelope/interval) part of a
// spatio-temporal predicate over column chunks into a survivor bitset.
// A partition of points at instants holds three arrays, 24 B a row:
// its max bounds and ends share the arrays of its min bounds and
// starts.
//
// The row scan evaluates one closure per record over []Tuple[V] —
// pointer-chasing through interface geometries for a test that, for
// the overwhelming majority of records, only needs four float64
// compares. The sidecar re-lays exactly those floats as parallel
// slices: a filter sweeps the columns in chunks (the kernels), and the
// exact geometry predicate runs only on the few rows whose envelopes
// survive. Correctness never depends on the kernels being tight —
// they are conservative (a survivor may still fail the exact check,
// a rejected row provably cannot match) — so the exact refinement
// keeps results identical to the row scan, element for element.
package colstore

import (
	"math/bits"
	"slices"
	"sync"

	"stark/internal/geom"
	"stark/internal/partition"
)

// chunkRows is the kernel batch size: 64 bitset words per chunk, small
// enough that a chunk's four float64 columns (two distinct arrays for a
// partition of points) stay L1/L2-resident while the kernel sweeps them.
const chunkRows = 4096

// Partition holds the SoA columns of one partition, in Hilbert (or
// insertion) row order. The row index of every column refers to the
// reordered row slice the builder returns alongside.
type Partition struct {
	n int
	// Envelope bounds, one entry per row. Empty envelopes keep their
	// ±Inf sentinel bounds, which fail every kernel comparison — an
	// empty-geometry record is rejected coarse, matching the exact
	// predicates, which never match empty geometries. MaxX and MaxY may
	// share MinX's and MinY's arrays (see Finish); read them, never
	// write.
	MinX, MinY, MaxX, MaxY []float64
	// Temporal interval bounds; meaningful only where the timed bitset
	// is set. TEnd may share TStart's array.
	TStart, TEnd []int64
	// timed marks rows that carry a temporal component.
	timed []uint64
}

// Len returns the row count.
func (p *Partition) Len() int { return p.n }

// Builder accumulates rows and finishes into a Partition. Not safe for
// concurrent use; build one per partition task.
type Builder struct {
	p   Partition
	mbr geom.Envelope
}

// NewBuilder returns a builder preallocated for capacity rows
// (capacity <= 0 starts empty).
func NewBuilder(capacity int) *Builder {
	b := &Builder{mbr: geom.EmptyEnvelope()}
	if capacity > 0 {
		b.p.MinX = make([]float64, 0, capacity)
		b.p.MinY = make([]float64, 0, capacity)
		b.p.MaxX = make([]float64, 0, capacity)
		b.p.MaxY = make([]float64, 0, capacity)
		b.p.TStart = make([]int64, 0, capacity)
		b.p.TEnd = make([]int64, 0, capacity)
	}
	return b
}

// Add appends one row: the record's envelope and, when timed, its
// interval bounds.
func (b *Builder) Add(env geom.Envelope, tstart, tend int64, timed bool) {
	i := b.p.n
	b.p.MinX = append(b.p.MinX, env.MinX)
	b.p.MinY = append(b.p.MinY, env.MinY)
	b.p.MaxX = append(b.p.MaxX, env.MaxX)
	b.p.MaxY = append(b.p.MaxY, env.MaxY)
	b.p.TStart = append(b.p.TStart, tstart)
	b.p.TEnd = append(b.p.TEnd, tend)
	if i%64 == 0 {
		b.p.timed = append(b.p.timed, 0)
	}
	if timed {
		b.p.timed[i/64] |= 1 << uint(i%64)
	}
	b.mbr = b.mbr.ExpandToInclude(env)
	b.p.n++
}

// Finish seals the builder into a Partition. With hilbert true the
// rows are sorted by the Hilbert key of their envelope centers over
// the partition's MBR, and perm maps the new row order back to the
// insertion order (perm[newRow] = oldRow) so the caller can reorder
// its record slice identically; with hilbert false (or nothing to
// sort) perm is nil and insertion order is kept. A column that repeats
// another on every row is not kept twice: when every row is a point
// MaxX and MaxY share MinX's and MinY's backing arrays, and when every
// row is an instant TEnd shares TStart's. An empty envelope's ±Inf
// sentinels and a NaN bound compare unequal, so such a partition keeps
// all six columns. The builder must not be used afterwards.
func (b *Builder) Finish(hilbert bool) (p *Partition, perm []int32) {
	in := &b.p
	if hilbert && in.n >= 2 {
		perm = b.hilbertOrder()
	}
	p = &Partition{n: in.n, MinX: gather(in.MinX, perm), MinY: gather(in.MinY, perm), TStart: gather(in.TStart, perm), timed: in.timed}
	p.MaxX, p.MaxY, p.TEnd = p.MinX, p.MinY, p.TStart
	if !slices.Equal(in.MinX, in.MaxX) || !slices.Equal(in.MinY, in.MaxY) {
		p.MaxX, p.MaxY = gather(in.MaxX, perm), gather(in.MaxY, perm)
	}
	if !slices.Equal(in.TStart, in.TEnd) {
		p.TEnd = gather(in.TEnd, perm)
	}
	if perm != nil {
		p.timed = make([]uint64, len(in.timed))
		for newRow, oldRow := range perm {
			if in.timed[oldRow/64]&(1<<uint(oldRow%64)) != 0 {
				p.timed[newRow/64] |= 1 << uint(newRow%64)
			}
		}
	}
	return p, perm
}

// hilbertOrder returns the rows in the order of the Hilbert keys of
// their envelope centres over the partition's MBR.
func (b *Builder) hilbertOrder() []int32 {
	enc := partition.NewHilbertEncoder(b.mbr, 0)
	keys := make([]uint64, b.p.n)
	perm := make([]int32, b.p.n)
	for i := range perm {
		env := geom.Envelope{MinX: b.p.MinX[i], MinY: b.p.MinY[i], MaxX: b.p.MaxX[i], MaxY: b.p.MaxY[i]}
		keys[i] = enc.KeyEnvelope(env)
		perm[i] = int32(i)
	}
	// Stable on the insertion index so equal keys keep their relative
	// order — the sort is then deterministic for differential tests.
	sortPermByKey(perm, keys)
	return perm
}

// gather returns src in perm order (src itself when perm is nil).
func gather[T any](src []T, perm []int32) []T {
	if perm == nil {
		return src
	}
	dst := make([]T, len(perm))
	for i, old := range perm {
		dst[i] = src[old]
	}
	return dst
}

// sortPermByKey stable-sorts perm by keys[perm[i]] — a bottom-up merge
// sort on int32 indexes, allocation-bounded and key-cached.
func sortPermByKey(perm []int32, keys []uint64) {
	n := len(perm)
	buf := make([]int32, n)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			if mid >= n {
				break
			}
			hi := mid + width
			if hi > n {
				hi = n
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if keys[perm[i]] <= keys[perm[j]] {
					buf[k] = perm[i]
					i++
				} else {
					buf[k] = perm[j]
					j++
				}
				k++
			}
			copy(buf[k:], perm[i:mid])
			copy(buf[k+(mid-i):], perm[j:hi])
			copy(perm[lo:hi], buf[lo:hi])
		}
	}
}

// Bitset is a fixed-size survivor bitset the kernels AND into. Its reset
// initialises every row bit to 1 (and the tail of the last word to 0),
// so a sequence of kernel calls computes the conjunction of their
// coarse predicates.
type Bitset struct {
	words []uint64
	n     int
}

// reset sizes the bitset for n rows with every row bit set.
func (b *Bitset) reset(n int) {
	nw := (n + 63) / 64
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
	}
	b.words = b.words[:nw]
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if tail := n % 64; tail != 0 && nw > 0 {
		b.words[nw-1] = (1 << uint(tail)) - 1
	}
	b.n = n
}

// ClearAll sizes the bitset for n rows with every bit clear — the
// starting state for building a postings bitset with Set.
func (b *Bitset) ClearAll(n int) {
	nw := (n + 63) / 64
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
	}
	b.words = b.words[:nw]
	for i := range b.words {
		b.words[i] = 0
	}
	b.n = n
}

// Set sets row bit i.
func (b *Bitset) Set(i int) { b.words[i/64] |= 1 << uint(i%64) }

// And intersects b with o in place. Both bitsets must be sized for
// the same row count (they index the same partition's row order).
func (b *Bitset) And(o *Bitset) {
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// Count returns the number of set bits — the survivor count.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Visit calls fn for every set row index in ascending order, stopping
// early when fn returns false.
func (b *Bitset) Visit(fn func(row int) bool) {
	for wi, w := range b.words {
		base := wi * 64
		for w != 0 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
			w &= w - 1
		}
	}
}

// bitsetPool recycles bitsets across filter invocations, so the kernel
// path allocates nothing per query in steady state.
var bitsetPool = sync.Pool{New: func() interface{} { return new(Bitset) }}

// GetBitset returns a pooled bitset reset for n rows.
func GetBitset(n int) *Bitset {
	b := bitsetPool.Get().(*Bitset)
	b.reset(n)
	return b
}

// PutBitset returns a bitset to the pool.
func PutBitset(b *Bitset) { bitsetPool.Put(b) }
