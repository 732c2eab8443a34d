// Package colstore implements the columnar sidecar of the scan
// engine: per-partition structure-of-arrays columns holding every
// record's envelope bounds and temporal interval in the order of the
// rows they describe, plus branch-free batched kernels that evaluate
// the coarse (envelope/interval) part of a spatio-temporal predicate
// over column chunks into a survivor bitset. Column row i is the
// partition's row i, so a survivor bit is a row position. The rows
// come spatially compact: in an R-tree's leaf order, or laid out along
// a Hilbert curve (HilbertOrder) when no tree laid them out, so
// spatially-near records are cache-near.
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
	"math"
	"math/bits"
	"sync"

	"stark/internal/geom"
)

// chunkRows is the kernel batch size: 64 bitset words per chunk, small
// enough that a chunk's four float64 columns (two distinct arrays for a
// partition of points) stay L1/L2-resident while the kernel sweeps them.
const chunkRows = 4096

// Partition holds the SoA columns of one partition, in the order the
// rows were added: the row index of every column is the position of
// the row it describes.
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
	p Partition
}

// NewBuilder returns a builder preallocated for capacity rows
// (capacity <= 0 starts empty). MaxX, MaxY and TEnd are not allocated
// until a row needs them (see Add).
func NewBuilder(capacity int) *Builder {
	b := &Builder{}
	if capacity > 0 {
		b.p.MinX = make([]float64, 0, capacity)
		b.p.MinY = make([]float64, 0, capacity)
		b.p.TStart = make([]int64, 0, capacity)
	}
	return b
}

// Add appends one row: the record's envelope and, when timed, its
// interval bounds. While every row is a point, MaxX and MaxY stay nil,
// and while every row is an instant TEnd does: the first row that is
// not gives them their own arrays, which take a copy of the columns
// they repeated so far. A NaN bound or an empty envelope's ±Inf
// sentinels are no point.
func (b *Builder) Add(env geom.Envelope, tstart, tend int64, timed bool) {
	i := b.p.n
	if b.p.MaxX == nil && !(sameBits(env.MinX, env.MaxX) && sameBits(env.MinY, env.MaxY)) {
		b.p.MaxX, b.p.MaxY = own(b.p.MinX), own(b.p.MinY)
	}
	if b.p.TEnd == nil && tstart != tend {
		b.p.TEnd = own(b.p.TStart)
	}
	b.p.MinX = append(b.p.MinX, env.MinX)
	b.p.MinY = append(b.p.MinY, env.MinY)
	if b.p.MaxX != nil {
		b.p.MaxX = append(b.p.MaxX, env.MaxX)
		b.p.MaxY = append(b.p.MaxY, env.MaxY)
	}
	b.p.TStart = append(b.p.TStart, tstart)
	if b.p.TEnd != nil {
		b.p.TEnd = append(b.p.TEnd, tend)
	}
	if i%64 == 0 {
		b.p.timed = append(b.p.timed, 0)
	}
	if timed {
		b.p.timed[i/64] |= 1 << uint(i%64)
	}
	b.p.n++
}

// Finish seals the builder into a Partition, its rows in insertion
// order: column row i is the i-th row added. A column that repeats
// another on every row is not kept twice: when every row is a point
// MaxX and MaxY share MinX's and MinY's backing arrays, and when every
// row is an instant TEnd shares TStart's. With hilbert true (and two
// rows or more) the columns are instead built again in HilbertOrder,
// and perm maps the new row order back to the insertion order
// (perm[newRow] = oldRow); a caller that keeps rows beside the columns
// lays the rows out first and builds their columns as they are, so
// that column row i is its row i. The builder must not be used
// afterwards.
func (b *Builder) Finish(hilbert bool) (p *Partition, perm []int32) {
	p = &b.p
	if p.MaxX == nil {
		p.MaxX, p.MaxY = p.MinX, p.MinY
	}
	if p.TEnd == nil {
		p.TEnd = p.TStart
	}
	if !hilbert || p.n < 2 {
		return p, nil
	}
	perm = HilbertOrder(p.n, p.envelope)
	sorted := NewBuilder(p.n)
	for _, i := range perm {
		sorted.Add(p.envelope(int(i)), p.TStart[i], p.TEnd[i], p.timed[i/64]&(1<<uint(i%64)) != 0)
	}
	p, _ = sorted.Finish(false)
	return p, perm
}

// envelope returns row i's envelope.
func (p *Partition) envelope(i int) geom.Envelope {
	return geom.Envelope{MinX: p.MinX[i], MinY: p.MinY[i], MaxX: p.MaxX[i], MaxY: p.MaxY[i]}
}

// HilbertOrder returns the order of n rows along a Hilbert curve of
// their envelope centres over the rows' MBR (order[i] is the row that
// goes i-th), equal keys in row order so the order is deterministic
// for differential tests. env is called twice per row. Rows that no
// R-tree laid out are laid out in this order before their columns are
// built, so the survivors of a small window are contiguous.
func HilbertOrder(n int, env func(i int) geom.Envelope) []int32 {
	mbr := geom.EmptyEnvelope()
	for i := range n {
		mbr = mbr.ExpandToInclude(env(i))
	}
	enc := newHilbertEncoder(mbr)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = enc.key(env(i))
	}
	return geom.OrderByKey(keys)
}

// hilbertSide is the side of the grid of cells the Hilbert curve
// visits: 2^16 cells per dimension, fine enough that distinct
// coordinates in any realistic data space land in distinct cells, while
// a key needs 32 bits.
const hilbertSide = 1 << 16

// hilbertEncoder maps envelope centres to the Hilbert keys of their
// cells over a data space. Coordinates are scaled into the grid and
// clamped into range, so a centre on the space's MaxX or MaxY edge
// snaps into the last cell, as Grid's cells snap the data-space edge.
// An empty space degenerates to a single cell (every key is 0), which
// keeps the encoder total over empty partitions.
type hilbertEncoder struct {
	minX, minY   float64
	cellW, cellH float64
}

func newHilbertEncoder(space geom.Envelope) hilbertEncoder {
	h := hilbertEncoder{minX: space.MinX, minY: space.MinY}
	if !space.IsEmpty() {
		h.cellW = space.Width() / hilbertSide
		h.cellH = space.Height() / hilbertSide
	}
	return h
}

// key returns the Hilbert key of the envelope's centre; the empty
// envelope keys to 0.
func (h hilbertEncoder) key(e geom.Envelope) uint64 {
	if e.IsEmpty() {
		return 0
	}
	c := e.Center()
	return hilbertKey(hilbertCell(c.X, h.minX, h.cellW), hilbertCell(c.Y, h.minY, h.cellH))
}

// hilbertCell returns the clamped cell of coordinate v. A non-finite
// coordinate (the centre of an unbounded envelope) or a zero-width
// space clamps to cell 0.
func hilbertCell(v, origin, cell float64) uint32 {
	if cell <= 0 {
		return 0
	}
	c := (v - origin) / cell
	if c != c || c < 0 {
		return 0
	}
	if c >= hilbertSide {
		return hilbertSide - 1
	}
	return uint32(c)
}

// hilbertKey returns the distance of cell (x, y) along the Hilbert
// curve over the 2^16 × 2^16 grid, four bits of each coordinate at a
// time through hilbertTable: Lam & Shapiro's state machine ("A class of
// fast algorithms for the Peano-Hilbert space-filling curve", ICIP
// 1994).
func hilbertKey(x, y uint32) uint64 {
	var d uint64
	var state uint16
	for shift := 12; shift >= 0; shift -= 4 {
		e := hilbertTable[state&3][byte(x>>shift&15)<<4|byte(y>>shift&15)]
		d = d<<8 | uint64(e&0xff)
		state = e >> 8
	}
	return d
}

// hilbertTable[state][x<<4|y], for 4-bit x and y, holds the 8 key bits
// those four levels of the curve add (the low byte) and the state they
// leave (above it). A state is the transform the levels above apply to
// the cell's remaining bits: bit 0 swaps x and y, bit 1 complements
// both. The entries follow the per-bit rule: at each level the
// transformed bits (rx, ry) add the digit (3·rx) xor ry, and a level
// with ry = 0 swaps the quadrant, complementing it first when rx = 1.
var hilbertTable = func() (t [4][256]uint16) {
	for state := range t {
		for xy := range t[state] {
			s := uint16(state)
			var d uint16
			for bit := 3; bit >= 0; bit-- {
				rx, ry := uint16(xy>>(4+bit)&1), uint16(xy>>bit&1)
				if s&2 != 0 {
					rx, ry = rx^1, ry^1
				}
				if s&1 != 0 {
					rx, ry = ry, rx
				}
				d = d<<2 | (3*rx ^ ry)
				if ry == 0 {
					s ^= 1 | rx<<1
				}
			}
			t[state][xy] = s<<8 | d
		}
	}
	return t
}()

// own returns a copy of col with col's capacity, for the column that
// repeated col up to now.
func own[T any](col []T) []T { return append(make([]T, 0, cap(col)), col...) }

// sameBits reports whether a and b are one number bit for bit: NaN is
// not, nor are −0 and +0.
func sameBits(a, b float64) bool { return a == b && math.Float64bits(a) == math.Float64bits(b) }

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
