package partition

// Hilbert space-filling curve encoding. The columnar scan engine sorts
// the rows of every partition by the Hilbert key of their envelope
// centers, so records that are near in space end up near in memory —
// the locality that makes batched envelope kernels stream cache lines
// instead of chasing pointers.

import (
	"math"

	"stark/internal/geom"
)

// defaultHilbertOrder is the curve order used when callers pass <= 0:
// 2^16 cells per dimension, fine enough that distinct coordinates in
// any realistic data space land in distinct cells, while keys stay
// well inside a uint64 (order 16 needs 32 bits).
const defaultHilbertOrder = 16

// maxHilbertOrder bounds the order so that d = x*y cell products never
// overflow uint64 (2*order bits per key).
const maxHilbertOrder = 31

// hilbertXY2D maps cell (x, y) of a 2^order × 2^order grid to its
// distance along the Hilbert curve. Coordinates beyond the grid are
// taken modulo the grid side (callers are expected to clamp).
func hilbertXY2D(order int, x, y uint32) uint64 {
	order = clampOrder(order)
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		x, y = hilbertRot(uint32(1)<<order, x, y, rx, ry)
	}
	return d
}

// hilbertRot rotates/flips a quadrant of side n.
func hilbertRot(n, x, y, rx, ry uint32) (uint32, uint32) {
	if ry == 0 {
		if rx == 1 {
			x = n - 1 - x
			y = n - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

func clampOrder(order int) int {
	if order <= 0 {
		return defaultHilbertOrder
	}
	if order > maxHilbertOrder {
		return maxHilbertOrder
	}
	return order
}

// HilbertEncoder maps points of a data-space envelope to Hilbert keys.
// Cell assignment mirrors Grid's cells: coordinates are scaled into the
// 2^order grid and clamped into range, so a point exactly on the
// data-space MaxX/MaxY edge snaps into the last cell — consistent with
// the data-space envelope snapping of Grid.bounds.
type HilbertEncoder struct {
	space geom.Envelope
	order int
	side  uint32
	cellW float64
	cellH float64
}

// NewHilbertEncoder returns an encoder over space; order <= 0 selects
// defaultHilbertOrder. An empty space degenerates to a single cell
// (every key is 0), which keeps callers total over empty partitions.
func NewHilbertEncoder(space geom.Envelope, order int) HilbertEncoder {
	order = clampOrder(order)
	h := HilbertEncoder{space: space, order: order, side: uint32(1) << order}
	if !space.IsEmpty() {
		h.cellW = space.Width() / float64(h.side)
		h.cellH = space.Height() / float64(h.side)
	}
	return h
}

// cell returns the clamped grid cell of p. Non-finite coordinates
// (the center of an empty envelope is NaN) clamp to cell (0, 0).
func (h HilbertEncoder) cell(p geom.Point) (x, y uint32) {
	return h.cellCoord(p.X, h.space.MinX, h.cellW), h.cellCoord(p.Y, h.space.MinY, h.cellH)
}

func (h HilbertEncoder) cellCoord(v, min, cell float64) uint32 {
	if cell <= 0 {
		return 0
	}
	c := (v - min) / cell
	if math.IsNaN(c) || c < 0 {
		return 0
	}
	if c >= float64(h.side) {
		return h.side - 1
	}
	return uint32(c)
}

// key returns the Hilbert key of p's cell.
func (h HilbertEncoder) key(p geom.Point) uint64 {
	x, y := h.cell(p)
	return hilbertXY2D(h.order, x, y)
}

// KeyEnvelope returns the Hilbert key of the envelope's center; the
// empty envelope keys to 0.
func (h HilbertEncoder) KeyEnvelope(e geom.Envelope) uint64 {
	if e.IsEmpty() {
		return 0
	}
	return h.key(e.Center())
}
