package partition

import (
	"math"
	"math/rand"
	"testing"

	"stark/internal/geom"
)

// TestHilbertRoundTrip pins d2xy as the exact inverse of xy2d:
// exhaustively for small orders, sampled for the default order.
// hilbertD2XY is the inverse of hilbertXY2D: it maps a distance along
// the curve back to its cell — the round-trip the property tests pin.
func hilbertD2XY(order int, d uint64) (x, y uint32) {
	order = clampOrder(order)
	t := d
	for s := uint32(1); s < uint32(1)<<order; s <<= 1 {
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & (uint32(t) ^ rx)
		x, y = hilbertRot(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

func TestHilbertRoundTrip(t *testing.T) {
	for order := 1; order <= 5; order++ {
		side := uint32(1) << order
		for x := uint32(0); x < side; x++ {
			for y := uint32(0); y < side; y++ {
				d := hilbertXY2D(order, x, y)
				gx, gy := hilbertD2XY(order, d)
				if gx != x || gy != y {
					t.Fatalf("order %d: (%d,%d) -> %d -> (%d,%d)", order, x, y, d, gx, gy)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	side := uint64(1) << defaultHilbertOrder
	for i := 0; i < 10000; i++ {
		x := uint32(rng.Uint64() % side)
		y := uint32(rng.Uint64() % side)
		d := hilbertXY2D(defaultHilbertOrder, x, y)
		gx, gy := hilbertD2XY(defaultHilbertOrder, d)
		if gx != x || gy != y {
			t.Fatalf("order %d: (%d,%d) -> %d -> (%d,%d)", defaultHilbertOrder, x, y, d, gx, gy)
		}
	}
}

// TestHilbertKeysCoverCurve checks xy2d is a bijection onto
// [0, 4^order) for small orders — no key collisions, no gaps.
func TestHilbertKeysCoverCurve(t *testing.T) {
	for order := 1; order <= 5; order++ {
		side := uint32(1) << order
		seen := make([]bool, int(side)*int(side))
		for x := uint32(0); x < side; x++ {
			for y := uint32(0); y < side; y++ {
				d := hilbertXY2D(order, x, y)
				if d >= uint64(len(seen)) {
					t.Fatalf("order %d: key %d out of range", order, d)
				}
				if seen[d] {
					t.Fatalf("order %d: key %d assigned twice", order, d)
				}
				seen[d] = true
			}
		}
	}
}

// TestHilbertLocality is the locality property that makes the sort
// worthwhile: cells adjacent on the curve (consecutive keys) are
// adjacent in the grid (Manhattan distance exactly 1).
func TestHilbertLocality(t *testing.T) {
	for order := 1; order <= 6; order++ {
		total := uint64(1) << uint(2*order)
		px, py := hilbertD2XY(order, 0)
		for d := uint64(1); d < total; d++ {
			x, y := hilbertD2XY(order, d)
			if manhattan(px, x)+manhattan(py, y) != 1 {
				t.Fatalf("order %d: d=%d jumps from (%d,%d) to (%d,%d)", order, d, px, py, x, y)
			}
			px, py = x, y
		}
	}
	// Sampled at the default order, where exhaustion is infeasible.
	rng := rand.New(rand.NewSource(11))
	total := uint64(1) << uint(2*defaultHilbertOrder)
	for i := 0; i < 10000; i++ {
		d := rng.Uint64() % (total - 1)
		x0, y0 := hilbertD2XY(defaultHilbertOrder, d)
		x1, y1 := hilbertD2XY(defaultHilbertOrder, d+1)
		if manhattan(x0, x1)+manhattan(y0, y1) != 1 {
			t.Fatalf("d=%d jumps from (%d,%d) to (%d,%d)", d, x0, y0, x1, y1)
		}
	}
}

func manhattan(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestHilbertEncoderSnapping pins the encoder's cell assignment to the
// same clamped data-space snapping as Grid's cells: edge
// coordinates land in the last cell, out-of-range and non-finite
// coordinates clamp, the empty space degenerates to key 0.
func TestHilbertEncoderSnapping(t *testing.T) {
	space := geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 50}
	enc := NewHilbertEncoder(space, 8)
	side := uint32(1) << 8

	cases := []struct {
		name string
		p    geom.Point
		x, y uint32
	}{
		{"min corner", geom.Point{X: 0, Y: 0}, 0, 0},
		{"max corner snaps into last cell", geom.Point{X: 100, Y: 50}, side - 1, side - 1},
		{"max-x edge", geom.Point{X: 100, Y: 0}, side - 1, 0},
		{"beyond max clamps", geom.Point{X: 1e9, Y: 1e9}, side - 1, side - 1},
		{"below min clamps", geom.Point{X: -5, Y: -5}, 0, 0},
		{"nan clamps to origin", geom.Point{X: math.NaN(), Y: math.NaN()}, 0, 0},
	}
	for _, tc := range cases {
		x, y := enc.cell(tc.p)
		if x != tc.x || y != tc.y {
			t.Errorf("%s: cell(%v) = (%d,%d), want (%d,%d)", tc.name, tc.p, x, y, tc.x, tc.y)
		}
	}

	// A point epsilon inside the max edge shares the last cell with
	// the snapped edge point — the stability property: snapping never
	// creates a key discontinuity at the data-space border.
	inside := enc.key(geom.Point{X: math.Nextafter(100, 0), Y: math.Nextafter(50, 0)})
	edge := enc.key(geom.Point{X: 100, Y: 50})
	if inside != edge {
		t.Fatalf("edge snapping unstable: inside key %d != edge key %d", inside, edge)
	}

	if k := enc.KeyEnvelope(geom.EmptyEnvelope()); k != 0 {
		t.Fatalf("empty envelope key = %d, want 0", k)
	}
	degenerate := NewHilbertEncoder(geom.Envelope{MinX: 3, MinY: 4, MaxX: 3, MaxY: 4}, 8)
	if k := degenerate.key(geom.Point{X: 3, Y: 4}); k != 0 {
		t.Fatalf("degenerate-space key = %d, want 0", k)
	}
	empty := NewHilbertEncoder(geom.EmptyEnvelope(), 8)
	if k := empty.key(geom.Point{X: 1, Y: 2}); k != 0 {
		t.Fatalf("empty-space key = %d, want 0", k)
	}
}
