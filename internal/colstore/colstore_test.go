package colstore

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"stark/internal/geom"
)

type refRow struct {
	env    geom.Envelope
	ts, te int64
	timed  bool
}

func randRows(rng *rand.Rand, n int) []refRow {
	rows := make([]refRow, n)
	for i := range rows {
		x := rng.Float64() * 100
		y := rng.Float64() * 100
		w := rng.Float64() * 5
		h := rng.Float64() * 5
		rows[i] = refRow{
			env:   geom.Envelope{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h},
			ts:    int64(rng.Intn(1000)),
			timed: rng.Intn(4) != 0,
		}
		rows[i].te = rows[i].ts + int64(rng.Intn(50))
		if i%97 == 0 {
			rows[i].env = geom.EmptyEnvelope() // empty geometries must fail every kernel
		}
	}
	return rows
}

func buildPartition(rows []refRow, hilbert bool) (*Partition, []int32) {
	b := NewBuilder(len(rows))
	for _, r := range rows {
		b.Add(r.env, r.ts, r.te, r.timed)
	}
	return b.Finish(hilbert)
}

// refMatch is the scalar reference the kernels must agree with.
func refMatch(r refRow, q Query) bool {
	var spatial bool
	e := r.env
	switch q.Op {
	case OpIntersects, OpPrune:
		spatial = e.MinX <= q.MaxX && q.MinX <= e.MaxX && e.MinY <= q.MaxY && q.MinY <= e.MaxY
	case OpContains:
		spatial = e.MinX <= q.MinX && e.MaxX >= q.MaxX && e.MinY <= q.MinY && e.MaxY >= q.MaxY
	case OpContainedBy:
		spatial = e.MinX >= q.MinX && e.MaxX <= q.MaxX && e.MinY >= q.MinY && e.MaxY <= q.MaxY
	case OpWithinDistance:
		dx := math.Max(0, math.Max(q.MinX-e.MaxX, e.MinX-q.MaxX))
		dy := math.Max(0, math.Max(q.MinY-e.MaxY, e.MinY-q.MaxY))
		spatial = dx*dx+dy*dy <= q.Dist*q.Dist
	}
	if !spatial {
		return false
	}
	switch q.Time {
	case TimeNone:
		return true
	}
	if !q.HasTime {
		return !r.timed
	}
	if !r.timed {
		return false
	}
	switch q.Time {
	case TimeOverlap:
		return r.ts <= q.TEnd && q.TBegin <= r.te
	case TimeContains:
		return r.ts <= q.TBegin && q.TEnd <= r.te
	case TimeWithin:
		return q.TBegin <= r.ts && r.te <= q.TEnd
	}
	return false
}

func TestKernelsMatchScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Sizes straddle chunk and word boundaries.
	for _, n := range []int{0, 1, 63, 64, 65, 1000, chunkRows, chunkRows + 1, 3*chunkRows + 17} {
		rows := randRows(rng, n)
		p, perm := buildPartition(rows, false)
		if perm != nil {
			t.Fatalf("n=%d: non-hilbert build returned a permutation", n)
		}
		ops := []Op{OpIntersects, OpContains, OpContainedBy, OpWithinDistance, OpPrune}
		modes := []TimeMode{TimeNone, TimeOverlap, TimeContains, TimeWithin}
		for _, op := range ops {
			for _, mode := range modes {
				for _, hasTime := range []bool{false, true} {
					q := Query{
						Op:   op,
						MinX: 20, MinY: 20, MaxX: 60, MaxY: 55,
						Dist: 7,
						Time: mode, HasTime: hasTime,
						TBegin: 100, TEnd: 400,
					}
					bs := GetBitset(p.Len())
					batches := Filter(p, q, bs)
					wantBatches := (n + chunkRows - 1) / chunkRows
					if batches != wantBatches {
						t.Fatalf("n=%d op=%d: batches=%d want %d", n, op, batches, wantBatches)
					}
					got := make([]bool, n)
					bs.Visit(func(row int) bool { got[row] = true; return true })
					count := 0
					for i, r := range rows {
						want := refMatch(r, q)
						if want {
							count++
						}
						if got[i] != want {
							t.Fatalf("n=%d op=%d mode=%d hasTime=%t row %d: kernel=%t ref=%t (env=%v timed=%t ts=%d te=%d)",
								n, op, mode, hasTime, i, got[i], want, r.env, r.timed, r.ts, r.te)
						}
					}
					if bs.Count() != count {
						t.Fatalf("count=%d want %d", bs.Count(), count)
					}
					PutBitset(bs)
				}
			}
		}
	}
}

// TestKernelConjunction checks sweeps compose by AND: two predicates
// through one bitset equal the intersection of their individual runs.
func TestKernelConjunction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows := randRows(rng, 5000)
	p, _ := buildPartition(rows, false)
	q1 := Query{Op: OpIntersects, MinX: 10, MinY: 10, MaxX: 70, MaxY: 70, Time: TimeOverlap, HasTime: true, TBegin: 0, TEnd: 600}
	q2 := Query{Op: OpWithinDistance, MinX: 40, MinY: 40, MaxX: 40, MaxY: 40, Dist: 25, Time: TimeOverlap, HasTime: true, TBegin: 200, TEnd: 900}

	both := GetBitset(p.Len())
	Filter(p, q1, both)
	Filter(p, q2, both)
	for i, r := range rows {
		want := refMatch(r, q1) && refMatch(r, q2)
		got := both.words[i/64]&(1<<uint(i%64)) != 0
		if got != want {
			t.Fatalf("row %d: conjunction=%t want %t", i, got, want)
		}
	}
	PutBitset(both)
}

// TestHilbertFinishPermutation checks Finish(hilbert=true) returns a
// permutation that maps the sorted columns back to insertion order.
func TestHilbertFinishPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := randRows(rng, 4097)
	p, perm := buildPartition(rows, true)
	if perm == nil {
		t.Fatal("hilbert build returned nil permutation")
	}
	if p.Len() != len(rows) || len(perm) != len(rows) {
		t.Fatalf("len mismatch: %d %d %d", p.Len(), len(perm), len(rows))
	}
	seen := make([]bool, len(rows))
	for newRow, oldRow := range perm {
		if seen[oldRow] {
			t.Fatalf("old row %d appears twice", oldRow)
		}
		seen[oldRow] = true
		r := rows[oldRow]
		env := geom.Envelope{MinX: p.MinX[newRow], MinY: p.MinY[newRow], MaxX: p.MaxX[newRow], MaxY: p.MaxY[newRow]}
		if env != r.env {
			t.Fatalf("row %d: envelope %v != %v", newRow, env, r.env)
		}
		if p.TStart[newRow] != r.ts || p.TEnd[newRow] != r.te {
			t.Fatalf("row %d: interval (%d,%d) != (%d,%d)", newRow, p.TStart[newRow], p.TEnd[newRow], r.ts, r.te)
		}
		timed := p.timed[newRow/64]&(1<<uint(newRow%64)) != 0
		if timed != r.timed {
			t.Fatalf("row %d: timed=%t want %t", newRow, timed, r.timed)
		}
	}
	// The sort must produce identical kernel results to the unsorted
	// layout modulo the permutation.
	q := Query{Op: OpIntersects, MinX: 20, MinY: 20, MaxX: 50, MaxY: 50, Time: TimeNone}
	unsorted, _ := buildPartition(rows, false)
	bsU := GetBitset(unsorted.Len())
	bsS := GetBitset(p.Len())
	Filter(unsorted, q, bsU)
	Filter(p, q, bsS)
	for newRow, oldRow := range perm {
		u := bsU.words[oldRow/64]&(1<<uint(oldRow%64)) != 0
		s := bsS.words[newRow/64]&(1<<uint(newRow%64)) != 0
		if u != s {
			t.Fatalf("row %d/%d: sorted=%t unsorted=%t", newRow, oldRow, s, u)
		}
	}
	PutBitset(bsU)
	PutBitset(bsS)
}

// TestHilbertSortImprovesRunLength sanity-checks the point of the
// sort: for clustered data, survivors of a small window query are more
// contiguous (fewer bitset words touched) after Hilbert ordering.
func TestHilbertSortImprovesRunLength(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var rows []refRow
	for c := 0; c < 16; c++ {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		for i := 0; i < 500; i++ {
			x, y := cx+rng.NormFloat64()*5, cy+rng.NormFloat64()*5
			rows = append(rows, refRow{env: geom.Envelope{MinX: x, MinY: y, MaxX: x, MaxY: y}})
		}
	}
	// Interleave clusters so insertion order has no locality at all.
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })

	q := Query{Op: OpIntersects, MinX: rows[0].env.MinX - 20, MinY: rows[0].env.MinY - 20,
		MaxX: rows[0].env.MinX + 20, MaxY: rows[0].env.MinY + 20, Time: TimeNone}
	wordsTouched := func(hilbert bool) int {
		p, _ := buildPartition(rows, hilbert)
		bs := GetBitset(p.Len())
		Filter(p, q, bs)
		n := 0
		for _, w := range bs.words {
			if w != 0 {
				n++
			}
		}
		PutBitset(bs)
		return n
	}
	sorted, unsorted := wordsTouched(true), wordsTouched(false)
	if sorted >= unsorted {
		t.Fatalf("hilbert sort did not improve locality: %d words touched sorted vs %d unsorted", sorted, unsorted)
	}
}

func TestBitsetTail(t *testing.T) {
	var b Bitset
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 130} {
		b.reset(n)
		if b.Count() != n {
			t.Fatalf("n=%d: fresh count %d", n, b.Count())
		}
		rows := 0
		last := -1
		b.Visit(func(r int) bool {
			if r <= last || r >= n {
				t.Fatalf("n=%d: visit out of order or range: %d after %d", n, r, last)
			}
			last = r
			rows++
			return true
		})
		if rows != n {
			t.Fatalf("n=%d: visited %d", n, rows)
		}
	}
	// Early stop.
	b.reset(200)
	visited := 0
	b.Visit(func(r int) bool { visited++; return visited < 5 })
	if visited != 5 {
		t.Fatalf("early stop visited %d", visited)
	}
}

func TestFilterAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rows := randRows(rng, 2*chunkRows)
	p, _ := buildPartition(rows, false)
	q := Query{Op: OpIntersects, MinX: 20, MinY: 20, MaxX: 60, MaxY: 60, Time: TimeOverlap, HasTime: true, TBegin: 0, TEnd: 500}
	// Warm the pool so steady state is measured.
	PutBitset(GetBitset(p.Len()))
	allocs := testing.AllocsPerRun(100, func() {
		bs := GetBitset(p.Len())
		Filter(p, q, bs)
		bs.Visit(func(int) bool { return true })
		PutBitset(bs)
	})
	if allocs > 0 {
		t.Fatalf("kernel path allocates %.1f per run, want 0", allocs)
	}
}

// pointRows returns n points at instants, a quarter of them untimed
// (an untimed row's interval is (0, 0), an instant too).
func pointRows(rng *rand.Rand, n int) []refRow {
	rows := make([]refRow, n)
	for i := range rows {
		x, y := rng.Float64()*100, rng.Float64()*100
		rows[i].env = geom.Envelope{MinX: x, MinY: y, MaxX: x, MaxY: y}
		if rows[i].timed = rng.Intn(4) != 0; rows[i].timed {
			rows[i].ts = int64(rng.Intn(1000))
			rows[i].te = rows[i].ts
		}
	}
	return rows
}

// sharing reports which columns share another's backing array.
func sharing(p *Partition) (x, y, t bool) {
	return &p.MaxX[0] == &p.MinX[0], &p.MaxY[0] == &p.MinY[0], &p.TEnd[0] == &p.TStart[0]
}

// envBits is an envelope's bounds bit for bit, so that NaN equals NaN.
func envBits(e geom.Envelope) [4]uint64 {
	return [4]uint64{math.Float64bits(e.MinX), math.Float64bits(e.MinY), math.Float64bits(e.MaxX), math.Float64bits(e.MaxY)}
}

// TestFinishSharesRepeatedColumns: on both paths, a partition of points
// at instants keeps three arrays, and a row that is not a point, not an
// instant or empty keeps the columns it needs. The values read back are
// the rows' either way.
func TestFinishSharesRepeatedColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	cases := []struct {
		name    string
		change  func(r *refRow)
		x, y, t bool // MaxX, MaxY and TEnd shared
	}{
		{"points at instants", func(*refRow) {}, true, true, true},
		{"one polygon", func(r *refRow) { r.env.MaxX += 1; r.env.MaxY += 2 }, false, false, true},
		{"one horizontal line", func(r *refRow) { r.env.MaxX += 2 }, false, false, true},
		{"one vertical line", func(r *refRow) { r.env.MaxY += 2 }, false, false, true},
		{"one interval", func(r *refRow) { r.timed, r.te = true, r.ts+5 }, true, true, false},
		{"one empty geometry", func(r *refRow) { r.env = geom.EmptyEnvelope() }, false, false, true},
		{"one NaN coordinate", func(r *refRow) { r.env.MinY, r.env.MaxY = math.NaN(), math.NaN() }, false, false, true},
	}
	for _, c := range cases {
		for _, hilbert := range []bool{false, true} {
			rows := pointRows(rng, 300)
			c.change(&rows[rng.Intn(len(rows))])
			p, perm := buildPartition(rows, hilbert)
			if x, y, tm := sharing(p); x != c.x || y != c.y || tm != c.t {
				t.Errorf("%s, hilbert=%t: MaxX/MaxY/TEnd shared %t/%t/%t, want %t/%t/%t",
					c.name, hilbert, x, y, tm, c.x, c.y, c.t)
			}
			for row := 0; row < p.Len(); row++ {
				r := rows[row]
				if perm != nil {
					r = rows[perm[row]]
				}
				env := geom.Envelope{MinX: p.MinX[row], MinY: p.MinY[row], MaxX: p.MaxX[row], MaxY: p.MaxY[row]}
				if envBits(env) != envBits(r.env) || p.TStart[row] != r.ts || p.TEnd[row] != r.te {
					t.Fatalf("%s, hilbert=%t, row %d: %v [%d, %d], want %v [%d, %d]",
						c.name, hilbert, row, env, p.TStart[row], p.TEnd[row], r.env, r.ts, r.te)
				}
			}
		}
	}
}

// TestHilbertFinishAllocatesOnlyKeptColumns: building and sorting
// points at instants allocates six fewer arrays than rows that keep six
// columns: three the builder never fills and three Finish never
// gathers.
func TestHilbertFinishAllocatesOnlyKeptColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	points := pointRows(rng, 1000)
	boxes := randRows(rng, 1000)
	allocs := func(rows []refRow) float64 {
		return testing.AllocsPerRun(20, func() { buildPartition(rows, true) })
	}
	if a, b := allocs(points), allocs(boxes); b-a != 6 {
		t.Errorf("points at instants allocate %v times, six columns %v: want 6 fewer", a, b)
	}
}

// TestFilterOverSharedColumnsEqualsSixColumns holds every kernel mode
// over a partition with shared columns to the same partition with six
// separate ones, over seeded random queries, on both paths.
func TestFilterOverSharedColumnsEqualsSixColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, hilbert := range []bool{false, true} {
		p, _ := buildPartition(pointRows(rng, 2*chunkRows+77), hilbert)
		if x, y, tm := sharing(p); !x || !y || !tm {
			t.Fatalf("hilbert=%t: columns not shared", hilbert)
		}
		six := *p
		six.MaxX, six.MaxY, six.TEnd = slices.Clone(p.MaxX), slices.Clone(p.MaxY), slices.Clone(p.TEnd)
		for i := 0; i < 100; i++ {
			x, y := rng.Float64()*110-5, rng.Float64()*110-5
			ts := int64(rng.Intn(1100) - 50)
			q := Query{
				MinX: x, MinY: y, MaxX: x + rng.Float64()*30, MaxY: y + rng.Float64()*30,
				Dist: rng.Float64() * 10, HasTime: rng.Intn(3) != 0, TBegin: ts, TEnd: ts + int64(rng.Intn(300)),
			}
			if i%10 == 0 { // a degenerate window: a point query
				q.MaxX, q.MaxY = q.MinX, q.MinY
			}
			for _, op := range []Op{OpIntersects, OpContains, OpContainedBy, OpWithinDistance, OpPrune} {
				for _, mode := range []TimeMode{TimeNone, TimeOverlap, TimeContains, TimeWithin} {
					q.Op, q.Time = op, mode
					got, want := GetBitset(p.Len()), GetBitset(six.Len())
					Filter(p, q, got)
					Filter(&six, q, want)
					if !slices.Equal(got.words, want.words) {
						t.Fatalf("hilbert=%t, query %+v: %d survivors over shared columns, %d over six",
							hilbert, q, got.Count(), want.Count())
					}
					PutBitset(got)
					PutBitset(want)
				}
			}
		}
	}
}

// hilbertXY2D is the per-bit Hilbert key the table in hilbertKey is
// derived from, kept as its oracle: it maps cell (x, y) of a
// 2^order × 2^order grid to its distance along the curve, one level
// (one bit of each coordinate) at a time.
func hilbertXY2D(order int, x, y uint32) uint64 {
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

// hilbertD2XY is the inverse of hilbertXY2D: it maps a distance along
// the curve back to its cell.
func hilbertD2XY(order int, d uint64) (x, y uint32) {
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

// TestHilbertRoundTrip pins d2xy as the exact inverse of xy2d:
// exhaustively for small orders, sampled at order 16.
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
	for i := 0; i < 10000; i++ {
		x, y := uint32(rng.Intn(hilbertSide)), uint32(rng.Intn(hilbertSide))
		d := hilbertXY2D(16, x, y)
		gx, gy := hilbertD2XY(16, d)
		if gx != x || gy != y {
			t.Fatalf("order 16: (%d,%d) -> %d -> (%d,%d)", x, y, d, gx, gy)
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
	// Sampled at order 16, where exhaustion is infeasible.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10000; i++ {
		d := rng.Uint64() % (hilbertSide*hilbertSide - 1)
		x0, y0 := hilbertD2XY(16, d)
		x1, y1 := hilbertD2XY(16, d+1)
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

// TestHilbertKeyMatchesPerBit holds the table-driven key to the
// per-bit one on 2^20 random cells, on every cell of the 256 × 256
// lattice of stride 257 (which reaches both grid edges and every
// nibble of both coordinates), and on the corner cells.
func TestHilbertKeyMatchesPerBit(t *testing.T) {
	check := func(x, y uint32) {
		t.Helper()
		if got, want := hilbertKey(x, y), hilbertXY2D(16, x, y); got != want {
			t.Fatalf("cell (%d,%d): table key %d, per-bit key %d", x, y, got, want)
		}
	}
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 1<<20; i++ {
		check(uint32(rng.Intn(hilbertSide)), uint32(rng.Intn(hilbertSide)))
	}
	for i := uint32(0); i < 256; i++ {
		for j := uint32(0); j < 256; j++ {
			check(i*257, j*257)
		}
	}
	for _, c := range [][2]uint32{{0, 0}, {0, hilbertSide - 1}, {hilbertSide - 1, 0}, {hilbertSide - 1, hilbertSide - 1}} {
		check(c[0], c[1])
	}
}

// TestHilbertEncoderSnapping pins the encoder's cell assignment to the
// same clamped data-space snapping as Grid's cells: edge coordinates
// land in the last cell, out-of-range and non-finite coordinates
// clamp, the empty and the degenerate space key everything to 0.
func TestHilbertEncoderSnapping(t *testing.T) {
	space := geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 50}
	enc := newHilbertEncoder(space)
	const last = hilbertSide - 1
	point := func(x, y float64) geom.Envelope { return geom.Envelope{MinX: x, MinY: y, MaxX: x, MaxY: y} }
	cases := []struct {
		name string
		e    geom.Envelope
		x, y uint32
	}{
		{"min corner", point(0, 0), 0, 0},
		{"max corner snaps into last cell", point(100, 50), last, last},
		{"max-x edge", point(100, 0), last, 0},
		{"beyond max clamps", point(1e9, 1e9), last, last},
		{"below min clamps", point(-5, -5), 0, 0},
		{"centre of a box", geom.Envelope{MinX: 0, MinY: 0, MaxX: 50, MaxY: 25}, hilbertSide / 4, hilbertSide / 4},
		{"unbounded box clamps to origin", geom.Envelope{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}, 0, 0},
	}
	for _, tc := range cases {
		if got, want := enc.key(tc.e), hilbertXY2D(16, tc.x, tc.y); got != want {
			t.Errorf("%s: key(%v) = %d, want cell (%d,%d)'s %d", tc.name, tc.e, got, tc.x, tc.y, want)
		}
	}

	// A point epsilon inside the max edge shares the last cell with
	// the snapped edge point — the stability property: snapping never
	// creates a key discontinuity at the data-space border.
	if inside, edge := enc.key(point(math.Nextafter(100, 0), math.Nextafter(50, 0))), enc.key(point(100, 50)); inside != edge {
		t.Fatalf("edge snapping unstable: inside key %d != edge key %d", inside, edge)
	}
	if k := enc.key(geom.EmptyEnvelope()); k != 0 {
		t.Fatalf("empty envelope key = %d, want 0", k)
	}
	if k := enc.key(point(math.NaN(), math.NaN())); k != 0 {
		t.Fatalf("NaN point key = %d, want 0", k)
	}
	if k := newHilbertEncoder(point(3, 4)).key(point(3, 4)); k != 0 {
		t.Fatalf("degenerate-space key = %d, want 0", k)
	}
	if k := newHilbertEncoder(geom.EmptyEnvelope()).key(point(1, 2)); k != 0 {
		t.Fatalf("empty-space key = %d, want 0", k)
	}
}

// oracleOrder is the row order Finish(true) computed before the table
// key and the radix sort: the per-bit key of each envelope centre's
// cell over the rows' MBR, then a bottom-up merge sort of the row
// indexes, stable on equal keys. Nil below two rows.
func oracleOrder(rows []refRow) []int32 {
	if len(rows) < 2 {
		return nil
	}
	mbr := geom.EmptyEnvelope()
	for _, r := range rows {
		mbr = mbr.ExpandToInclude(r.env)
	}
	var cellW, cellH float64
	if !mbr.IsEmpty() {
		cellW, cellH = mbr.Width()/float64(hilbertSide), mbr.Height()/float64(hilbertSide)
	}
	cell := func(v, min, cell float64) uint32 {
		if cell <= 0 {
			return 0
		}
		c := (v - min) / cell
		if math.IsNaN(c) || c < 0 {
			return 0
		}
		if c >= float64(hilbertSide) {
			return hilbertSide - 1
		}
		return uint32(c)
	}
	keys := make([]uint64, len(rows))
	perm := make([]int32, len(rows))
	for i, r := range rows {
		perm[i] = int32(i)
		if !r.env.IsEmpty() {
			c := r.env.Center()
			keys[i] = hilbertXY2D(16, cell(c.X, mbr.MinX, cellW), cell(c.Y, mbr.MinY, cellH))
		}
	}
	n := len(perm)
	buf := make([]int32, n)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := lo+width, min(lo+2*width, n)
			if mid >= n {
				break
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if keys[perm[i]] <= keys[perm[j]] {
					buf[k], i = perm[i], i+1
				} else {
					buf[k], j = perm[j], j+1
				}
				k++
			}
			copy(buf[k:], perm[i:mid])
			copy(buf[k+(mid-i):], perm[j:hi])
			copy(perm[lo:hi], buf[lo:hi])
		}
	}
	return perm
}

// TestHilbertFinishEqualsOracle: the sidecar's permutation, columns
// and timed bitset equal, bit for bit, those of the per-bit key and
// the merge sort, over skewed points, duplicate cells, NaN, empty and
// unbounded envelopes, a polygon, and partitions of 0 and 1 rows.
func TestHilbertFinishEqualsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	skewed := func(n int) []refRow {
		rows := pointRows(rng, n)
		for i := range rows {
			c := float64(rng.Intn(5)) * 200
			x, y := c+rng.NormFloat64()*6, c+rng.NormFloat64()*6
			if rng.Intn(10) == 0 { // an outlier stretches the MBR
				x, y = rng.Float64()*1000, rng.Float64()*1000
			}
			rows[i].env = geom.Envelope{MinX: x, MinY: y, MaxX: x, MaxY: y}
		}
		return rows
	}
	duplicates := pointRows(rng, 5000)
	for i := range duplicates {
		duplicates[i].env = duplicates[rng.Intn(20)].env // 20 distinct cells
	}
	special := pointRows(rng, 3000)
	for i := range special {
		switch i % 50 {
		case 1:
			special[i].env = geom.EmptyEnvelope()
		case 2:
			special[i].env = geom.Envelope{MinX: math.NaN(), MinY: 5, MaxX: math.NaN(), MaxY: 5}
		case 3:
			special[i].env = geom.Envelope{MinX: 10, MinY: 20, MaxX: 30, MaxY: 25} // a polygon's box
		}
	}
	unbounded := pointRows(rng, 200)
	unbounded[7].env = geom.Envelope{MinX: math.Inf(-1), MinY: 0, MaxX: math.Inf(1), MaxY: 1}
	cases := []struct {
		name string
		rows []refRow
	}{
		{"100k skewed points", skewed(100_000)},
		{"duplicate cells", duplicates},
		{"NaN, empty and polygon envelopes", special},
		{"an unbounded envelope", unbounded},
		{"boxes", randRows(rng, 4097)},
		{"one row", pointRows(rng, 1)},
		{"no rows", nil},
	}
	for _, c := range cases {
		p, perm := buildPartition(c.rows, true)
		want := oracleOrder(c.rows)
		if !slices.Equal(perm, want) {
			t.Fatalf("%s: permutation differs from the oracle's", c.name)
		}
		if p.Len() != len(c.rows) {
			t.Fatalf("%s: %d rows, want %d", c.name, p.Len(), len(c.rows))
		}
		timed := make([]uint64, (len(c.rows)+63)/64)
		for row := range c.rows {
			r := c.rows[row]
			if want != nil {
				r = c.rows[want[row]]
			}
			env := geom.Envelope{MinX: p.MinX[row], MinY: p.MinY[row], MaxX: p.MaxX[row], MaxY: p.MaxY[row]}
			if envBits(env) != envBits(r.env) || p.TStart[row] != r.ts || p.TEnd[row] != r.te {
				t.Fatalf("%s, row %d: %v [%d, %d], want %v [%d, %d]", c.name, row, env, p.TStart[row], p.TEnd[row], r.env, r.ts, r.te)
			}
			if r.timed {
				timed[row/64] |= 1 << uint(row%64)
			}
		}
		if !slices.Equal(p.timed, timed) {
			t.Fatalf("%s: timed bitset differs from the oracle's", c.name)
		}
	}
}
