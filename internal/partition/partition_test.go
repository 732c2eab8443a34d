package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stark/internal/geom"
	"stark/internal/stobject"
)

func stPoint(x, y float64) stobject.STObject {
	return stobject.New(geom.NewPoint(x, y))
}

// mustFromWKT parses a WKT literal, panicking on error.
func mustFromWKT(wkt string) stobject.STObject {
	o, err := stobject.FromWKT(wkt)
	if err != nil {
		panic(err)
	}
	return o
}

func uniformObjs(rng *rand.Rand, n int, w, h float64) []stobject.STObject {
	objs := make([]stobject.STObject, n)
	for i := range objs {
		objs[i] = stPoint(rng.Float64()*w, rng.Float64()*h)
	}
	return objs
}

// clusteredObjs simulates the paper's "events on land, not sea" skew:
// most objects concentrate in a few dense clusters.
func clusteredObjs(rng *rand.Rand, n int) []stobject.STObject {
	centers := []geom.Point{{X: 10, Y: 10}, {X: 80, Y: 20}, {X: 50, Y: 90}}
	objs := make([]stobject.STObject, n)
	for i := range objs {
		c := centers[rng.Intn(len(centers))]
		objs[i] = stPoint(c.X+rng.NormFloat64()*2, c.Y+rng.NormFloat64()*2)
	}
	return objs
}

func checkAssignmentInvariants(t *testing.T, sp SpatialPartitioner, objs []stobject.STObject) {
	t.Helper()
	n := sp.NumPartitions()
	for i, o := range objs {
		p := sp.PartitionFor(o)
		if p < 0 || p >= n {
			t.Fatalf("object %d assigned to %d, out of [0, %d)", i, p, n)
		}
		if !sp.Extent(p).ContainsEnvelope(o.Envelope()) {
			t.Fatalf("object %d envelope %v not inside extent %v of partition %d",
				i, o.Envelope(), sp.Extent(p), p)
		}
	}
}

func TestGridBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	objs := uniformObjs(rng, 1000, 100, 100)
	g, err := NewGrid(4, objs)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPartitions() != 16 {
		t.Fatalf("partitions = %d", g.NumPartitions())
	}
	checkAssignmentInvariants(t, g, objs)
	// The cells tile the space.
	total := 0.0
	for i := 0; i < 16; i++ {
		b := g.bounds(i)
		total += b.Width() * b.Height()
	}
	space := dataEnvelope(objs)
	if area := space.Width() * space.Height(); total-area > 1e-6 || total-area < -1e-6 {
		t.Errorf("cells area %v != space area %v", total, area)
	}
}

func TestGridErrors(t *testing.T) {
	if _, err := NewGrid(0, nil); err == nil {
		t.Error("ppd=0 must fail")
	}
	if _, err := NewGrid(2, nil); err == nil {
		t.Error("empty data must fail")
	}
}

func TestGridCentroidAssignmentOfPolygons(t *testing.T) {
	// A polygon spanning multiple cells goes to the cell of its
	// centroid; the extent of that cell grows to cover it.
	objs := []stobject.STObject{
		stPoint(5, 5), stPoint(95, 95),
		mustFromWKT("POLYGON ((40 40, 60 40, 60 60, 40 60, 40 40))"),
	}
	g, err := NewGrid(2, objs)
	if err != nil {
		t.Fatal(err)
	}
	poly := objs[2]
	p := g.PartitionFor(poly)
	// Centroid (50,50) falls in one specific cell...
	if !g.Extent(p).ContainsEnvelope(poly.Envelope()) {
		t.Error("extent must cover the whole polygon")
	}
	// ...and the extent is strictly larger than the bounds.
	if g.Extent(p).ContainsEnvelope(g.bounds(p)) && g.bounds(p).ContainsEnvelope(poly.Envelope()) {
		t.Error("polygon should overhang its cell bounds")
	}
}

func TestGridEmptyPartitionsHaveEmptyExtent(t *testing.T) {
	// Two tight clusters in opposite corners: middle cells stay empty.
	var objs []stobject.STObject
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		objs = append(objs, stPoint(rng.Float64(), rng.Float64()))
		objs = append(objs, stPoint(99+rng.Float64(), 99+rng.Float64()))
	}
	g, err := NewGrid(10, objs)
	if err != nil {
		t.Fatal(err)
	}
	empties := 0
	for i := 0; i < g.NumPartitions(); i++ {
		if g.Extent(i).IsEmpty() {
			empties++
		}
	}
	if empties < 90 {
		t.Errorf("only %d empty extents; expected most of the 100 cells empty", empties)
	}
}

func TestBSPBalancesSkewedData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	objs := clusteredObjs(rng, 5000)
	bsp, err := NewBSP(BSPConfig{MaxCost: 500}, objs)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignmentInvariants(t, bsp, objs)

	// Compare imbalance with a grid of similar partition count.
	gridSizes := make([]int, 16)
	g, _ := NewGrid(4, objs)
	for _, o := range objs {
		gridSizes[g.PartitionFor(o)]++
	}
	bspSizes := make([]int, bsp.NumPartitions())
	for _, o := range objs {
		bspSizes[bsp.PartitionFor(o)]++
	}
	gi, bi := imbalance(gridSizes), imbalance(bspSizes)
	if bi >= gi {
		t.Errorf("BSP imbalance %v should beat grid imbalance %v on skewed data", bi, gi)
	}
	// Cost threshold respected (splitRegion may stop early only at
	// degenerate cuts, which this data does not trigger).
	for i, s := range bspSizes {
		if s > 500*2 {
			t.Errorf("partition %d holds %d > 2×MaxCost", i, s)
		}
	}
}

func TestBSPDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	objs := uniformObjs(rng, 100, 10, 10)
	bsp, err := NewBSP(BSPConfig{}, objs)
	if err != nil {
		t.Fatal(err)
	}
	// 100 < default MaxCost 1000 → single partition.
	if bsp.NumPartitions() != 1 {
		t.Errorf("partitions = %d, want 1", bsp.NumPartitions())
	}
	if _, err := NewBSP(BSPConfig{}, nil); err == nil {
		t.Error("empty data must fail")
	}
}

func TestBSPOutOfSpaceObjectGetsNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	objs := uniformObjs(rng, 1000, 100, 100)
	bsp, err := NewBSP(BSPConfig{MaxCost: 100}, objs)
	if err != nil {
		t.Fatal(err)
	}
	outside := stPoint(-50, -50)
	p := bsp.PartitionFor(outside)
	if p < 0 || p >= bsp.NumPartitions() {
		t.Errorf("out-of-space object assigned to %d", p)
	}
}

func TestTileReplication(t *testing.T) {
	objs := []stobject.STObject{
		stPoint(5, 5), stPoint(95, 95),
		mustFromWKT("POLYGON ((40 40, 60 40, 60 60, 40 60, 40 40))"),
	}
	tile, err := NewTile(2, objs)
	if err != nil {
		t.Fatal(err)
	}
	// The centered polygon overlaps all 4 cells.
	parts := tile.PartitionsFor(objs[2])
	if len(parts) != 4 {
		t.Errorf("polygon replicated into %d cells, want 4", len(parts))
	}
	// A point lives in exactly one cell.
	parts = tile.PartitionsFor(objs[0])
	if len(parts) != 1 {
		t.Errorf("point replicated into %d cells, want 1", len(parts))
	}
	// Tile extents equal bounds (no overhang under replication).
	for i := 0; i < tile.NumPartitions(); i++ {
		if tile.Extent(i) != tile.bounds(i) {
			t.Errorf("tile extent %d differs from bounds", i)
		}
	}
	if _, err := NewTile(0, objs); err == nil {
		t.Error("ppd=0 must fail")
	}
	if _, err := NewTile(2, nil); err == nil {
		t.Error("empty data must fail")
	}
	if got := tile.PartitionsFor(stobject.STObject{}); got != nil {
		t.Errorf("empty object → %v", got)
	}
}

func TestVoronoiAssignsToNearestSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objs := uniformObjs(rng, 2000, 100, 100)
	v, err := NewVoronoi(8, 42, objs)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumPartitions() != 8 {
		t.Fatalf("partitions = %d", v.NumPartitions())
	}
	checkAssignmentInvariants(t, v, objs)
	seeds := v.seeds
	for _, o := range objs[:200] {
		p := v.PartitionFor(o)
		c := o.Centroid()
		d := geom.SquaredEuclidean(c, seeds[p])
		for _, s := range seeds {
			if geom.SquaredEuclidean(c, s) < d-1e-12 {
				t.Fatalf("object %v not assigned to nearest seed", c)
			}
		}
	}
}

func TestVoronoiDeterministicAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	objs := uniformObjs(rng, 100, 10, 10)
	v1, _ := NewVoronoi(4, 1, objs)
	v2, _ := NewVoronoi(4, 1, objs)
	s1, s2 := v1.seeds, v2.seeds
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("same seed must give same seeds")
		}
	}
	if _, err := NewVoronoi(0, 1, objs); err == nil {
		t.Error("numSeeds=0 must fail")
	}
	if _, err := NewVoronoi(4, 1, nil); err == nil {
		t.Error("empty data must fail")
	}
	// More seeds than objects clamps.
	v3, err := NewVoronoi(1000, 1, objs[:5])
	if err != nil {
		t.Fatal(err)
	}
	if v3.NumPartitions() != 5 {
		t.Errorf("partitions = %d, want clamped 5", v3.NumPartitions())
	}
}

func TestPruneByEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	objs := uniformObjs(rng, 1000, 100, 100)
	g, _ := NewGrid(4, objs)
	// A small query box must prune most of the 16 cells.
	q := geom.NewEnvelope(10, 10, 15, 15)
	visit := PruneByEnvelope(g, q)
	if len(visit) == 0 || len(visit) > 4 {
		t.Errorf("visiting %d partitions, expected 1-4", len(visit))
	}
	// Completeness: every object matching q lives in a visited
	// partition.
	visited := make(map[int]bool)
	for _, p := range visit {
		visited[p] = true
	}
	for _, o := range objs {
		if o.Envelope().Intersects(q) && !visited[g.PartitionFor(o)] {
			t.Fatal("pruning dropped a matching object")
		}
	}
}

// imbalance returns max/mean of the partition sizes — 1.0 is a
// perfectly balanced partitioning. It returns 0 for empty input.
func imbalance(sizes []int) float64 {
	if len(sizes) == 0 {
		return 0
	}
	total, maxSize := 0, 0
	for _, s := range sizes {
		total += s
		if s > maxSize {
			maxSize = s
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(sizes))
	return float64(maxSize) / mean
}

func TestPropEveryObjectAssignedOnceWithCoveringExtent(t *testing.T) {
	f := func(seed int64, nRaw uint16, ppdRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%500) + 1
		ppd := int(ppdRaw%6) + 1
		objs := uniformObjs(rng, n, 100, 100)
		g, err := NewGrid(ppd, objs)
		if err != nil {
			return false
		}
		for _, o := range objs {
			p := g.PartitionFor(o)
			if p < 0 || p >= g.NumPartitions() {
				return false
			}
			if !g.Extent(p).ContainsEnvelope(o.Envelope()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropBSPPartitionsCoverAllObjects(t *testing.T) {
	f := func(seed int64, nRaw uint16, costRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%500) + 10
		cost := int(costRaw%50) + 5
		objs := clusteredObjs(rng, n)
		bsp, err := NewBSP(BSPConfig{MaxCost: cost}, objs)
		if err != nil {
			return false
		}
		for _, o := range objs {
			p := bsp.PartitionFor(o)
			if p < 0 || p >= bsp.NumPartitions() {
				return false
			}
			if !bsp.Extent(p).ContainsEnvelope(o.Envelope()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropTileReplicationCoversEnvelope(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		objs := uniformObjs(rng, 50, 100, 100)
		// Add a rectangle object.
		x, y := rng.Float64()*80, rng.Float64()*80
		rect := stobject.New(geom.NewEnvelope(x, y, x+15, y+15).ToPolygon())
		objs = append(objs, rect)
		tile, err := NewTile(4, objs)
		if err != nil {
			return false
		}
		// Union of assigned cell bounds must cover the envelope.
		union := geom.EmptyEnvelope()
		for _, p := range tile.PartitionsFor(rect) {
			union = union.ExpandToInclude(tile.bounds(p))
		}
		return union.ContainsEnvelope(rect.Envelope())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestGridBoundsTileExactly: adjacent cells must share their edge
// bit-for-bit and the last row/column must reach exactly
// space.MaxX/MaxY — accumulated float error in minX + cellW used to
// leave the edge cells short of the data-space envelope.
func TestGridBoundsTileExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, ppd := range []int{1, 3, 7, 13} {
		// Awkward, non-representable spans to provoke float error.
		objs := []stobject.STObject{
			stPoint(0.1, 0.2),
			stPoint(0.1+101.3/3, 0.2+73.7/7),
		}
		objs = append(objs, uniformObjs(rng, 50, 30, 9)...)
		g, err := NewGrid(ppd, objs)
		if err != nil {
			t.Fatal(err)
		}
		space := dataEnvelope(objs)
		for row := 0; row < ppd; row++ {
			for col := 0; col < ppd; col++ {
				b := g.bounds(row*ppd + col)
				if col+1 < ppd {
					next := g.bounds(row*ppd + col + 1)
					if b.MaxX != next.MinX {
						t.Fatalf("ppd=%d cell (%d,%d): MaxX %v != next MinX %v", ppd, row, col, b.MaxX, next.MinX)
					}
				} else if b.MaxX != space.MaxX {
					t.Fatalf("ppd=%d last col MaxX = %v, want %v", ppd, b.MaxX, space.MaxX)
				}
				if row+1 < ppd {
					above := g.bounds((row+1)*ppd + col)
					if b.MaxY != above.MinY {
						t.Fatalf("ppd=%d cell (%d,%d): MaxY %v != above MinY %v", ppd, row, col, b.MaxY, above.MinY)
					}
				} else if b.MaxY != space.MaxY {
					t.Fatalf("ppd=%d last row MaxY = %v, want %v", ppd, b.MaxY, space.MaxY)
				}
			}
		}
	}
}

// TestOverlapAssignerCoversMatches: the extent overlap the
// copartitioned join replicates with (PruneByEnvelope of the expanded
// envelope) must reach every partition holding records an object could
// match within the expansion distance.
func TestOverlapAssignerCoversMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	objs := uniformObjs(rng, 400, 100, 100)
	g, err := NewGrid(4, objs)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 3.0
	probe := stPoint(50, 50)
	assigned := make(map[int]bool)
	for _, p := range PruneByEnvelope(g, probe.Envelope().ExpandBy(eps)) {
		assigned[p] = true
	}
	if len(assigned) == 0 {
		t.Fatal("no partitions assigned")
	}
	for _, o := range objs {
		if probe.WithinDistance(o, eps, nil) {
			if p := g.PartitionFor(o); !assigned[p] {
				t.Fatalf("match in partition %d not covered by assignment %v", p, assigned)
			}
		}
	}
}
