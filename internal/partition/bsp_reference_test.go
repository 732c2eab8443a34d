package partition

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"stark/internal/geom"
	"stark/internal/stobject"
)

// The BSP construction as it was before splits went in place: a fresh
// coordinate slice per axis tried and two appended point slices per
// split, one goroutine, and the extents from a walk of the tree per
// object with the centroid clamped into the space. Kept as the
// reference the in-place build must reproduce cut for cut, extent for
// extent.

func refBuildBSP(cfg BSPConfig, objs []stobject.STObject) *BSP {
	pts := make([]geom.Point, len(objs))
	for i, o := range objs {
		pts[i] = o.Centroid()
	}
	space := dataEnvelope(objs)
	b := &BSP{}
	b.root = b.refBuildNode(bspRegion{env: space, pts: pts}, cfg)
	b.extents = make([]geom.Envelope, len(b.regions))
	for i := range b.extents {
		b.extents[i] = geom.EmptyEnvelope()
	}
	for _, o := range objs {
		p := clampedPartitionFor(b, space, o)
		b.extents[p] = b.extents[p].ExpandToInclude(o.Envelope())
	}
	return b
}

// clampedPartitionFor is BSP.PartitionFor as it was: the centroid is
// clamped into the construction space before the walk.
func clampedPartitionFor(b *BSP, space geom.Envelope, o stobject.STObject) int {
	c := o.Centroid()
	x := math.Min(math.Max(c.X, space.MinX), space.MaxX)
	y := math.Min(math.Max(c.Y, space.MinY), space.MaxY)
	n := b.root
	for n.leaf < 0 {
		v := y
		if n.onX {
			v = x
		}
		if v < n.cut {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.leaf
}

func (b *BSP) refBuildNode(r bspRegion, cfg BSPConfig) *bspNode {
	if len(r.pts) <= cfg.MaxCost {
		b.regions = append(b.regions, r.env)
		return &bspNode{leaf: len(b.regions) - 1}
	}
	left, right, cut, onX, ok := refSplitRegion(r)
	if !ok {
		b.regions = append(b.regions, r.env)
		return &bspNode{leaf: len(b.regions) - 1}
	}
	node := &bspNode{leaf: -1, onX: onX, cut: cut}
	node.left = b.refBuildNode(left, cfg)
	node.right = b.refBuildNode(right, cfg)
	return node
}

func refSplitRegion(r bspRegion) (a, b bspRegion, cutPos float64, cutOnX, ok bool) {
	tryAxes := []bool{r.env.Width() >= r.env.Height()} // true = split on x
	tryAxes = append(tryAxes, !tryAxes[0])
	for _, onX := range tryAxes {
		coords := make([]float64, len(r.pts))
		for i, p := range r.pts {
			if onX {
				coords[i] = p.X
			} else {
				coords[i] = p.Y
			}
			if math.IsNaN(coords[i]) {
				coords[i] = math.Inf(1)
			}
		}
		cut := selectKth(coords, len(coords)/2)
		var lo, hi float64
		if onX {
			lo, hi = r.env.MinX, r.env.MaxX
		} else {
			lo, hi = r.env.MinY, r.env.MaxY
		}
		if cut <= lo || cut >= hi {
			continue
		}
		var envA, envB geom.Envelope
		if onX {
			envA = geom.Envelope{MinX: r.env.MinX, MinY: r.env.MinY, MaxX: cut, MaxY: r.env.MaxY}
			envB = geom.Envelope{MinX: cut, MinY: r.env.MinY, MaxX: r.env.MaxX, MaxY: r.env.MaxY}
		} else {
			envA = geom.Envelope{MinX: r.env.MinX, MinY: r.env.MinY, MaxX: r.env.MaxX, MaxY: cut}
			envB = geom.Envelope{MinX: r.env.MinX, MinY: cut, MaxX: r.env.MaxX, MaxY: r.env.MaxY}
		}
		a = bspRegion{env: envA}
		b = bspRegion{env: envB}
		for _, p := range r.pts {
			v := p.Y
			if onX {
				v = p.X
			}
			if v < cut {
				a.pts = append(a.pts, p)
			} else {
				b.pts = append(b.pts, p)
			}
		}
		if len(a.pts) == 0 || len(b.pts) == 0 {
			continue
		}
		return a, b, cut, onX, true
	}
	return bspRegion{}, bspRegion{}, 0, false, false
}

// sameSplitTree reports the first difference between two split trees:
// axis, cut and leaf number of every node, in tree order.
func sameSplitTree(got, want *bspNode, path string) error {
	if got.leaf != want.leaf || got.onX != want.onX || got.cut != want.cut {
		return fmt.Errorf("node %q: leaf/onX/cut = %d/%v/%v, reference %d/%v/%v",
			path, got.leaf, got.onX, got.cut, want.leaf, want.onX, want.cut)
	}
	if want.leaf >= 0 {
		return nil
	}
	if err := sameSplitTree(got.left, want.left, path+"L"); err != nil {
		return err
	}
	return sameSplitTree(got.right, want.right, path+"R")
}

// sameEnvelope is == with a NaN equal to a NaN.
func sameEnvelope(a, b geom.Envelope) bool {
	same := func(x, y float64) bool { return x == y || math.IsNaN(x) && math.IsNaN(y) }
	return same(a.MinX, b.MinX) && same(a.MinY, b.MinY) && same(a.MaxX, b.MaxX) && same(a.MaxY, b.MaxY)
}

// TestBSPInPlaceMatchesReference holds the in-place build to the
// allocating one on the shapes that steer it differently: skew (deep,
// lopsided recursion, both halves of the root split concurrently),
// uniform data, many duplicate coordinates (cuts on the region edge,
// empty halves, the fallback axis), a vertical line, points with a NaN
// x (extents from the leaf windows) and polygons with empty objects
// (extents from the walk). Regions, split tree, every extent and every
// object's partition must be the reference's, and the extents those a
// walk of the tree per object gives. A point NaN in both coordinates
// stays out of the space, and both builds select a median with NaN read
// as +Inf, so the median of a window holding it does not depend on the
// window's order (which the in-place split and the reference's appends
// do not share).
func TestBSPInPlaceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	duplicates := make([]stobject.STObject, 6000)
	for i := range duplicates {
		// A 12×5 lattice with one heavy column and one heavy row.
		x, y := float64(rng.Intn(12)), float64(rng.Intn(5))
		switch rng.Intn(4) {
		case 0:
			x = 3
		case 1:
			y = 0
		}
		duplicates[i] = stPoint(x, y)
	}
	line := make([]stobject.STObject, 3000)
	for i := range line {
		line[i] = stPoint(7, math.Floor(rng.Float64()*40)/4)
	}
	nanX := clusteredObjs(rng, 5000)
	for i := 0; i < len(nanX); i += 1000 {
		nanX[i] = stPoint(math.NaN(), rng.Float64()*100)
	}
	mixed := make([]stobject.STObject, 5000)
	for i := range mixed {
		x, y := 100+rng.Float64()*100, 100+rng.Float64()*100 // the origin lies outside
		switch {
		case i%5 == 0:
			mixed[i] = stobject.New(geom.NewEnvelope(x, y, x+rng.Float64()*30, y+rng.Float64()*3).ToPolygon())
		case i%25 == 1:
			mixed[i] = stobject.STObject{} // centroid at the origin, envelope empty
		default:
			mixed[i] = stPoint(x, y)
		}
	}
	nanSpace := append(clusteredObjs(rng, 3000), stPoint(math.NaN(), math.NaN()))
	cases := []struct {
		name string
		cfg  BSPConfig
		objs []stobject.STObject
	}{
		{"skewed", BSPConfig{MaxCost: 40}, clusteredObjs(rng, 20000)},
		{"uniform", BSPConfig{MaxCost: 25}, uniformObjs(rng, 20000, 1000, 400)},
		{"duplicates", BSPConfig{MaxCost: 10}, duplicates},
		{"vertical-line", BSPConfig{MaxCost: 10}, line},
		{"points-nan-x", BSPConfig{MaxCost: 30}, nanX},
		{"polygons-empty", BSPConfig{MaxCost: 30}, mixed},
		{"points-nan-space", BSPConfig{MaxCost: 30}, nanSpace},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := NewBSP(tc.cfg, tc.objs)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.regions) < 2 {
				t.Fatalf("only %d region: the case splits nothing", len(got.regions))
			}
			walk := assignedExtents(len(got.regions), tc.objs, got.PartitionFor)
			for i := range got.regions {
				if !sameEnvelope(got.extents[i], walk[i]) {
					t.Fatalf("partition %d: extent %v, the walk's %v", i, got.extents[i], walk[i])
				}
			}
			want := refBuildBSP(tc.cfg, tc.objs)
			if !slices.EqualFunc(got.regions, want.regions, sameEnvelope) {
				t.Fatalf("%d regions, reference %d, or they differ", len(got.regions), len(want.regions))
			}
			if err := sameSplitTree(got.root, want.root, ""); err != nil {
				t.Fatal(err)
			}
			for i := range got.regions {
				if g, w := got.Extent(i), want.Extent(i); !sameEnvelope(g, w) {
					t.Fatalf("partition %d: extent %v, reference %v", i, g, w)
				}
			}
			space := dataEnvelope(tc.objs)
			for i, o := range tc.objs {
				if g, w := got.PartitionFor(o), clampedPartitionFor(want, space, o); g != w {
					t.Fatalf("object %d (%v): partition %d, reference %d", i, o, g, w)
				}
			}
		})
	}
}

// TestBSPPartitionForNeedsNoClamp holds the walk to the one that
// clamped the centroid into the space first, on centroids outside the
// space, at ±Inf, NaN and of empty objects.
func TestBSPPartitionForNeedsNoClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	objs := uniformObjs(rng, 4000, 100, 100)
	for i := range objs {
		p, _ := objs[i].Point()
		objs[i] = stPoint(p.X+50, p.Y+50)
	}
	b, err := NewBSP(BSPConfig{MaxCost: 20}, objs)
	if err != nil {
		t.Fatal(err)
	}
	space := dataEnvelope(objs)
	inf, nan := math.Inf(1), math.NaN()
	coords := []float64{-inf, -1e300, -1, 0, 49.9, 50, 75, 100, 150, 150.1, 1e300, inf, nan}
	probes := []stobject.STObject{{}, stobject.New(geom.NewEnvelope(-30, 40, 10, 70).ToPolygon())}
	for _, x := range coords {
		for _, y := range coords {
			probes = append(probes, stPoint(x, y))
		}
	}
	for i := 0; i < 2000; i++ {
		probes = append(probes, stPoint(rng.Float64()*300-50, rng.Float64()*300-50))
	}
	for _, o := range probes {
		if g, w := b.PartitionFor(o), clampedPartitionFor(b, space, o); g != w {
			t.Fatalf("%v: partition %d, clamped walk %d", o, g, w)
		}
	}
}

// TestSplitRegionAllocatesNothing pins the point of the in-place split.
func TestSplitRegionAllocatesNothing(t *testing.T) {
	objs := clusteredObjs(rand.New(rand.NewSource(21)), 4000)
	pts := make([]geom.Point, len(objs))
	for i, o := range objs {
		pts[i] = o.Centroid()
	}
	r := bspRegion{env: dataEnvelope(objs), pts: pts}
	coords := make([]float64, len(pts))
	if n := testing.AllocsPerRun(20, func() {
		if _, _, _, _, ok := splitRegion(r, coords); !ok {
			t.Fatal("no split")
		}
	}); n != 0 {
		t.Errorf("a split allocates %v times, want 0", n)
	}
}
