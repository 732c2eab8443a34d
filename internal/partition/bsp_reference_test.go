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
// split. Kept as the reference the in-place build must reproduce cut
// for cut.

func refBuildBSP(cfg BSPConfig, objs []stobject.STObject) *BSP {
	pts := make([]geom.Point, len(objs))
	for i, o := range objs {
		pts[i] = o.Centroid()
	}
	b := &BSP{space: dataEnvelope(objs)}
	b.root = b.refBuildNode(bspRegion{env: b.space, pts: pts}, cfg)
	return b
}

func (b *BSP) refBuildNode(r bspRegion, cfg BSPConfig) *bspNode {
	if len(r.pts) <= cfg.MaxCost ||
		(cfg.MinSide > 0 && r.env.Width() <= cfg.MinSide && r.env.Height() <= cfg.MinSide) {
		return b.leafNode(r.env)
	}
	left, right, cut, onX, ok := refSplitRegion(r, cfg.MinSide)
	if !ok {
		return b.leafNode(r.env)
	}
	node := &bspNode{leaf: -1, onX: onX, cut: cut}
	node.left = b.refBuildNode(left, cfg)
	node.right = b.refBuildNode(right, cfg)
	return node
}

func refSplitRegion(r bspRegion, minSide float64) (a, b bspRegion, cutPos float64, cutOnX, ok bool) {
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
		if minSide > 0 && (cut-lo < minSide || hi-cut < minSide) {
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

// TestBSPInPlaceMatchesReference holds the in-place build to the
// allocating one on the shapes that steer it differently: skew (deep,
// lopsided recursion), uniform data, many duplicate coordinates (cuts on
// the region edge, empty halves, the fallback axis) and a MinSide floor.
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
	cases := []struct {
		name string
		cfg  BSPConfig
		objs []stobject.STObject
	}{
		{"skewed", BSPConfig{MaxCost: 40}, clusteredObjs(rng, 20000)},
		{"uniform", BSPConfig{MaxCost: 25}, uniformObjs(rng, 20000, 1000, 400)},
		{"uniform-minside", BSPConfig{MaxCost: 5, MinSide: 30}, uniformObjs(rng, 5000, 1000, 400)},
		{"duplicates", BSPConfig{MaxCost: 10}, duplicates},
		{"vertical-line", BSPConfig{MaxCost: 10}, line},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := NewBSP(tc.cfg, tc.objs)
			if err != nil {
				t.Fatal(err)
			}
			want := refBuildBSP(tc.cfg, tc.objs)
			if !slices.Equal(got.regions, want.regions) {
				t.Fatalf("%d regions, reference %d, or they differ", len(got.regions), len(want.regions))
			}
			if err := sameSplitTree(got.root, want.root, ""); err != nil {
				t.Fatal(err)
			}
			if len(got.regions) < 2 {
				t.Fatalf("only %d region: the case splits nothing", len(got.regions))
			}
		})
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
		if _, _, _, _, ok := splitRegion(r, 0, coords); !ok {
			t.Fatal("no split")
		}
	}); n != 0 {
		t.Errorf("a split allocates %v times, want 0", n)
	}
}
