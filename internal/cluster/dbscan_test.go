package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stobject"
)

// blob generates count points normally distributed around (cx, cy).
// equivalentClusterings reports whether two labelings describe the
// same partition of the points up to cluster renumbering (noise must
// match exactly).
func equivalentClusterings(a, b Result) bool {
	if len(a.Labels) != len(b.Labels) {
		return false
	}
	fwd := make(map[int]int)
	rev := make(map[int]int)
	for i := range a.Labels {
		la, lb := a.Labels[i], b.Labels[i]
		if (la == Noise) != (lb == Noise) {
			return false
		}
		if la == Noise {
			continue
		}
		if m, ok := fwd[la]; ok && m != lb {
			return false
		}
		if m, ok := rev[lb]; ok && m != la {
			return false
		}
		fwd[la] = lb
		rev[lb] = la
	}
	return true
}

func blob(rng *rand.Rand, cx, cy, sd float64, count int) []geom.Point {
	pts := make([]geom.Point, count)
	for i := range pts {
		pts[i] = geom.Point{X: cx + rng.NormFloat64()*sd, Y: cy + rng.NormFloat64()*sd}
	}
	return pts
}

// threeBlobsWithNoise: three well-separated dense blobs plus sparse
// far-away noise points.
func threeBlobsWithNoise(rng *rand.Rand, perBlob int) ([]geom.Point, int) {
	var pts []geom.Point
	pts = append(pts, blob(rng, 10, 10, 0.5, perBlob)...)
	pts = append(pts, blob(rng, 50, 50, 0.5, perBlob)...)
	pts = append(pts, blob(rng, 90, 10, 0.5, perBlob)...)
	noise := []geom.Point{{X: 30, Y: 90}, {X: 70, Y: 90}, {X: 10, Y: 60}}
	pts = append(pts, noise...)
	return pts, len(noise)
}

func TestDBSCANFindsThreeBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts, noiseCount := threeBlobsWithNoise(rng, 100)
	res := DBSCAN(pts, 2.0, 5)
	if res.NumClusters != 3 {
		t.Fatalf("clusters = %d, want 3", res.NumClusters)
	}
	if res.NoiseCount() != noiseCount {
		t.Errorf("noise = %d, want %d", res.NoiseCount(), noiseCount)
	}
	sizes := res.ClusterSizes()
	for i, s := range sizes {
		if s != 100 {
			t.Errorf("cluster %d size = %d, want 100", i, s)
		}
	}
}

func TestDBSCANAllNoise(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 10}, {X: 20, Y: 20}}
	res := DBSCAN(pts, 1, 2)
	if res.NumClusters != 0 || res.NoiseCount() != 3 {
		t.Errorf("clusters=%d noise=%d", res.NumClusters, res.NoiseCount())
	}
}

func TestDBSCANSingleCluster(t *testing.T) {
	var pts []geom.Point
	for i := 0; i < 10; i++ {
		pts = append(pts, geom.Point{X: float64(i) * 0.5, Y: 0})
	}
	res := DBSCAN(pts, 1, 3)
	if res.NumClusters != 1 {
		t.Fatalf("clusters = %d", res.NumClusters)
	}
	for i, l := range res.Labels {
		if l != 0 {
			t.Errorf("point %d label = %d", i, l)
		}
	}
}

func TestDBSCANChainCluster(t *testing.T) {
	// Density-connected chain: all points form one cluster even
	// though the ends are far apart.
	var pts []geom.Point
	for i := 0; i < 100; i++ {
		pts = append(pts, geom.Point{X: float64(i), Y: 0})
	}
	res := DBSCAN(pts, 1.5, 2)
	if res.NumClusters != 1 {
		t.Errorf("chain gave %d clusters", res.NumClusters)
	}
}

func TestDBSCANBorderPoint(t *testing.T) {
	// A point within eps of a core point but not itself core joins
	// the cluster as a border point.
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: 1, Y: 0}, // dense core
		{X: 1.9, Y: 0}, // border: 1 neighbour within eps=1 (the core at 1,0)
	}
	res := DBSCAN(pts, 1, 3)
	if res.NumClusters != 1 {
		t.Fatalf("clusters = %d", res.NumClusters)
	}
	if res.Labels[3] != 0 {
		t.Errorf("border point label = %d, want 0", res.Labels[3])
	}
}

func TestDBSCANDegenerateParams(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}
	if res := DBSCAN(pts, 0, 3); res.NumClusters != 0 {
		t.Error("eps=0 must cluster nothing")
	}
	if res := DBSCAN(pts, 1, 0); res.NumClusters != 0 {
		t.Error("minPts=0 must cluster nothing")
	}
	if res := DBSCAN(nil, 1, 1); len(res.Labels) != 0 {
		t.Error("empty input must return empty labels")
	}
}

func stObjs(pts []geom.Point) []stobject.STObject {
	out := make([]stobject.STObject, len(pts))
	for i, p := range pts {
		out[i] = stobject.New(p)
	}
	return out
}

func homesOf(sp partition.SpatialPartitioner, pts []geom.Point) []int {
	home := make([]int, len(pts))
	for i, p := range pts {
		home[i] = sp.PartitionFor(stobject.New(p))
	}
	return home
}

func TestDistributedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts, _ := threeBlobsWithNoise(rng, 150)
	seq := DBSCAN(pts, 2.0, 5)

	g, err := partition.NewGrid(3, stObjs(pts))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := DBSCANDistributed(pts, DistributedConfig{
		Eps: 2.0, MinPts: 5, Regions: g, Home: homesOf(g, pts),
		Run: engine.NewContext(4).RunJob,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !equivalentClusterings(seq, dist) {
		t.Errorf("distributed clustering differs: seq %d clusters, dist %d",
			seq.NumClusters, dist.NumClusters)
	}
}

func TestDistributedWithBSP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts, _ := threeBlobsWithNoise(rng, 200)
	seq := DBSCAN(pts, 2.0, 5)
	bsp, err := partition.NewBSP(partition.BSPConfig{MaxCost: 100}, stObjs(pts))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := DBSCANDistributed(pts, DistributedConfig{
		Eps: 2.0, MinPts: 5, Regions: bsp, Home: homesOf(bsp, pts),
		Run: engine.NewContext(4).RunJob,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !equivalentClusterings(seq, dist) {
		t.Errorf("BSP distributed differs: %d vs %d clusters", dist.NumClusters, seq.NumClusters)
	}
}

func TestDistributedClusterSpanningPartitions(t *testing.T) {
	// One dense blob sitting exactly on the junction of 4 grid cells:
	// the merge step must stitch the local clusters into one.
	rng := rand.New(rand.NewSource(4))
	pts := blob(rng, 50, 50, 1.0, 300)
	// Add corner anchors so the grid splits the blob.
	pts = append(pts, geom.Point{X: 0, Y: 0}, geom.Point{X: 100, Y: 100})
	g, err := partition.NewGrid(2, stObjs(pts))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := DBSCANDistributed(pts, DistributedConfig{
		Eps: 1.5, MinPts: 4, Regions: g, Home: homesOf(g, pts),
	})
	if err != nil {
		t.Fatal(err)
	}
	if dist.NumClusters != 1 {
		t.Fatalf("blob split across partitions gave %d clusters, want 1", dist.NumClusters)
	}
	seq := DBSCAN(pts, 1.5, 4)
	if !equivalentClusterings(seq, dist) {
		t.Error("spanning cluster differs from sequential")
	}
}

func TestDistributedValidation(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}}
	g, _ := partition.NewGrid(1, stObjs(pts))
	if _, err := DBSCANDistributed(pts, DistributedConfig{Eps: 0, MinPts: 1, Regions: g, Home: []int{0}}); err == nil {
		t.Error("eps=0 must fail")
	}
	if _, err := DBSCANDistributed(pts, DistributedConfig{Eps: 1, MinPts: 0, Regions: g, Home: []int{0}}); err == nil {
		t.Error("minPts=0 must fail")
	}
	if _, err := DBSCANDistributed(pts, DistributedConfig{Eps: 1, MinPts: 1, Regions: nil, Home: []int{0}}); err == nil {
		t.Error("nil regions must fail")
	}
	if _, err := DBSCANDistributed(pts, DistributedConfig{Eps: 1, MinPts: 1, Regions: g, Home: []int{}}); err == nil {
		t.Error("wrong Home length must fail")
	}
	if _, err := DBSCANDistributed(pts, DistributedConfig{Eps: 1, MinPts: 1, Regions: g, Home: []int{7}}); err == nil {
		t.Error("out-of-range home must fail")
	}
}

func TestEquivalentClusterings(t *testing.T) {
	a := Result{Labels: []int{0, 0, 1, Noise}, NumClusters: 2}
	b := Result{Labels: []int{1, 1, 0, Noise}, NumClusters: 2} // renumbered
	if !equivalentClusterings(a, b) {
		t.Error("renumbered clusterings must be equivalent")
	}
	c := Result{Labels: []int{0, 1, 1, Noise}, NumClusters: 2} // different split
	if equivalentClusterings(a, c) {
		t.Error("different splits must not be equivalent")
	}
	d := Result{Labels: []int{0, 0, 1, 1}, NumClusters: 2} // noise mismatch
	if equivalentClusterings(a, d) {
		t.Error("noise mismatch must not be equivalent")
	}
	if equivalentClusterings(a, Result{Labels: []int{0}}) {
		t.Error("length mismatch must not be equivalent")
	}
	// Merged clusters on one side only.
	e := Result{Labels: []int{0, 0, 0, Noise}, NumClusters: 1}
	if equivalentClusterings(a, e) || equivalentClusterings(e, a) {
		t.Error("merged clustering must not be equivalent")
	}
}

func TestCentroidsAndSizes(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 10, Y: 10}}
	r := Result{Labels: []int{0, 0, Noise}, NumClusters: 1}
	cents := Centroids(pts, r)
	if len(cents) != 1 || cents[0].X != 1 || cents[0].Y != 0 {
		t.Errorf("centroids = %v", cents)
	}
	ids := SortBySize(Result{Labels: []int{0, 1, 1, 1, 0}, NumClusters: 2})
	if ids[0] != 1 || ids[1] != 0 {
		t.Errorf("sorted ids = %v", ids)
	}
}

func TestPropDistributedEqualsSequentialOnSeparatedBlobs(t *testing.T) {
	f := func(seed int64, blobsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nBlobs := int(blobsRaw%4) + 1
		var pts []geom.Point
		// Blobs on a coarse lattice: separation >> eps guarantees a
		// unique correct clustering.
		for b := 0; b < nBlobs; b++ {
			cx := float64((b%3)*40 + 10)
			cy := float64((b/3)*40 + 10)
			pts = append(pts, blob(rng, cx, cy, 0.4, 40)...)
		}
		seq := DBSCAN(pts, 1.5, 4)
		g, err := partition.NewGrid(3, stObjs(pts))
		if err != nil {
			return false
		}
		dist, err := DBSCANDistributed(pts, DistributedConfig{
			Eps: 1.5, MinPts: 4, Regions: g, Home: homesOf(g, pts),
		})
		if err != nil {
			return false
		}
		return equivalentClusterings(seq, dist)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
