package core

import (
	"fmt"
	"math/rand"
	"testing"

	"stark/internal/geom"
	"stark/internal/index"
)

// The sequential DBSCAN over planar points that Cluster is checked
// against, and the checker that compares two labellings the way DBSCAN
// allows them to differ.

// neighbourhoods returns the ε-neighbourhood query over points: the
// positions within eps of point i, i included.
func neighbourhoods(points []geom.Point, eps float64) func(i int, dst []int32) []int32 {
	tree, _ := index.Pack(16, len(points), func(i int) geom.Envelope { return points[i].Envelope() })
	epsSq := eps * eps
	return func(i int, dst []int32) []int32 {
		p := points[i]
		cands := tree.Query(geom.Envelope{MinX: p.X - eps, MinY: p.Y - eps, MaxX: p.X + eps, MaxY: p.Y + eps}, dst[:0])
		out := cands[:0]
		for _, c := range cands {
			if geom.SquaredEuclidean(p, points[c]) <= epsSq {
				out = append(out, c)
			}
		}
		return out
	}
}

// dbscan is the textbook sequential DBSCAN: it returns each point's
// cluster (Noise for none) and the number of clusters. minPts counts the
// point itself, following the original definition; a border point
// joins the first cluster that reaches it.
func dbscan(points []geom.Point, eps float64, minPts int) ([]int, int) {
	n := len(points)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	if n == 0 || eps <= 0 || minPts <= 0 {
		return labels, 0
	}
	neighbours := neighbourhoods(points, eps)
	visited := make([]bool, n)
	next := 0
	var buf, seedBuf []int32
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		buf = neighbours(i, buf)
		if len(buf) < minPts {
			continue // stays noise unless captured as a border point
		}
		// Start a new cluster and expand it.
		c := next
		next++
		labels[i] = c
		seeds := append([]int32(nil), buf...)
		for len(seeds) > 0 {
			j := int(seeds[len(seeds)-1])
			seeds = seeds[:len(seeds)-1]
			if labels[j] == Noise {
				labels[j] = c // border point
			}
			if visited[j] {
				continue
			}
			visited[j] = true
			labels[j] = c
			if seedBuf = neighbours(j, seedBuf); len(seedBuf) >= minPts {
				seeds = append(seeds, seedBuf...)
			}
		}
	}
	return labels, next
}

// equivalentClusterings reports whether two labellings describe the
// same partition of the points up to cluster renumbering (noise must
// match exactly).
func equivalentClusterings(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[int]int)
	rev := make(map[int]int)
	for i := range a {
		la, lb := a[i], b[i]
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

// checkDBSCAN checks got against want, two DBSCAN labellings of points
// under eps and minPts: they have the same noise points and the same
// partition of the core points (up to renumbering), and every border
// point of got carries the label of one of its core ε-neighbours. Only
// the cluster a border point reachable from two clusters joins may
// differ.
func checkDBSCAN(points []geom.Point, eps float64, minPts int, want, got []int) error {
	if len(got) != len(points) || len(want) != len(points) {
		return fmt.Errorf("%d labels and %d reference labels for %d points", len(got), len(want), len(points))
	}
	neighbours := neighbourhoods(points, eps)
	nbrs := make([][]int32, len(points))
	core := make([]bool, len(points))
	for i := range points {
		nbrs[i] = neighbours(i, nil)
		core[i] = len(nbrs[i]) >= minPts
	}
	coreWant, coreGot := make([]int, len(points)), make([]int, len(points))
	for i := range points {
		if (want[i] == Noise) != (got[i] == Noise) {
			return fmt.Errorf("point %d %v: label %d, reference %d", i, points[i], got[i], want[i])
		}
		coreWant[i], coreGot[i] = Noise, Noise
		if core[i] {
			coreWant[i], coreGot[i] = want[i], got[i]
		}
	}
	if !equivalentClusterings(coreWant, coreGot) {
		return fmt.Errorf("the core points are clustered differently")
	}
	for i := range points {
		if core[i] || got[i] == Noise {
			continue
		}
		valid := false
		for _, j := range nbrs[i] {
			valid = valid || core[j] && got[j] == got[i]
		}
		if !valid {
			return fmt.Errorf("border point %d %v has label %d, which none of its core neighbours has", i, points[i], got[i])
		}
	}
	return nil
}

// clusterSizes returns the number of points per cluster and the number
// of noise points.
func clusterSizes(labels []int, clusters int) (sizes []int, noise int) {
	sizes = make([]int, clusters)
	for _, l := range labels {
		if l == Noise {
			noise++
		} else {
			sizes[l]++
		}
	}
	return sizes, noise
}

// blob generates count points normally distributed around (cx, cy).
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

// bothDBSCANs runs the oracle and Cluster (unpartitioned) on the same
// points and returns each one's labels and cluster count by name.
func bothDBSCANs(t *testing.T, pts []geom.Point, eps float64, minPts int) (map[string][]int, map[string]int) {
	t.Helper()
	labels, clusters := map[string][]int{}, map[string]int{}
	labels["oracle"], clusters["oracle"] = dbscan(pts, eps, minPts)
	labels["Cluster"], clusters["Cluster"] = clusterPoints(t, pointDataset(t, pts, "none", 4), eps, minPts)
	return labels, clusters
}

func TestDBSCANFindsThreeBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts, noiseCount := threeBlobsWithNoise(rng, 100)
	labels, clusters := bothDBSCANs(t, pts, 2.0, 5)
	for name, l := range labels {
		if clusters[name] != 3 {
			t.Fatalf("%s: clusters = %d, want 3", name, clusters[name])
		}
		sizes, noise := clusterSizes(l, clusters[name])
		if noise != noiseCount {
			t.Errorf("%s: noise = %d, want %d", name, noise, noiseCount)
		}
		for i, s := range sizes {
			if s != 100 {
				t.Errorf("%s: cluster %d size = %d, want 100", name, i, s)
			}
		}
	}
}

func TestDBSCANAllNoise(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 10}, {X: 20, Y: 20}}
	labels, clusters := bothDBSCANs(t, pts, 1, 2)
	for name, l := range labels {
		if _, noise := clusterSizes(l, clusters[name]); clusters[name] != 0 || noise != 3 {
			t.Errorf("%s: clusters=%d noise=%d", name, clusters[name], noise)
		}
	}
}

func TestDBSCANSingleCluster(t *testing.T) {
	var pts []geom.Point
	for i := 0; i < 10; i++ {
		pts = append(pts, geom.Point{X: float64(i) * 0.5, Y: 0})
	}
	labels, clusters := bothDBSCANs(t, pts, 1, 3)
	for name, l := range labels {
		if clusters[name] != 1 {
			t.Fatalf("%s: clusters = %d", name, clusters[name])
		}
		for i, c := range l {
			if c != 0 {
				t.Errorf("%s: point %d label = %d", name, i, c)
			}
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
	_, clusters := bothDBSCANs(t, pts, 1.5, 2)
	for name, n := range clusters {
		if n != 1 {
			t.Errorf("%s: chain gave %d clusters", name, n)
		}
	}
}

func TestDBSCANBorderPoint(t *testing.T) {
	// A point within eps of a core point but not itself core joins
	// the cluster as a border point.
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: 1, Y: 0}, // dense core
		{X: 1.9, Y: 0}, // border: 1 neighbour within eps=1 (the core at 1,0)
	}
	labels, clusters := bothDBSCANs(t, pts, 1, 3)
	for name, l := range labels {
		if clusters[name] != 1 {
			t.Fatalf("%s: clusters = %d", name, clusters[name])
		}
		if l[3] != 0 {
			t.Errorf("%s: border point label = %d, want 0", name, l[3])
		}
	}
}

// TestDBSCANDegenerateParams: the oracle clusters nothing on parameters
// Cluster rejects (TestClusterValidation).
func TestDBSCANDegenerateParams(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}
	if _, n := dbscan(pts, 0, 3); n != 0 {
		t.Error("eps=0 must cluster nothing")
	}
	if _, n := dbscan(pts, 1, 0); n != 0 {
		t.Error("minPts=0 must cluster nothing")
	}
	if labels, _ := dbscan(nil, 1, 1); len(labels) != 0 {
		t.Error("empty input must return empty labels")
	}
}

func TestEquivalentClusterings(t *testing.T) {
	a := []int{0, 0, 1, Noise}
	if !equivalentClusterings(a, []int{1, 1, 0, Noise}) {
		t.Error("renumbered clusterings must be equivalent")
	}
	if equivalentClusterings(a, []int{0, 1, 1, Noise}) {
		t.Error("different splits must not be equivalent")
	}
	if equivalentClusterings(a, []int{0, 0, 1, 1}) {
		t.Error("noise mismatch must not be equivalent")
	}
	if equivalentClusterings(a, []int{0}) {
		t.Error("length mismatch must not be equivalent")
	}
	// Merged clusters on one side only.
	e := []int{0, 0, 0, Noise}
	if equivalentClusterings(a, e) || equivalentClusterings(e, a) {
		t.Error("merged clustering must not be equivalent")
	}
}

// TestCheckDBSCAN: the checker accepts a border point in either of the
// two clusters it touches and nothing else.
func TestCheckDBSCAN(t *testing.T) {
	// Two blobs of four core points, 2.2 apart, and a border point half
	// way between their centres: eps 1.2, minPts 4.
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 0, Y: 0.5}, {X: 0, Y: -0.5}, {X: -0.5, Y: 0},
		{X: 2.2, Y: 0}, {X: 2.2, Y: 0.5}, {X: 2.2, Y: -0.5}, {X: 2.7, Y: 0},
		{X: 1.1, Y: 0},
	}
	want, n := dbscan(pts, 1.2, 4)
	if n != 2 || want[8] == Noise {
		t.Fatalf("oracle: %d clusters, labels %v", n, want)
	}
	other := append([]int(nil), want...)
	other[8] = want[0] + want[4] - want[8]
	if err := checkDBSCAN(pts, 1.2, 4, want, other); err != nil {
		t.Errorf("the other valid border choice: %v", err)
	}
	for name, bad := range map[string][]int{
		"noise border": {0, 0, 0, 0, 1, 1, 1, 1, Noise},
		"merged cores": {0, 0, 0, 0, 0, 0, 0, 0, 0},
		"split core":   {0, 2, 0, 0, 1, 1, 1, 1, 1},
		"foreign":      {0, 0, 0, 0, 1, 1, 1, 1, 2},
		"short":        {0},
	} {
		if checkDBSCAN(pts, 1.2, 4, want, bad) == nil {
			t.Errorf("%s: accepted %v against %v", name, bad, want)
		}
	}
}
