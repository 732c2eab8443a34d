package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stobject"
	"stark/internal/workload"
)

func blobDataset(t *testing.T, ctx *engine.Context, perBlob int, seed int64) (*SpatialDataset[int], int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	centers := []geom.Point{{X: 10, Y: 10}, {X: 60, Y: 60}, {X: 90, Y: 20}}
	var tuples []Tuple[int]
	id := 0
	for _, c := range centers {
		for i := 0; i < perBlob; i++ {
			p := geom.NewPoint(c.X+rng.NormFloat64()*0.5, c.Y+rng.NormFloat64()*0.5)
			tuples = append(tuples, engine.NewPair(stobject.New(p), id))
			id++
		}
	}
	return Wrap(engine.Parallelize(ctx, tuples, 4)), len(centers)
}

// pointDataset holds pts[i] under value i, in eight source partitions
// on a context of the given parallelism, laid out by layout: none, grid,
// bsp or voronoi.
func pointDataset(t *testing.T, pts []geom.Point, layout string, parallelism int) *SpatialDataset[int] {
	t.Helper()
	tuples := make([]Tuple[int], len(pts))
	keys := make([]stobject.STObject, len(pts))
	for i, p := range pts {
		keys[i] = stobject.New(p)
		tuples[i] = engine.NewPair(keys[i], i)
	}
	s := Wrap(engine.Parallelize(engine.NewContext(parallelism), tuples, 8))
	var sp partition.SpatialPartitioner
	var err error
	switch layout {
	case "none":
		return s
	case "grid":
		sp, err = partition.NewGrid(4, keys)
	case "bsp":
		sp, err = partition.NewBSP(partition.BSPConfig{MaxCost: len(pts)/16 + 1}, keys)
	case "voronoi":
		sp, err = partition.NewVoronoi(16, 1, keys)
	default:
		t.Fatalf("unknown layout %q", layout)
	}
	if err == nil {
		s, err = s.PartitionBy(sp)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// clusterPoints runs Cluster over a dataset whose values number its
// records and returns the labels in that numbering plus the cluster
// count. It fails the test unless the records come back as the dataset
// holds them, in partition order.
func clusterPoints(t *testing.T, s *SpatialDataset[int], eps float64, minPts int) ([]int, int) {
	t.Helper()
	in, err := s.Collect()
	if err != nil {
		t.Fatal(err)
	}
	recs, n, err := s.Cluster(context.Background(), ClusterOptions{Eps: eps, MinPts: minPts})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(in) {
		t.Fatalf("%d records back for %d", len(recs), len(in))
	}
	labels := make([]int, len(in))
	for i, r := range recs {
		if r.Value != in[i].Value {
			t.Fatalf("record %d is %d, the dataset holds %d there", i, r.Value, in[i].Value)
		}
		labels[r.Value] = r.Cluster
	}
	return labels, n
}

func TestClusterFindsBlobs(t *testing.T) {
	ctx := engine.NewContext(4)
	s, wantClusters := blobDataset(t, ctx, 80, 50)
	recs, n, err := s.Cluster(context.Background(), ClusterOptions{Eps: 2, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if n != wantClusters {
		t.Fatalf("clusters = %d, want %d", n, wantClusters)
	}
	noise := 0
	for _, r := range recs {
		if r.Cluster == Noise {
			noise++
		}
	}
	if noise != 0 {
		t.Errorf("noise = %d, want 0 for dense blobs", noise)
	}
}

func TestClusterReusesGridPartitioner(t *testing.T) {
	ctx := engine.NewContext(4)
	s, wantClusters := blobDataset(t, ctx, 60, 51)
	g, err := partition.NewGrid(2, keysOf(t, s))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := s.PartitionBy(g)
	if err != nil {
		t.Fatal(err)
	}
	_, n, err := ps.Cluster(context.Background(), ClusterOptions{Eps: 2, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if n != wantClusters {
		t.Errorf("clusters = %d, want %d", n, wantClusters)
	}
}

// TestClusterLayouts: 20k skewed points under every layout and at
// parallelism 1 and 4 give a valid DBSCAN labelling against the oracle,
// and within a layout the same labels at either parallelism.
func TestClusterLayouts(t *testing.T) {
	const eps, minPts = 0.25, 5
	pts := workload.Points(workload.Config{
		N: 20_000, Seed: 40, Dist: workload.Skewed, Clusters: 5, Spread: 6, Width: 1000, Height: 1000,
	})
	want, _ := dbscan(pts, eps, minPts)
	for _, layout := range []string{"none", "grid", "bsp", "voronoi"} {
		var first []int
		for _, parallelism := range []int{1, 4} {
			got, n := clusterPoints(t, pointDataset(t, pts, layout, parallelism), eps, minPts)
			if err := checkDBSCAN(pts, eps, minPts, want, got); err != nil {
				t.Fatalf("%s, parallelism %d: %v", layout, parallelism, err)
			}
			if n == 0 || slices.Max(got) != n-1 {
				t.Errorf("%s, parallelism %d: %d clusters, largest label %d", layout, parallelism, n, slices.Max(got))
			}
			if first == nil {
				first = got
			} else if !slices.Equal(first, got) {
				t.Errorf("%s: the labels at parallelism %d differ from those at 1", layout, parallelism)
			}
		}
	}
}

// TestClusterSpanningPartitions: one dense blob on the junction of the
// four cells of a grid is one cluster, as the oracle has it.
func TestClusterSpanningPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := blob(rng, 50, 50, 1.0, 300)
	// Corner anchors, so the grid splits the blob.
	pts = append(pts, geom.Point{X: 0, Y: 0}, geom.Point{X: 100, Y: 100})
	s := pointDataset(t, pts, "none", 4)
	g, err := partition.NewGrid(2, keysOf(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if s, err = s.PartitionBy(g); err != nil {
		t.Fatal(err)
	}
	got, n := clusterPoints(t, s, 1.5, 4)
	if n != 1 {
		t.Fatalf("a blob split across partitions gave %d clusters, want 1", n)
	}
	if want, _ := dbscan(pts, 1.5, 4); !equivalentClusterings(want, got) {
		t.Error("the spanning cluster differs from the oracle's")
	}
}

// partitionedPoints holds pts[i] under value i on a context of
// parallelism 4, partitioned by sp.
func partitionedPoints(t *testing.T, pts []geom.Point, sp partition.SpatialPartitioner) *SpatialDataset[int] {
	t.Helper()
	s, err := pointDataset(t, pts, "none", 4).PartitionBy(sp)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestClusterMatchesSequential: three blobs and far noise on a 3x3 grid
// cluster as the oracle clusters them.
func TestClusterMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts, _ := threeBlobsWithNoise(rng, 150)
	g, err := partition.NewGrid(3, keysOf(t, pointDataset(t, pts, "none", 1)))
	if err != nil {
		t.Fatal(err)
	}
	want, wantN := dbscan(pts, 2.0, 5)
	got, n := clusterPoints(t, partitionedPoints(t, pts, g), 2.0, 5)
	if err := checkDBSCAN(pts, 2.0, 5, want, got); err != nil {
		t.Fatal(err)
	}
	if n != wantN {
		t.Errorf("clusters = %d, the oracle has %d", n, wantN)
	}
}

// TestClusterWithBSP: the same on a BSP layout, whose cells are not a
// regular grid.
func TestClusterWithBSP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts, _ := threeBlobsWithNoise(rng, 200)
	bsp, err := partition.NewBSP(partition.BSPConfig{MaxCost: 100}, keysOf(t, pointDataset(t, pts, "none", 1)))
	if err != nil {
		t.Fatal(err)
	}
	want, wantN := dbscan(pts, 2.0, 5)
	got, n := clusterPoints(t, partitionedPoints(t, pts, bsp), 2.0, 5)
	if err := checkDBSCAN(pts, 2.0, 5, want, got); err != nil {
		t.Fatal(err)
	}
	if n != wantN {
		t.Errorf("clusters = %d, the oracle has %d", n, wantN)
	}
}

// TestClusterValidationOnPartitions: on a partitioned dataset, a bad ε
// or minPts fails before any task launches, and a single point on a
// one-cell grid is a cluster of its own at minPts 1.
func TestClusterValidationOnPartitions(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}}
	g, err := partition.NewGrid(1, keysOf(t, pointDataset(t, pts, "none", 1)))
	if err != nil {
		t.Fatal(err)
	}
	s := partitionedPoints(t, pts, g)
	rec := s.Dataset().Context().Recorder()
	for _, bad := range []ClusterOptions{{Eps: 0, MinPts: 1}, {Eps: -1, MinPts: 1}, {Eps: 1, MinPts: 0}, {Eps: 1, MinPts: -2}} {
		before := rec.Snapshot()
		if _, _, err := s.Cluster(context.Background(), bad); err == nil {
			t.Errorf("eps %v, minPts %d must fail", bad.Eps, bad.MinPts)
		}
		if launched := rec.Snapshot().Sub(before)[engine.TasksLaunched]; launched != 0 {
			t.Errorf("eps %v, minPts %d: %d tasks launched before the error", bad.Eps, bad.MinPts, launched)
		}
	}
	if got, n := clusterPoints(t, s, 1, 1); n != 1 || got[0] != 0 {
		t.Errorf("one point at minPts 1: label %d of %d clusters, want 0 of 1", got[0], n)
	}
}

// TestPropClusterEqualsSequentialOnSeparatedBlobs: blobs far apart
// have one correct clustering, and Cluster finds it.
func TestPropClusterEqualsSequentialOnSeparatedBlobs(t *testing.T) {
	f := func(seed int64, blobsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nBlobs := int(blobsRaw%4) + 1
		var pts []geom.Point
		// Blobs on a coarse lattice: separation >> eps.
		for b := 0; b < nBlobs; b++ {
			pts = append(pts, blob(rng, float64((b%3)*40+10), float64((b/3)*40+10), 0.4, 40)...)
		}
		want, _ := dbscan(pts, 1.5, 4)
		got, _ := clusterPoints(t, pointDataset(t, pts, "grid", 4), 1.5, 4)
		return equivalentClusterings(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestClusterCentroidsAndEmptyKeys: a polygon key is clustered at its
// centroid, however far its envelope reaches, and a record with an
// empty key has no neighbour but itself.
func TestClusterCentroidsAndEmptyKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := append(blob(rng, 0, 0, 0.3, 40), blob(rng, 20, 0, 0.3, 40)...)
	tuples := make([]Tuple[int], 0, len(pts)+3)
	for i, p := range pts {
		tuples = append(tuples, engine.NewPair(stobject.New(p), i))
	}
	// A square centred on the second blob that reaches over the first,
	// a thin one centred half way between them, and an empty key.
	inBlob := geom.NewEnvelope(1, -19, 39, 19).ToPolygon()
	between := geom.NewEnvelope(-5, -0.1, 25, 0.1).ToPolygon()
	tuples = append(tuples,
		engine.NewPair(stobject.New(inBlob), len(pts)),
		engine.NewPair(stobject.New(between), len(pts)+1),
		engine.NewPair(stobject.STObject{}, len(pts)+2))
	centroids := slices.Concat(pts, []geom.Point{inBlob.Centroid(), between.Centroid()})
	for _, minPts := range []int{1, 4} {
		for _, layout := range []string{"none", "bsp"} {
			s := Wrap(engine.Parallelize(engine.NewContext(2), tuples, 3))
			if layout == "bsp" {
				keys := keysOf(t, s)
				bsp, err := partition.NewBSP(partition.BSPConfig{MaxCost: 20}, keys)
				if err == nil {
					s, err = s.PartitionBy(bsp)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			got, n := clusterPoints(t, s, 1, minPts)
			want, wantN := dbscan(centroids, 1, minPts)
			if err := checkDBSCAN(centroids, 1, minPts, want, got[:len(centroids)]); err != nil {
				t.Errorf("minPts %d, %s: %v", minPts, layout, err)
			}
			empty := got[len(centroids)]
			switch {
			case minPts == 1 && (empty == Noise || slices.Contains(got[:len(centroids)], empty) || n != wantN+1):
				t.Errorf("minPts 1, %s: the empty key has label %d of %d clusters, want a cluster of its own", layout, empty, n)
			case minPts > 1 && (empty != Noise || n != wantN):
				t.Errorf("minPts %d, %s: the empty key has label %d, %d clusters, want noise and %d", minPts, layout, empty, n, wantN)
			}
			if got[len(pts)] != got[len(pts)-1] || got[len(pts)] == got[0] {
				t.Errorf("minPts %d, %s: the square is in cluster %d, want the second blob's %d", minPts, layout, got[len(pts)], got[len(pts)-1])
			}
		}
	}
}

// TestClusterStopsWhenCancelled: a context that is already done stops
// the collect before its first task, and one cancelled once the first
// join slot loads stops the join; either way Cluster returns an error
// wrapping context.Canceled and launches no task after it returns.
func TestClusterStopsWhenCancelled(t *testing.T) {
	ctx := engine.NewContext(4)
	s, _ := blobDataset(t, ctx, 80, 53)
	checked := testHookSlotBuilt
	defer func() { testHookSlotBuilt = checked }()
	for _, layout := range []string{"unpartitioned", "grid"} {
		ds := s
		if layout == "grid" {
			g, err := partition.NewGrid(4, keysOf(t, s))
			if err != nil {
				t.Fatal(err)
			}
			if ds, err = s.PartitionBy(g); err != nil {
				t.Fatal(err)
			}
		}
		for _, when := range []string{"before", "first slot"} {
			cancelled, cancel := context.WithCancel(context.Background())
			testHookSlotBuilt = checked
			if when == "before" {
				cancel()
			} else {
				var once sync.Once
				testHookSlotBuilt = func(check func() error) {
					checked(check)
					once.Do(cancel)
				}
			}
			before := ctx.Recorder().Snapshot()
			recs, n, err := ds.Cluster(cancelled, ClusterOptions{Eps: 2, MinPts: 5})
			returned := ctx.Recorder().Snapshot()
			if !errors.Is(err, context.Canceled) || recs != nil || n != 0 {
				t.Errorf("%s, cancelled %s: Cluster = %d records, %d clusters, err %v", layout, when, len(recs), n, err)
			}
			launched := returned.Sub(before)[engine.TasksLaunched]
			if when == "before" && launched != 0 {
				t.Errorf("%s: a cancelled Cluster launched %d tasks", layout, launched)
			}
			time.Sleep(20 * time.Millisecond)
			if later := ctx.Recorder().Snapshot().Sub(returned)[engine.TasksLaunched]; later != 0 {
				t.Errorf("%s, cancelled %s: %d tasks launched after Cluster returned", layout, when, later)
			}
			cancel()
		}
	}
}

func TestClusterValidation(t *testing.T) {
	ctx := engine.NewContext(2)
	s, _ := blobDataset(t, ctx, 10, 52)
	if _, _, err := s.Cluster(context.Background(), ClusterOptions{Eps: 0, MinPts: 3}); err == nil {
		t.Error("eps=0 must fail")
	}
	if _, _, err := s.Cluster(context.Background(), ClusterOptions{Eps: 1, MinPts: 0}); err == nil {
		t.Error("minPts=0 must fail")
	}
	empty := Wrap(engine.Parallelize(ctx, []Tuple[int]{}, 1))
	recs, n, err := empty.Cluster(context.Background(), ClusterOptions{Eps: 1, MinPts: 1})
	if err != nil || n != 0 || len(recs) != 0 {
		t.Errorf("empty cluster: %d/%d err=%v", len(recs), n, err)
	}
}
