package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"stark/internal/cluster"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stobject"
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
		if r.Cluster == cluster.Noise {
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

// TestClusterStopsWhenCancelled: a context that is already done stops
// the collect before its first task, so no task launches and the error
// wraps context.Canceled.
func TestClusterStopsWhenCancelled(t *testing.T) {
	ctx := engine.NewContext(4)
	s, _ := blobDataset(t, ctx, 80, 53)
	for _, layout := range []string{"unpartitioned", "grid"} {
		ds := s
		if layout == "grid" {
			g, err := partition.NewGrid(2, keysOf(t, s))
			if err != nil {
				t.Fatal(err)
			}
			if ds, err = s.PartitionBy(g); err != nil {
				t.Fatal(err)
			}
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		before := ctx.Recorder().Snapshot()
		recs, n, err := ds.Cluster(cancelled, ClusterOptions{Eps: 2, MinPts: 5})
		if !errors.Is(err, context.Canceled) || recs != nil || n != 0 {
			t.Errorf("%s: cancelled Cluster = %d records, %d clusters, err %v", layout, len(recs), n, err)
		}
		if launched := ctx.Recorder().Snapshot().Sub(before)[engine.TasksLaunched]; launched != 0 {
			t.Errorf("%s: cancelled Cluster launched %d tasks", layout, launched)
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
