package bench

import (
	"strings"
	"testing"

	"stark/internal/engine"
	"stark/internal/workload"
)

func testTuples(n int, dist workload.Distribution) []Tuple {
	return workload.SpatialTuples(workload.Config{N: n, Seed: 42, Dist: dist, Width: 100, Height: 100})
}

func TestGeoSparkRequiresPartitioner(t *testing.T) {
	ctx := engine.NewContext(4)
	if _, err := GeoSparkSelfJoin(ctx, testTuples(100, workload.Uniform), SelfJoinConfig{Eps: 1}); err == nil {
		t.Fatal("unpartitioned GeoSpark join must be N/A")
	}
}

func TestGeoSparkTileMatchesReference(t *testing.T) {
	ctx := engine.NewContext(4)
	tuples := testTuples(2000, workload.Uniform)
	want := STARKSelfJoinCount(tuples, 2)
	got, err := GeoSparkSelfJoin(ctx, tuples, SelfJoinConfig{
		Eps: 2, Partitioner: TilePartitioner, PPD: 4, Dedupe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("deduped tile join = %d, want %d", got, want)
	}
}

func TestGeoSparkVoronoiMatchesReference(t *testing.T) {
	ctx := engine.NewContext(4)
	tuples := testTuples(2000, workload.Skewed)
	want := STARKSelfJoinCount(tuples, 2)
	got, err := GeoSparkSelfJoin(ctx, tuples, SelfJoinConfig{
		Eps: 2, Partitioner: VoronoiPartitioner, NumSeeds: 16, Seed: 7, Dedupe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("deduped voronoi join = %d, want %d", got, want)
	}
}

func TestGeoSparkWithoutDedupeOvercounts(t *testing.T) {
	// The paper's observation: GeoSpark produced varying result
	// counts under replicating partitioners. Without deduplication,
	// replicated pairs are overcounted.
	ctx := engine.NewContext(4)
	tuples := testTuples(3000, workload.Uniform)
	want := STARKSelfJoinCount(tuples, 3)
	got, err := GeoSparkSelfJoin(ctx, tuples, SelfJoinConfig{
		Eps: 3, Partitioner: TilePartitioner, PPD: 6, Dedupe: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got <= want {
		t.Errorf("raw count %d should exceed correct count %d (replication duplicates)", got, want)
	}
}

func TestSpatialSparkUnpartitionedMatchesReference(t *testing.T) {
	ctx := engine.NewContext(4)
	tuples := testTuples(1500, workload.Uniform)
	want := STARKSelfJoinCount(tuples, 2)
	got, err := SpatialSparkSelfJoin(ctx, tuples, SelfJoinConfig{Eps: 2, Partitioner: NoPartitioner})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("unpartitioned = %d, want %d", got, want)
	}
}

func TestSpatialSparkTileMatchesReference(t *testing.T) {
	ctx := engine.NewContext(4)
	tuples := testTuples(1500, workload.Skewed)
	want := STARKSelfJoinCount(tuples, 2)
	got, err := SpatialSparkSelfJoin(ctx, tuples, SelfJoinConfig{
		Eps: 2, Partitioner: TilePartitioner, PPD: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("tile = %d, want %d", got, want)
	}
}

func TestAllStrategiesAgreeAcrossDistributions(t *testing.T) {
	ctx := engine.NewContext(4)
	for _, dist := range []workload.Distribution{workload.Uniform, workload.Skewed, workload.Diagonal} {
		tuples := testTuples(1000, dist)
		want := STARKSelfJoinCount(tuples, 1.5)
		geo, err := GeoSparkSelfJoin(ctx, tuples, SelfJoinConfig{
			Eps: 1.5, Partitioner: VoronoiPartitioner, NumSeeds: 8, Dedupe: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		ss, err := SpatialSparkSelfJoin(ctx, tuples, SelfJoinConfig{Eps: 1.5, Partitioner: NoPartitioner})
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		if geo != want || ss != want {
			t.Errorf("%v: geo=%d ss=%d want=%d", dist, geo, ss, want)
		}
	}
}

func TestPartitionerKindString(t *testing.T) {
	if NoPartitioner.String() != "none" || TilePartitioner.String() != "tile" ||
		VoronoiPartitioner.String() != "voronoi" {
		t.Error("names wrong")
	}
	if !strings.Contains(PartitionerKind(9).String(), "9") {
		t.Error("unknown kind should include number")
	}
}

func TestSelfJoinCountIncludesSelfPairs(t *testing.T) {
	tuples := testTuples(100, workload.Uniform)
	// Every point is within eps of itself.
	if got := STARKSelfJoinCount(tuples, 0.0001); got < 100 {
		t.Errorf("count = %d, want >= 100", got)
	}
}

func TestUnsupportedPartitionerErrors(t *testing.T) {
	ctx := engine.NewContext(2)
	tuples := testTuples(10, workload.Uniform)
	if _, err := GeoSparkSelfJoin(ctx, tuples, SelfJoinConfig{Eps: 1, Partitioner: PartitionerKind(42)}); err == nil {
		t.Error("unknown partitioner must fail")
	}
	if _, err := SpatialSparkSelfJoin(ctx, tuples, SelfJoinConfig{Eps: 1, Partitioner: PartitionerKind(42)}); err == nil {
		t.Error("unknown partitioner must fail")
	}
}
