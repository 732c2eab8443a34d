package core

import (
	"math/rand"
	"testing"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stobject"
	"stark/internal/temporal"
	"stark/internal/workload"
)

// BenchmarkScanShuffled is the layer number of the NoIndexing read
// path: one pruned 10×10 window scanned over a million skewed events
// shuffled by bsp(20000), the dataset read_scan serves. Its ns/row is
// set by how PartitionBy leaves rows and keys in memory; the windows
// rotate over the data so every scan starts cold, as a query does.
func BenchmarkScanShuffled(b *testing.B) {
	cfg := workload.Config{N: 1_000_000, Seed: 11, Dist: workload.Skewed, TimeRange: 1_000_000}
	tuples, _ := workload.EventTuples(workload.Events(cfg))
	keys := make([]stobject.STObject, len(tuples))
	for i := range tuples {
		keys[i] = tuples[i].Key
	}
	bsp, err := partition.NewBSP(partition.BSPConfig{MaxCost: 20000}, keys)
	if err != nil {
		b.Fatal(err)
	}
	ctx := engine.NewContext(2)
	parted, err := Wrap(engine.Parallelize(ctx, tuples, 2)).PartitionBy(bsp)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	windows := make([]stobject.STObject, 64)
	for i := range windows {
		c := keys[rng.Intn(len(keys))].Centroid()
		windows[i] = stobject.NewWithInterval(
			geom.NewEnvelope(c.X-5, c.Y-5, c.X+5, c.Y+5).ToPolygon(),
			temporal.MustInterval(0, temporal.Instant(cfg.TimeRange)))
	}
	tuples, keys = nil, nil

	before := ctx.Recorder().Snapshot()[engine.ElementsScanned]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := windows[i%len(windows)]
		if _, err := parted.Filter(q, q.Envelope(), stobject.Intersects); err != nil {
			b.Fatal(err)
		}
	}
	scanned := ctx.Recorder().Snapshot()[engine.ElementsScanned] - before
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(scanned), "ns/row")
}
