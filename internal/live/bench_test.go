package live

import (
	"math/rand"
	"testing"

	"stark/internal/attr"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stobject"
	"stark/internal/workload"
)

// BenchmarkApplyUpsertBatch times Dataset.Apply on the shape the
// end-to-end ingest workload sends: 100k seeded events on an 8×8 grid,
// then batches of 100 upserts that move existing records (ids strided
// over the key space, so no two neighbouring batches share one) to new
// positions with a new category and time. One iteration is one batch;
// the batches are built outside the timer. "nofields" maintains the
// trees only, "event3" also the id/category/time postings the query
// service registers.
func BenchmarkApplyUpsertBatch(b *testing.B) {
	const (
		n         = 100_000
		batchOps  = 100
		idStride  = 7919
		timeRange = 1_000_000
	)
	events := workload.Events(workload.Config{N: n, Seed: 31, Dist: workload.Skewed, TimeRange: timeRange})
	tuples, dropped := workload.EventTuples(events)
	if dropped != 0 {
		b.Fatalf("%d generated events did not parse", dropped)
	}
	keys := make([]stobject.STObject, n)
	seed := make([]Op[workload.Event], n)
	for i, kv := range tuples {
		keys[i] = kv.Key
		seed[i] = Insert(int64(kv.Value.ID), kv.Key, kv.Value)
	}
	// Two rewrites of the key space, as in bench/e2e: when the pool
	// cycles, every upsert still moves its record.
	rng := rand.New(rand.NewSource(1))
	pool := make([][]Op[workload.Event], 2*n/batchOps)
	for i := range pool {
		batch := make([]Op[workload.Event], batchOps)
		for j := range batch {
			id := (i*batchOps + j) % n * idStride % n
			near := keys[rng.Intn(n)].Centroid()
			ev := workload.Event{
				ID:       id,
				Category: workload.Categories[rng.Intn(len(workload.Categories))],
				Time:     rng.Int63n(timeRange),
				WKT: geom.NewPoint(
					min(max(near.X+rng.NormFloat64()*2, 0), 1000),
					min(max(near.Y+rng.NormFloat64()*2, 0), 1000)).WKT(),
			}
			key, err := ev.ToSTObject()
			if err != nil {
				b.Fatal(err)
			}
			batch[j] = Upsert(int64(id), key, ev)
		}
		pool[i] = batch
	}

	for _, bc := range []struct {
		name   string
		fields []attr.Field[workload.Event]
	}{
		{"nofields", nil},
		{"event3", workload.EventSchema().Fields()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sp, err := partition.NewGrid(8, keys)
			if err != nil {
				b.Fatal(err)
			}
			d := NewDataset[workload.Event](engine.NewContext(2), "fleet", sp, 0)
			if bc.fields != nil {
				d.SetAttrFields(bc.fields)
			}
			if _, err := d.Apply(seed); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Apply(pool[i%len(pool)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
