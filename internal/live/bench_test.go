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

const (
	fleetEvents = 100_000
	fleetRange  = 1_000_000 // event times
)

// fleet returns the records of the end-to-end ingest workload's
// dataset, 100k seeded events, and the 8×8 grid it registers them on.
func fleet(b *testing.B) ([]Record[workload.Event], partition.SpatialPartitioner) {
	events := workload.Events(workload.Config{N: fleetEvents, Seed: 31, Dist: workload.Skewed, TimeRange: fleetRange})
	tuples, dropped := workload.EventTuples(events)
	if dropped != 0 {
		b.Fatalf("%d generated events did not parse", dropped)
	}
	keys := make([]stobject.STObject, len(tuples))
	recs := make([]Record[workload.Event], len(tuples))
	for i, kv := range tuples {
		keys[i] = kv.Key
		recs[i] = Record[workload.Event]{ID: int64(kv.Value.ID), Key: kv.Key, Value: kv.Value}
	}
	sp, err := partition.NewGrid(8, keys)
	if err != nil {
		b.Fatal(err)
	}
	return recs, sp
}

// newFleet returns an empty dataset on sp maintaining the given fields.
func newFleet(sp partition.SpatialPartitioner, fields []attr.Field[workload.Event]) *Dataset[workload.Event] {
	d := NewDataset[workload.Event](engine.NewContext(2), "fleet", sp, 0)
	if fields != nil {
		d.SetAttrFields(fields)
	}
	return d
}

// BenchmarkLoad times building the fleet dataset with the id, category
// and time postings the query service registers: "restore" loads it
// (STR-packed trees, postings cut from sorted runs), "insert" applies
// it as one batch of inserts. CI gates restore below insert.
func BenchmarkLoad(b *testing.B) {
	recs, sp := fleet(b)
	ops := make([]Op[workload.Event], len(recs))
	for i, r := range recs {
		ops[i] = Op[workload.Event]{Kind: OpInsert, Rec: r}
	}
	for _, bc := range []struct {
		name string
		load func(d *Dataset[workload.Event]) error
	}{
		{"restore", func(d *Dataset[workload.Event]) error { return d.Restore(1, recs) }},
		{"insert", func(d *Dataset[workload.Event]) error { _, err := d.Apply(ops); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.load(newFleet(sp, workload.EventSchema().Fields())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApplyUpsertBatch times Dataset.Apply on the shape the
// end-to-end ingest workload sends: the fleet dataset, then batches of
// 100 upserts that move existing records (ids strided over the key
// space, so no two neighbouring batches share one) to new positions
// with a new category and time. One iteration restores the fleet
// outside the timer and applies the whole pool, two rewrites of the key
// space, inside it: every iteration starts from the same state and runs
// the same vacuums, so ns/op does not depend on b.N. ns/batch is ns/op
// over the 2,000 batches. "nofields" maintains the trees only,
// "event3" also the id/category/time postings the query service
// registers.
func BenchmarkApplyUpsertBatch(b *testing.B) {
	const (
		batchOps = 100
		idStride = 7919
	)
	recs, sp := fleet(b)
	// Two rewrites of the key space, as in bench/e2e: when the pool
	// cycles, every upsert still moves its record.
	rng := rand.New(rand.NewSource(1))
	pool := make([][]Op[workload.Event], 2*fleetEvents/batchOps)
	for i := range pool {
		batch := make([]Op[workload.Event], batchOps)
		for j := range batch {
			id := (i*batchOps + j) % fleetEvents * idStride % fleetEvents
			near := recs[rng.Intn(fleetEvents)].Key.Centroid()
			ev := workload.Event{
				ID:       id,
				Category: workload.Categories[rng.Intn(len(workload.Categories))],
				Time:     rng.Int63n(fleetRange),
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
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := newFleet(sp, bc.fields)
				if err := d.Restore(1, recs); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, batch := range pool {
					if _, err := d.Apply(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pool)), "ns/batch")
		})
	}
}
