package core

import (
	"testing"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stobject"
)

func TestWhereMatchesEagerFilter(t *testing.T) {
	ctx := engine.NewContext(4)
	s, tuples := makeDataset(t, ctx, 800, 4, 70)
	q := queryPolygon(20, 20, 60, 70)
	lazy, err := s.WhereIntersects(q).Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := bruteFilter(tuples, q, stobject.Intersects)
	if !sameIDs(gotIDs(lazy), want) {
		t.Fatalf("lazy %d vs brute %d", len(lazy), len(want))
	}
	// Chaining: two filters compose like a conjunction.
	q2 := queryPolygon(40, 40, 100, 100)
	chained, err := s.WhereIntersects(q).WhereIntersects(q2).Collect()
	if err != nil {
		t.Fatal(err)
	}
	both := 0
	for _, kv := range tuples {
		if kv.Key.Intersects(q) && kv.Key.Intersects(q2) {
			both++
		}
	}
	if len(chained) != both {
		t.Errorf("chained = %d, want %d", len(chained), both)
	}
	if both == 0 {
		t.Error("degenerate chain test")
	}
}

func TestWherePreservesPartitioner(t *testing.T) {
	ctx := engine.NewContext(4)
	s, _ := makeDataset(t, ctx, 1000, 4, 71)
	g, err := partition.NewGrid(3, keysOf(t, s))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := s.PartitionBy(g)
	if err != nil {
		t.Fatal(err)
	}
	centre := stobject.MustFromWKT("POINT (50 50)")
	filtered := ps.Where(centre, centre.Envelope().ExpandBy(30), stobject.WithinDistancePredicate(30, nil))
	if filtered.Partitioner() == nil {
		t.Fatal("filter must preserve the partitioner")
	}
	// Downstream pruned query still correct.
	ctx.Metrics().Reset()
	q := queryPolygon(40, 40, 60, 60)
	hits, err := filtered.Filter(q, q.Envelope(), stobject.Intersects)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: collect-then-check.
	all, _ := filtered.Collect()
	want := bruteFilter(all, q, stobject.Intersects)
	if !sameIDs(gotIDs(hits), want) {
		t.Errorf("pruned filter after Where: %d vs %d", len(hits), len(want))
	}
	if ctx.Metrics().Snapshot().TasksSkipped == 0 {
		t.Error("expected partition pruning after Where")
	}
}

func TestWhereContainedByAndCount(t *testing.T) {
	ctx := engine.NewContext(2)
	s, tuples := makeDataset(t, ctx, 500, 4, 72)
	q := queryPolygon(0, 0, 50, 50)
	n, err := s.Where(q, q.Envelope(), stobject.ContainedBy).Count()
	if err != nil {
		t.Fatal(err)
	}
	want := bruteFilter(tuples, q, stobject.ContainedBy)
	if n != int64(len(want)) {
		t.Errorf("count = %d, want %d", n, len(want))
	}
}

func TestMapDatasetValues(t *testing.T) {
	ctx := engine.NewContext(2)
	s, _ := makeDataset(t, ctx, 100, 2, 73)
	doubled := MapDatasetValues(s, func(v int) int { return v * 2 })
	got, err := doubled.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range got {
		if kv.Value%2 != 0 {
			t.Fatal("value not doubled")
		}
	}
	// Partitioner preserved.
	g, err := partition.NewGrid(2, keysOf(t, s))
	if err != nil {
		t.Fatal(err)
	}
	ps, _ := s.PartitionBy(g)
	if MapDatasetValues(ps, func(v int) int { return v }).Partitioner() == nil {
		t.Error("MapDatasetValues must preserve the partitioner")
	}
}

func TestReKeyDropsPartitioner(t *testing.T) {
	ctx := engine.NewContext(2)
	s, _ := makeDataset(t, ctx, 100, 2, 74)
	g, err := partition.NewGrid(2, keysOf(t, s))
	if err != nil {
		t.Fatal(err)
	}
	ps, _ := s.PartitionBy(g)
	rekeyed := ReKey(ps, func(k stobject.STObject, v int) stobject.STObject {
		c := k.Centroid()
		return stobject.New(geom.NewPoint(c.X+500, c.Y))
	})
	if rekeyed.Partitioner() != nil {
		t.Error("ReKey must drop the partitioner")
	}
	got, err := rekeyed.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range got {
		if kv.Key.Centroid().X < 500 {
			t.Fatal("key not shifted")
		}
	}
}
