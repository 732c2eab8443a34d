package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"stark/internal/attr"
	"stark/internal/colstore"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stobject"
)

// TestAttrFilterFieldsConcurrently: the first queries on eight fields of
// one dataset build eight postings at once. Each build writes the
// dataset's postings map while the other queries' streams read theirs,
// so a stream that kept the map instead of its field's slices races
// (go test -race), and every query must still find exactly the rows a
// scan finds.
func TestAttrFilterFieldsConcurrently(t *testing.T) {
	const fields = 8
	rows := make([]Tuple[int], 4000)
	for i := range rows {
		rows[i] = Tuple[int]{Key: stobject.New(geom.Point{X: float64(i % 97), Y: float64(i % 89)}), Value: i}
	}
	sch := attr.NewSchema[int]()
	for f := range fields {
		sch.Int64(fmt.Sprintf("f%d", f), func(_ stobject.STObject, v int) int64 { return int64(v % (f + 2)) })
	}
	ctx := engine.NewContext(4)
	s := Wrap(engine.Parallelize(ctx, rows, 4))
	s.SetSchema(sch)

	// The goroutines only build the streams: running them on the
	// context's pool would order the map accesses through the pool.
	streams := make([]*engine.Dataset[Tuple[int]], fields)
	var wg sync.WaitGroup
	for f := range fields {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pred := attr.Pred{Field: fmt.Sprintf("f%d", f), Op: attr.OpEq, Lo: attr.Value{Kind: attr.KindInt64, I: 1}}
			var err error
			if streams[f], err = s.AttrFilter(pred, func(Tuple[int]) bool { return true }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for f, ds := range streams {
		if ds == nil {
			continue
		}
		got, err := ds.Collect()
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, kv := range rows {
			if kv.Value%(f+2) == 1 {
				want++
			}
		}
		if len(got) != want {
			t.Errorf("field f%d: %d rows, a scan finds %d", f, len(got), want)
		}
		for _, kv := range got {
			if kv.Value%(f+2) != 1 {
				t.Fatalf("field f%d: row %d does not match", f, kv.Value)
			}
		}
	}
}

// TestFirstUsesMaterialiseOnce: eight goroutines make the first use of
// one dataset whose partitions are not materialised yet — postings
// probes on six fields, a columnar scan and a live-indexed kNN — at
// once. The partitions are set once: StatsRecords charges their rows
// once, plus once per field's postings and once for the columns, under
// go test -race, and every answer equals the brute force.
func TestFirstUsesMaterialiseOnce(t *testing.T) {
	const fields, n = 6, 3000
	rows := make([]Tuple[int], n)
	for i := range rows {
		rows[i] = Tuple[int]{Key: stobject.New(geom.Point{X: float64(i % 97), Y: float64(i % 89)}), Value: i}
	}
	sch := attr.NewSchema[int]()
	for f := range fields {
		sch.Int64(fmt.Sprintf("f%d", f), func(_ stobject.STObject, v int) int64 { return int64(v % (f + 2)) })
	}
	ctx := engine.NewContext(4)
	g, err := partition.NewGrid(3, keysOf(t, Wrap(engine.Parallelize(ctx, rows, 1))))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Wrap(engine.Parallelize(ctx, rows, 4)).PartitionBy(g)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSchema(sch)
	window := queryPolygon(10, 10, 40, 30)
	ref := stobject.New(geom.NewPoint(50, 50))
	before := ctx.Recorder().Snapshot()

	streams := make([]*engine.Dataset[Tuple[int]], fields+1)
	var nbrs []NeighborResult[int]
	var wg sync.WaitGroup
	for f := range fields {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pred := attr.Pred{Field: fmt.Sprintf("f%d", f), Op: attr.OpEq, Lo: attr.Value{Kind: attr.KindInt64, I: 1}}
			var err error
			if streams[f], err = s.AttrFilter(pred, func(Tuple[int]) bool { return true }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		col, err := s.Columnar()
		if err == nil {
			kq := KernelQueryFor(colstore.OpIntersects, colstore.TimeOverlap, window, 0)
			streams[fields], err = col.ColumnarFilter([]KernelPred{{Q: window, Pred: stobject.Intersects, Query: kq}}, nil)
		}
		if err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		var err error
		if nbrs, err = s.KNNContext(context.Background(), ref, 10, nil, 6); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for f, ds := range streams {
		got, err := ds.Collect()
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, kv := range rows {
			if f < fields && kv.Value%(f+2) == 1 || f == fields && kv.Key.Intersects(window) {
				want++
			}
		}
		if len(got) != want {
			t.Errorf("stream %d: %d rows, a scan finds %d", f, len(got), want)
		}
	}
	dists := make([]float64, n)
	for i, kv := range rows {
		dists[i] = ref.Distance(kv.Key, nil)
	}
	slices.Sort(dists)
	for i, nb := range nbrs {
		if nb.Distance != dists[i] {
			t.Fatalf("neighbour %d at %v, brute force %v", i, nb.Distance, dists[i])
		}
	}
	if len(nbrs) != 10 {
		t.Fatalf("%d neighbours, want 10", len(nbrs))
	}
	if got, want := ctx.Recorder().Snapshot().Sub(before)[engine.StatsRecords], int64(n*(1+fields+1)); got != want {
		t.Errorf("StatsRecords %d, want %d: the rows once, the postings of %d fields and the columns", got, want, fields)
	}
}
