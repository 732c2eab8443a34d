package core

import (
	"fmt"
	"sync"
	"testing"

	"stark/internal/attr"
	"stark/internal/engine"
	"stark/internal/geom"
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
