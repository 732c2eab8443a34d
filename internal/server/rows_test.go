package server

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"stark"
	"stark/internal/engine"
	"stark/internal/workload"
)

// A catalog row is the paper's (STObject(wkt, t), (id, c)) (catalogRow):
// the tests here pin its size, the heap a dataset of them holds, and
// the recovery guarantee the row rests on.

// heapHeld is the live heap after two collections.
func heapHeld() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRowBudget pins the row sizes: a catalog row is a 56-byte key and
// (id, category), a join result row the left key and a JoinRow of two
// values and the right key. A field added to either shows here, not as
// a drift of the benchmark's heap.
func TestRowBudget(t *testing.T) {
	if got := unsafe.Sizeof(stark.Tuple[eventValue]{}); got != 80 {
		t.Errorf("catalog row is %d bytes, want 80", got)
	}
	if got := unsafe.Sizeof(stark.Tuple[joinRow]{}); got != 160 {
		t.Errorf("join result row is %d bytes, want 160", got)
	}
}

// TestCatalogRowsCarryNoText pins the resident form of a registered
// dataset: each row is (key, (id, category)), the text and the time
// parsed into the key, and the dataset holds its rows, nothing per row
// beside them. The text and time the WAL and checkpoints render from a
// key are the generator's.
func TestCatalogRowsCarryNoText(t *testing.T) {
	const n = 100_000
	ctx := engine.NewContext(2)
	s := NewService(ctx, Options{})
	base := heapHeld()
	e, err := s.catalog.Register(ctx, DatasetSpec{Name: "ev", N: n, Seed: 7, Dist: "skewed", Partitioner: "bsp:2000"})
	if err != nil {
		t.Fatal(err)
	}
	held := heapHeld() - base
	perRow := uint64(unsafe.Sizeof(stark.Tuple[eventValue]{}))
	if limit := n * perRow * 11 / 10; held > limit {
		t.Errorf("registered dataset holds %.1f MB, its rows are %.1f MB (limit 1.1×)",
			float64(held)/(1<<20), float64(n*perRow)/(1<<20))
	}
	rows, err := e.ds.Collect()
	if err != nil || len(rows) != n {
		t.Fatalf("collected %d rows, %v", len(rows), err)
	}
	events := workload.Events(workload.Config{N: n, Seed: 7, Dist: workload.Skewed})
	for _, kv := range rows {
		ev := events[kv.Value.ID]
		if kv.Value.Category != ev.Category || eventTime(kv.Key) != ev.Time || keyWKT(kv.Key) != ev.WKT {
			t.Fatalf("row %d is (%s at %d, %q), generated as (%s at %d, %q)", kv.Value.ID,
				keyWKT(kv.Key), eventTime(kv.Key), kv.Value.Category, ev.WKT, ev.Time, ev.Category)
		}
	}
	runtime.KeepAlive(s)
}

// replies runs the fixed query set and returns each reply's feature
// lines, sorted, followed by the count of its summary line. Two things
// of a reply are left out on purpose: the order of the rows (a restored
// tree is bulk-loaded, a replayed one grown by inserts) and the
// fingerprint (it embeds the process-wide engine generation).
func replies(t *testing.T, s *Server) [][]byte {
	t.Helper()
	all := allQuery("fleet")
	small := allQuery("fleet")
	small.WKT = "POLYGON ((3 3.5, 3.2 3.5, 3.2 4.5, 3 4.5, 3 3.5))"
	timed := allQuery("fleet")
	timed.Begin, timed.End = 2, 3
	byCategory := allQuery("fleet")
	byCategory.Where = whereClauses{{Field: "category", Op: "eq", Value: "shape"}}
	contains := allQuery("fleet")
	contains.Predicate = "containedby"
	contains.WKT = "POLYGON ((-1 -1, 11 -1, 11 11, -1 11, -1 -1))"

	var out [][]byte
	for i, q := range []serviceQueryRequest{all, small, timed, byCategory, contains} {
		rec := postV1Query(t, s, q)
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, rec.Code, rec.Body)
		}
		lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
		features := lines[:len(lines)-1]
		slices.SortFunc(features, bytes.Compare)
		_, sum := ndjsonResponse(t, rec.Body.Bytes())
		if sum.Count != int64(len(features)) {
			t.Fatalf("query %d: summary counts %d, %d feature lines", i, sum.Count, len(features))
		}
		out = append(out, append(bytes.Join(features, []byte("\n")), fmt.Sprintf("\ncount=%d", sum.Count)...))
	}
	return out
}

// recoveryBatch and recoveryLater are ingest batches spelling their
// WKT every way the parser accepts; replies asks its queries over them.
const recoveryBatch = `{"op":"insert","id":1,"category":"pt","time":1,"wkt":"POINT(3.10 4.0)"}
{"op":"insert","id":2,"category":"pt","time":2,"wkt":" point ( 1e2 2 ) "}
{"op":"insert","id":3,"category":"shape","time":3,"wkt":"POLYGON((0.0 0.0, 10.00 0, 10 10.0, 0 10))"}
{"op":"insert","id":4,"category":"pt","time":3,"wkt":"POINT (0.30000000000000004 -0)"}
{"op":"insert","id":5,"category":"shape","time":2,"wkt":"MULTIPOINT (1 1, 2.50 2, 3 3e0)"}
{"op":"insert","id":6,"category":"shape","time":1,"wkt":"linestring(0 0,5.0 5.00, 9 1)"}`
const recoveryLater = `{"op":"upsert","id":1,"category":"pt","time":2,"wkt":"POINT (  3.10   4.250 )"}
{"op":"delete","id":2}
{"op":"insert","id":7,"category":"shape","time":3,"wkt":"POLYGON ((1 1, 9.0 1, 9 9.00, 1 9, 1 1), (2 2, 3 2, 3 3.0, 2 3, 2 2))"}`

// TestRecoveryEquivalentUnderNonCanonicalText: the WAL and the
// checkpoint hold the text rendered from the key, not the text the
// client sent. Whatever spelling came in, a server recovered from
// either must answer like the one that crashed, coordinate digit for
// coordinate digit.
func TestRecoveryEquivalentUnderNonCanonicalText(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpoint), func(t *testing.T) {
			dir := t.TempDir()
			s, _ := durableService(t, dir)
			if err := s.Register(DatasetSpec{Name: "fleet", Mutable: true, Partitioner: "grid:2", Width: 100, Height: 100}); err != nil {
				t.Fatal(err)
			}
			if rec := ingestNDJSON(t, s, "fleet", recoveryBatch); rec.Code != http.StatusOK {
				t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
			}
			if checkpoint {
				// The first batch comes back from the rows file, the
				// second from the WAL suffix behind it.
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if rec := ingestNDJSON(t, s, "fleet", recoveryLater); rec.Code != http.StatusOK {
				t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
			}
			want := replies(t, s)
			if len(want[0]) < 500 {
				t.Fatalf("the covering window returns %q: bad test set-up", want[0])
			}
			crash(t, s)

			s2, info := durableService(t, dir)
			if checkpoint != (info.Checkpoint > 0) {
				t.Fatalf("recovery: %+v", info)
			}
			got := replies(t, s2)
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("query %d after recovery:\n%s\nbefore the crash:\n%s", i, got[i], want[i])
				}
			}
			crash(t, s2)
		})
	}
}
