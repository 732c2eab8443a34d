package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"stark"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/index"
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
// (id, category handle), 16 bytes; a join result row the left key and a
// JoinRow of two values and the right key. A field added to either
// shows here, not as a drift of the benchmark's heap.
func TestRowBudget(t *testing.T) {
	if got := unsafe.Sizeof(stark.Tuple[eventValue]{}); got != 72 {
		t.Errorf("catalog row is %d bytes, want 72", got)
	}
	if got := unsafe.Sizeof(stark.Tuple[joinRow]{}); got != 144 {
		t.Errorf("join result row is %d bytes, want 144", got)
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
		if kv.Value.category() != ev.Category || eventTime(kv.Key) != ev.Time || keyWKT(kv.Key) != ev.WKT {
			t.Fatalf("row %d is (%s at %d, %q), generated as (%s at %d, %q)", kv.Value.ID,
				keyWKT(kv.Key), eventTime(kv.Key), kv.Value.category(), ev.WKT, ev.Time, ev.Category)
		}
	}
	runtime.KeepAlive(s)
}

// TestIndexedColumnarRowsHoldNoRepeats pins the resident form of an
// indexed columnar dataset of points at instants: the laid-out rows,
// three columns in their leaf order (24 B a row: the max bounds and end
// share the arrays of the min bounds and start), the tree's permutation
// and the tree's nodes, nothing per row beside them.
func TestIndexedColumnarRowsHoldNoRepeats(t *testing.T) {
	const n = 100_000
	ctx := engine.NewContext(2)
	s := NewService(ctx, Options{})
	base := heapHeld()
	spec := DatasetSpec{Name: "ev", N: n, Seed: 7, Dist: "skewed", Partitioner: "bsp:2000", Index: "persistent", Columnar: true}
	if _, err := s.catalog.Register(ctx, spec); err != nil {
		t.Fatal(err)
	}
	held := heapHeld() - base
	const (
		columns = 3 * 8 // MinX, MinY, TStart
		perms   = 4     // the tree's leaf order
	)
	// A packed tree of order k has fewer than 2n/k nodes, each an
	// envelope and a child or position range.
	nodes := unsafe.Sizeof(struct {
		geom.Envelope
		lo, hi int32
	}{}) * 2 / index.DefaultOrder
	perRow := uint64(unsafe.Sizeof(stark.Tuple[eventValue]{}) + columns + perms + nodes)
	if limit := n * perRow * 11 / 10; held > limit {
		t.Errorf("registered dataset holds %.1f MB (%d B a row), its rows, columns, permutation and tree are %.1f MB (limit 1.1×)",
			float64(held)/(1<<20), held/n, float64(n*perRow)/(1<<20))
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

// TestCategoriesSurviveEveryPath: a category is an interned handle in
// the row and text everywhere else. Categories that need escaping, a
// long one and one shared by several rows come in by inline
// registration and by ingest, leave through the feature lines, a where
// clause and a join partner, and come back the same after recovery
// from a checkpoint and from the WAL alone.
func TestCategoriesSurviveEveryPath(t *testing.T) {
	cats := []string{"", `a "q" <&>`, "line\u2028sep", strings.Repeat("long ", 60), "shared"}
	// Ids 1–8 are registered inline, 11–18 ingested; 6–8 and 16–18
	// share the last category, and the later batch moves id 1 to it.
	want := map[int64]string{}
	var inline []eventSpec
	var first strings.Builder
	for i := 0; i < 8; i++ {
		c := cats[min(i, len(cats)-1)]
		id, ingested := int64(i+1), int64(i+11)
		inline = append(inline, eventSpec{ID: int(id), Category: c, Time: int64(i), WKT: fmt.Sprintf("POINT (%d %d)", 10*i+1, 5*i+2)})
		line, _ := json.Marshal(mutationLine{Op: "insert", ID: &ingested, Category: c, Time: int64(i), WKT: fmt.Sprintf("POINT (%d %d)", 10*i+3, 5*i+4)})
		first.Write(append(line, '\n'))
		want[id], want[ingested] = c, c
	}
	const later = `{"op":"upsert","id":1,"category":"shared","time":9,"wkt":"POINT (1 2)"}`
	want[1] = "shared"

	queries := func() []map[string]any {
		all := map[string]any{"dataset": "fleet", "predicate": "intersects",
			"wkt": "POLYGON ((0 0, 100 0, 100 100, 0 100, 0 0))", "hasTime": true, "begin": 0, "end": 100}
		out := []map[string]any{all}
		for _, c := range cats {
			q := maps.Clone(all)
			q["where"] = map[string]any{"field": "category", "op": "eq", "value": c}
			out = append(out, q)
		}
		join := maps.Clone(all)
		join["join"] = map[string]any{"with": "fleet", "predicate": "intersects"}
		return append(out, join)
	}()
	// reply asks query i and checks every category in it; its feature
	// lines come back sorted, the summary dropped.
	reply := func(t *testing.T, s *Server, i int) []byte {
		t.Helper()
		body, _ := json.Marshal(queries[i])
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("query %s: %d %s", body, rec.Code, rec.Body)
		}
		feats, sum := ndjsonResponse(t, rec.Body.Bytes())
		where, _ := queries[i]["where"].(map[string]any)
		wantCount := len(want)
		if where != nil {
			wantCount = 0
			for _, c := range want {
				if c == where["value"] {
					wantCount++
				}
			}
		}
		if len(feats) != wantCount || sum.Count != int64(wantCount) {
			t.Fatalf("query %s: %d features, summary %d, want %d", body, len(feats), sum.Count, wantCount)
		}
		for _, f := range feats {
			props := f["properties"].(map[string]any)
			objs := []map[string]any{props}
			if r, ok := props["right"].(map[string]any); ok {
				objs = append(objs, r)
			} else if queries[i]["join"] != nil {
				t.Fatalf("join line without a right object: %v", f)
			}
			for _, o := range objs {
				id := int64(o["id"].(float64))
				if c, ok := o["category"].(string); !ok || c != want[id] || (where != nil && c != where["value"]) {
					t.Fatalf("query %s: id %d has category %q, want %q", body, id, o["category"], want[id])
				}
			}
		}
		lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
		lines = lines[:len(lines)-1]
		slices.SortFunc(lines, bytes.Compare)
		return bytes.Join(lines, []byte("\n"))
	}

	for _, checkpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpoint), func(t *testing.T) {
			dir := t.TempDir()
			s, _ := durableService(t, dir)
			if err := s.Register(DatasetSpec{Name: "fleet", Mutable: true, Partitioner: "grid:2", Width: 100, Height: 100, Events: inline}); err != nil {
				t.Fatal(err)
			}
			if rec := ingestNDJSON(t, s, "fleet", first.String()); rec.Code != http.StatusOK {
				t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
			}
			if checkpoint {
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if rec := ingestNDJSON(t, s, "fleet", later); rec.Code != http.StatusOK {
				t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
			}
			var before [][]byte
			for i := range queries {
				before = append(before, reply(t, s, i))
			}
			crash(t, s)

			s2, info := durableService(t, dir)
			if checkpoint != (info.Checkpoint > 0) || info.Batches == 0 {
				t.Fatalf("recovery: %+v", info)
			}
			for i := range queries {
				if got := reply(t, s2, i); !bytes.Equal(got, before[i]) {
					t.Errorf("query %d after recovery:\n%s\nbefore the crash:\n%s", i, got, before[i])
				}
			}
			crash(t, s2)
		})
	}
}

// TestGeneratedRowsEqualParsedRows pins the generator path of
// DatasetSpec.rows: its rows are the rows catalogRows parses from
// workload.Events' text, bit for bit, under every distribution, with
// the data space and time range defaulted and given.
func TestGeneratedRowsEqualParsedRows(t *testing.T) {
	ctx := engine.NewContext(2)
	for _, dist := range []workload.Distribution{workload.Skewed, workload.Uniform, workload.Diagonal} {
		for _, space := range []struct {
			w, h float64
			tr   int64
		}{{0, 0, 0}, {100, 37.5, 999}} {
			spec := DatasetSpec{Name: "ev", N: 20_000, Seed: 5, Dist: dist.String(), Width: space.w, Height: space.h, TimeRange: space.tr}
			got, err := spec.rows(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want, err := catalogRows(ctx, workload.Events(workload.Config{
				N: spec.N, Seed: spec.Seed, Dist: dist, Width: space.w, Height: space.h, TimeRange: space.tr,
			}))
			if err != nil || len(got) != len(want) {
				t.Fatalf("%s %v: %d generated rows, %d parsed, %v", dist, space, len(got), len(want), err)
			}
			for i := range got {
				g, w := got[i], want[i]
				gp, _ := g.Key.Point()
				wp, _ := w.Key.Point()
				giv, gt := g.Key.Time()
				wiv, wt := w.Key.Time()
				if math.Float64bits(gp.X) != math.Float64bits(wp.X) || math.Float64bits(gp.Y) != math.Float64bits(wp.Y) ||
					giv != wiv || gt != wt || g.Value.ID != w.Value.ID || g.Value.category() != w.Value.category() || g != w {
					t.Fatalf("%s %v row %d: generated (%v, %d, %q), parsed (%v, %d, %q)", dist, space, i,
						g.Key, g.Value.ID, g.Value.category(), w.Key, w.Value.ID, w.Value.category())
				}
			}
		}
	}
}

// TestGeneratedAndInlineRegistrationsReplyAlike: a dataset registered
// from the generator spec and the same events registered inline answer
// a window, a category and a dataset request with the same bytes (the
// summary's fingerprint aside: it embeds the process-wide engine
// generation).
func TestGeneratedAndInlineRegistrationsReplyAlike(t *testing.T) {
	fingerprint := regexp.MustCompile(`"fingerprint":"[^"]*"`)
	for _, mutable := range []bool{false, true} {
		spec := DatasetSpec{Name: "ev", N: 5_000, Seed: 3, Dist: "skewed", Width: 100, Height: 100, TimeRange: 1000, Partitioner: "bsp:200", Mutable: mutable}
		inline := withEvents(spec, workload.Events(workload.Config{N: spec.N, Seed: spec.Seed, Dist: workload.Skewed, Width: 100, Height: 100, TimeRange: 1000}))
		byCategory := windowQuery("ev")
		byCategory.Where = whereClauses{{Field: "category", Op: "eq", Value: workload.Categories[1]}}
		var bodies [2][]string
		for i, spec := range []DatasetSpec{spec, inline} {
			s := NewService(engine.NewContext(2), Options{})
			if err := s.Register(spec); err != nil {
				t.Fatal(err)
			}
			for _, q := range []serviceQueryRequest{windowQuery("ev"), byCategory} {
				rec := postV1Query(t, s, q)
				if _, sum := ndjsonResponse(t, rec.Body.Bytes()); rec.Code != http.StatusOK || sum.Count == 0 {
					t.Fatalf("mutable=%v: %d, %d rows", mutable, rec.Code, sum.Count)
				}
				bodies[i] = append(bodies[i], fingerprint.ReplaceAllString(rec.Body.String(), ""))
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/datasets/ev", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("mutable=%v: GET /api/datasets/ev: %d", mutable, rec.Code)
			}
			bodies[i] = append(bodies[i], rec.Body.String())
		}
		for j := range bodies[0] {
			if bodies[0][j] != bodies[1][j] {
				t.Errorf("mutable=%v request %d: generated\n%.300s\ninline\n%.300s", mutable, j, bodies[0][j], bodies[1][j])
			}
		}
	}
}

// BenchmarkRegisterRows times the rows step of a registration over
// 100k skewed events: the generator's points turned into keys, and the
// same events as inline text, parsed.
func BenchmarkRegisterRows(b *testing.B) {
	const n = 100_000
	ctx := engine.NewContext(runtime.GOMAXPROCS(0))
	generated := DatasetSpec{Name: "ev", N: n, Seed: 7, Dist: "skewed"}
	inline := withEvents(generated, workload.Events(workload.Config{N: n, Seed: 7, Dist: workload.Skewed}))
	for _, c := range []struct {
		name string
		spec DatasetSpec
	}{{"generated", generated}, {"inline", inline}} {
		b.Run(c.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range b.N {
				if rows, err := c.spec.rows(ctx); err != nil || len(rows) != n {
					b.Fatalf("%d rows, %v", len(rows), err)
				}
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*n), "allocs/row")
		})
	}
}

// TestRegisteredNaNKeyHidesNoRow: an inline POINT EMPTY (a point with
// NaN ordinates: the WKT reader spells no other NaN) among 2,000 points
// must not empty a window over all of them, nor make a Voronoi
// registration fail, under any partitioner. (A mutable registration
// refuses an empty key.)
func TestRegisteredNaNKeyHidesNoRow(t *testing.T) {
	events := workload.Events(workload.Config{N: 2000, Seed: 9, Width: 100, Height: 100, TimeRange: 1000})
	events = append(events, workload.Event{ID: len(events), Category: "void", Time: 5, WKT: "POINT EMPTY"})
	for _, part := range []string{"", "grid:4", "bsp:100", "voronoi:8"} {
		s := NewService(engine.NewContext(2), Options{})
		if err := s.Register(withEvents(DatasetSpec{Name: "ev", Partitioner: part}, events)); err != nil {
			t.Fatalf("%q: %v", part, err)
		}
		q := allQuery("ev")
		q.End = 1000
		rec := postV1Query(t, s, q)
		if _, sum := ndjsonResponse(t, rec.Body.Bytes()); rec.Code != http.StatusOK || sum.Count != 2000 {
			t.Errorf("%q: %d, %d of 2000 rows", part, rec.Code, sum.Count)
		}
	}
}
