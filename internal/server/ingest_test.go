package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"stark"
	"stark/internal/engine"
	"stark/internal/live"
	"stark/internal/workload"
)

// mutableService builds a service whose "default" dataset is mutable
// (grid layout over roughly [0,100]², seeded with n point events at
// (i mod 100, i mod 100) and time i mod 1000).
func mutableService(t *testing.T, n int, opts Options) (*Server, *stark.Context) {
	t.Helper()
	ctx := engine.NewContext(4)
	s := NewService(ctx, opts)
	spec := DatasetSpec{
		Name:        DefaultDataset,
		Mutable:     true,
		Partitioner: "grid:4",
		Width:       100,
		Height:      100,
		Events:      seedEvents(0, n),
	}
	if _, err := s.catalog.Register(ctx, spec); err != nil {
		t.Fatal(err)
	}
	return s, ctx
}

// seedEvents generates n inline point events with IDs [base, base+n).
func seedEvents(base, n int) []EventSpec {
	evs := make([]EventSpec, n)
	for i := range evs {
		id := base + i
		evs[i] = EventSpec{
			ID:       id,
			Category: "seed",
			Time:     int64(id % 1000),
			WKT:      fmt.Sprintf("POINT (%d %d)", id%100, (id*7)%100),
		}
	}
	return evs
}

func ingestNDJSON(t *testing.T, s *Server, dataset, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest?dataset="+dataset, strings.NewReader(body))
	s.ServeHTTP(rec, req)
	return rec
}

// allQuery matches every seeded/ingested event: full spatial window,
// covering time window (generated events always carry an instant, so
// a time window is required to match at all).
func allQuery(dataset string) ServiceQueryRequest {
	return ServiceQueryRequest{
		Dataset: dataset,
		QueryRequest: QueryRequest{
			Predicate: "intersects",
			WKT:       "POLYGON ((0 0, 100 0, 100 100, 0 100, 0 0))",
			HasTime:   true,
			Begin:     0,
			End:       1_000_000,
		},
	}
}

func TestIngestRoundTrip(t *testing.T) {
	s, _ := mutableService(t, 50, Options{})

	// One batch: 10 inserts, 5 upserts of seeds, 5 deletes of seeds.
	var b strings.Builder
	for i := 100; i < 110; i++ {
		fmt.Fprintf(&b, `{"op":"insert","id":%d,"category":"new","time":%d,"wkt":"POINT (%d %d)"}`+"\n", i, i, i%100, i%100)
	}
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&b, `{"op":"upsert","id":%d,"category":"moved","time":%d,"wkt":"POINT (%d %d)"}`+"\n", i, i, (i+50)%100, (i+50)%100)
	}
	for i := 5; i < 10; i++ {
		fmt.Fprintf(&b, `{"op":"delete","id":%d}`+"\n", i)
	}
	rec := ingestNDJSON(t, s, "", b.String())
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Dataset    string `json:"dataset"`
		Generation uint64 `json:"generation"`
		Inserted   int    `json:"inserted"`
		Replaced   int    `json:"replaced"`
		Deleted    int    `json:"deleted"`
		Missing    int    `json:"missing"`
		Count      int64  `json:"count"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Generation != 2 { // seed batch was generation 1
		t.Errorf("generation = %d, want 2", resp.Generation)
	}
	if resp.Inserted != 10 || resp.Replaced != 5 || resp.Deleted != 5 || resp.Missing != 0 {
		t.Errorf("batch result = %+v", resp)
	}
	if resp.Count != 55 { // 50 seeds + 10 inserts - 5 deletes
		t.Errorf("count = %d, want 55", resp.Count)
	}

	qrec := postV1Query(t, s, allQuery(""))
	if qrec.Code != http.StatusOK {
		t.Fatalf("query status = %d: %s", qrec.Code, qrec.Body.String())
	}
	features, sum := ndjsonResponse(t, qrec.Body.Bytes())
	if sum.Count != 55 || len(features) != 55 {
		t.Errorf("query after ingest returned %d rows (summary %d), want 55", len(features), sum.Count)
	}
}

func TestIngestRejectsAndLimits(t *testing.T) {
	s, _ := mutableService(t, 10, Options{})
	entry, _ := s.catalog.Get(DefaultDataset)
	genBefore := entry.mds.Generation()

	for name, tc := range map[string]struct {
		body string
		code int
		msg  string // expected in the error text, when set
	}{
		"malformed JSON":      {`{"op":"insert","id":1`, http.StatusBadRequest, ""},
		"missing id":          {`{"op":"insert","wkt":"POINT (1 1)"}`, http.StatusBadRequest, ""},
		"bad wkt":             {`{"op":"insert","id":99,"wkt":"POINT (a b)"}`, http.StatusBadRequest, ""},
		"unknown op":          {`{"op":"replace","id":99,"wkt":"POINT (1 1)"}`, http.StatusBadRequest, ""},
		"insert of live id":   {`{"op":"insert","id":0,"wkt":"POINT (1 1)"}`, http.StatusBadRequest, ""},
		"duplicate in batch":  {"{\"id\":70,\"wkt\":\"POINT (1 1)\"}\n{\"id\":70,\"wkt\":\"POINT (2 2)\"}", http.StatusBadRequest, ""},
		"delete with payload": {`{"op":"delete","id":0,"wkt":"POINT (1 1)"}`, http.StatusBadRequest, ""},
		"two ops on one line": {"{\"op\":\"delete\",\"id\":3}\n" + `{"op":"delete","id":1}{"op":"delete","id":2}`, http.StatusBadRequest, "line 2: trailing data (batch rejected, nothing applied)"},
		"junk after the op":   {`{"op":"delete","id":1} x`, http.StatusBadRequest, "line 1: trailing data (batch rejected, nothing applied)"},
		"empty batch":         {"\n\n", http.StatusBadRequest, ""},
		"oversized line":      {`{"op":"insert","id":99,"category":"` + strings.Repeat("x", maxIngestLineBytes) + `"}`, http.StatusRequestEntityTooLarge, ""},
	} {
		rec := ingestNDJSON(t, s, "", tc.body)
		if rec.Code != tc.code {
			t.Errorf("%s: status = %d, want %d (%s)", name, rec.Code, tc.code, rec.Body.String())
		}
		if !strings.Contains(rec.Body.String(), tc.msg) {
			t.Errorf("%s: error %s does not say %q", name, rec.Body.String(), tc.msg)
		}
	}
	if g := entry.mds.Generation(); g != genBefore {
		t.Errorf("rejected batches advanced the generation: %d -> %d", genBefore, g)
	}

	rec := ingestNDJSON(t, s, "nope", `{"id":1,"wkt":"POINT (1 1)"}`)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown dataset: status = %d, want 404", rec.Code)
	}

	// An immutable dataset rejects ingestion with 409.
	events := workload.Events(workload.Config{N: 20, Seed: 3, Width: 100, Height: 100})
	if err := s.catalog.RegisterEvents(s.ctx, DatasetSpec{Name: "frozen"}, events); err != nil {
		t.Fatal(err)
	}
	rec = ingestNDJSON(t, s, "frozen", `{"id":1,"wkt":"POINT (1 1)"}`)
	if rec.Code != http.StatusConflict {
		t.Errorf("immutable dataset: status = %d, want 409 (%s)", rec.Code, rec.Body.String())
	}

	// "persistent" index recipes cannot back a mutable dataset.
	if _, err := s.catalog.Register(s.ctx, DatasetSpec{Name: "bad", Mutable: true, Index: "persistent:8"}); err == nil {
		t.Error("mutable registration with persistent index did not error")
	}
}

func TestRecordDeleteEndpoint(t *testing.T) {
	s, _ := mutableService(t, 10, Options{})
	del := func(dataset, id string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/api/v1/datasets/"+dataset+"/records/"+id, nil))
		return rec
	}
	rec := del("default", "3")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Deleted int   `json:"deleted"`
		Count   int64 `json:"count"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Deleted != 1 || resp.Count != 9 {
		t.Errorf("delete response = %+v", resp)
	}
	if rec = del("default", "3"); rec.Code != http.StatusNotFound {
		t.Errorf("double delete: status = %d, want 404", rec.Code)
	}
	if rec = del("default", "x"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad id: status = %d, want 400", rec.Code)
	}
}

// TestStatsReflectMutations is the stale-summary regression gate:
// a dataset's count and planner summary (GET /api/datasets/{name}) and
// the catalog listing must track ingestion instead of reporting
// registration-time values forever.
func TestStatsReflectMutations(t *testing.T) {
	s, _ := mutableService(t, 30, Options{})
	events, planner := datasetStats(t, s, DefaultDataset)
	if events != 30 || planner["count"] != 30.0 {
		t.Fatalf("events before ingest = %v, planner count %v, want 30", events, planner["count"])
	}

	var b strings.Builder
	for i := 100; i < 120; i++ {
		fmt.Fprintf(&b, `{"id":%d,"time":1,"wkt":"POINT (%d %d)"}`+"\n", i, i%100, i%100)
	}
	fmt.Fprintf(&b, `{"op":"delete","id":0}`+"\n")
	if rec := ingestNDJSON(t, s, "", b.String()); rec.Code != http.StatusOK {
		t.Fatalf("ingest failed: %s", rec.Body.String())
	}

	events, planner = datasetStats(t, s, DefaultDataset)
	if events != 49 { // 30 + 20 - 1
		t.Errorf("events after ingest = %v, want 49", events)
	}
	if cnt := planner["count"].(float64); cnt != 49 {
		t.Errorf("planner count after ingest = %v, want 49", cnt)
	}

	// The catalog listing carries the live generation too.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/datasets", nil))
	var body struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Datasets) != 1 || !body.Datasets[0].Mutable || body.Datasets[0].LiveGeneration != 2 || body.Datasets[0].Events != 49 {
		t.Errorf("catalog listing = %+v, want one mutable dataset, gen=2 events=49", body.Datasets)
	}
}

// TestIngestInvalidatesResultCache is the no-stale-hits acceptance
// gate: a cached result must be served only while the generation that
// produced it is current — hit before the batch, miss (with the fresh
// row count) right after, hit again on the new generation.
func TestIngestInvalidatesResultCache(t *testing.T) {
	s, _ := mutableService(t, 40, Options{})
	q := allQuery("")

	run := func(wantCache string, wantCount int64) {
		t.Helper()
		rec := postV1Query(t, s, q)
		if rec.Code != http.StatusOK {
			t.Fatalf("query status = %d: %s", rec.Code, rec.Body.String())
		}
		_, sum := ndjsonResponse(t, rec.Body.Bytes())
		if sum.Cache != wantCache || rec.Header().Get("X-Stark-Cache") != wantCache {
			t.Fatalf("cache = %q (header %q), want %q", sum.Cache, rec.Header().Get("X-Stark-Cache"), wantCache)
		}
		if sum.Count != wantCount {
			t.Fatalf("count = %d on a %s, want %d (stale result served)", sum.Count, wantCache, wantCount)
		}
	}

	run("miss", 40)
	run("hit", 40)

	if rec := ingestNDJSON(t, s, "", `{"id":500,"time":1,"wkt":"POINT (50 50)"}`); rec.Code != http.StatusOK {
		t.Fatalf("ingest failed: %s", rec.Body.String())
	}

	run("miss", 41) // the old fingerprint died with its generation
	run("hit", 41)

	stats := s.cache.Stats()
	if stats.Hits != 2 || stats.Misses != 2 {
		t.Errorf("cache stats = %+v, want 2 hits / 2 misses", stats)
	}
}

// TestIngestQueryHammer runs concurrent ingest batches, batch
// deletes, queries, EXPLAINs and stats reads against one mutable
// dataset. The writer keeps the live count a multiple of batchSize at
// every published generation (whole batches are inserted and deleted
// atomically), so any NDJSON response or dataset summary whose count
// is not a multiple of batchSize proves a torn read. Run under -race.
func TestIngestQueryHammer(t *testing.T) {
	const (
		batches   = 40
		batchSize = 10
	)
	s, _ := mutableService(t, 0, Options{})
	q := allQuery("")

	var (
		writerDone atomic.Bool
		wg         sync.WaitGroup
		mu         sync.Mutex
		firstErr   error
	)
	fail := func(format string, args ...interface{}) {
		mu.Lock()
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
		mu.Unlock()
	}

	// Writer: insert batch k, then delete batch k-2 — both as whole
	// atomic requests, so every generation's count is a multiple of
	// batchSize.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		for k := 0; k < batches; k++ {
			var b strings.Builder
			for i := 0; i < batchSize; i++ {
				id := k*batchSize + i
				fmt.Fprintf(&b, `{"op":"insert","id":%d,"time":%d,"wkt":"POINT (%d %d)"}`+"\n", id, id%1000, id%100, (id*3)%100)
			}
			if rec := ingestNDJSON(t, s, "", b.String()); rec.Code != http.StatusOK {
				fail("insert batch %d: status %d: %s", k, rec.Code, rec.Body.String())
				return
			}
			if k >= 2 {
				var d strings.Builder
				for i := 0; i < batchSize; i++ {
					fmt.Fprintf(&d, `{"op":"delete","id":%d}`+"\n", (k-2)*batchSize+i)
				}
				if rec := ingestNDJSON(t, s, "", d.String()); rec.Code != http.StatusOK {
					fail("delete batch %d: status %d: %s", k-2, rec.Code, rec.Body.String())
					return
				}
			}
		}
	}()

	// Readers: snapshot isolation means every observed count is a
	// multiple of batchSize, no matter how the batches interleave.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !writerDone.Load() {
				rec := postV1Query(t, s, q)
				if rec.Code != http.StatusOK {
					fail("query status %d: %s", rec.Code, rec.Body.String())
					return
				}
				_, sum := ndjsonResponse(t, rec.Body.Bytes())
				if sum.Count%batchSize != 0 {
					fail("query count %d is not a multiple of %d: torn snapshot", sum.Count, batchSize)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, _ := json.Marshal(q)
		for !writerDone.Load() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/explain", strings.NewReader(string(body))))
			if rec.Code != http.StatusOK {
				fail("explain status %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !writerDone.Load() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/datasets/"+DefaultDataset, nil))
			var body struct {
				Dataset DatasetInfo `json:"dataset"`
				Planner struct {
					Count int64 `json:"count"`
				} `json:"planner"`
			}
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &body) != nil {
				fail("stats status %d: %s", rec.Code, rec.Body.String())
				return
			}
			if body.Dataset.Events%batchSize != 0 || body.Planner.Count%batchSize != 0 {
				fail("stats events %d, planner count %d: not a multiple of %d", body.Dataset.Events, body.Planner.Count, batchSize)
				return
			}
		}
	}()
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// Differential gate: the survivors (the last two batches) must
	// match an immutable dataset rebuilt from scratch over the same
	// records.
	rec := postV1Query(t, s, q)
	features, sum := ndjsonResponse(t, rec.Body.Bytes())
	if sum.Count != 2*batchSize {
		t.Fatalf("final count = %d, want %d", sum.Count, 2*batchSize)
	}
	gotIDs := make(map[int]bool, len(features))
	for _, f := range features {
		gotIDs[int(f["properties"].(map[string]interface{})["id"].(float64))] = true
	}
	survivors := seedEventsRange((batches-2)*batchSize, batches*batchSize)
	if err := s.catalog.RegisterEvents(s.ctx, DatasetSpec{Name: "rebuilt", Partitioner: "grid:4"}, survivors); err != nil {
		t.Fatal(err)
	}
	rq := allQuery("rebuilt")
	rec = postV1Query(t, s, rq)
	rebuilt, rsum := ndjsonResponse(t, rec.Body.Bytes())
	if rsum.Count != sum.Count {
		t.Fatalf("mutated dataset matched %d, rebuilt-from-scratch %d", sum.Count, rsum.Count)
	}
	for _, f := range rebuilt {
		id := int(f["properties"].(map[string]interface{})["id"].(float64))
		if !gotIDs[id] {
			t.Fatalf("rebuilt dataset matched id %d the mutated one did not", id)
		}
	}
}

// seedEventsRange rebuilds the hammer writer's records for [lo, hi) —
// same geometry formula, so the differential rebuild sees identical
// data.
func seedEventsRange(lo, hi int) []workload.Event {
	evs := make([]workload.Event, 0, hi-lo)
	for id := lo; id < hi; id++ {
		evs = append(evs, workload.Event{
			ID:   id,
			Time: int64(id % 1000),
			WKT:  fmt.Sprintf("POINT (%d %d)", id%100, (id*3)%100),
		})
	}
	return evs
}

// FuzzDecodeMutation holds the ingest decoder to its contract: never
// panic on arbitrary input, and never emit a malformed op — a nil
// error means a well-formed kind, a non-delete op carries a non-empty
// geometry, and the line held exactly one JSON value.
func FuzzDecodeMutation(f *testing.F) {
	f.Add([]byte(`{"op":"insert","id":1,"category":"a","time":5,"wkt":"POINT (1 2)"}`))
	f.Add([]byte(`{"op":"upsert","id":-9223372036854775808,"wkt":"POINT (0 0)"}`))
	f.Add([]byte(`{"id":7,"wkt":"LINESTRING (0 0, 1 1)"}`))
	f.Add([]byte(`{"op":"delete","id":42}`))
	f.Add([]byte(`{"op":"replace","id":1}`))
	f.Add([]byte(`{"id":1,"wkt":"POLYGON (("}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"id":1e400}`))
	f.Add([]byte(`{"id":1,"wkt":"POINT (1 2)","extra":true}`))
	f.Add([]byte(`{"op":"delete","id":1}{"op":"delete","id":2}`))
	f.Add([]byte(`{"op":"delete","id":1} ]`))
	f.Fuzz(func(t *testing.T, line []byte) {
		op, err := decodeMutation(line)
		if err != nil {
			return
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("accepted %q, which is not JSON: %v", line, err)
		}
		if err := dec.Decode(&v); err != io.EOF {
			t.Fatalf("accepted %q, which holds more than one JSON value", line)
		}
		switch op.Kind {
		case live.OpDelete:
		case live.OpInsert, live.OpUpsert:
			if op.Rec.Key.IsEmpty() {
				t.Fatalf("decoded %s with empty geometry from %q", op.Kind, line)
			}
		default:
			t.Fatalf("decoded unknown op kind %d from %q", op.Kind, line)
		}
	})
}
