package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stark"
	"stark/internal/engine"
	"stark/internal/workload"
)

// testService builds a service with a "default" dataset of n events
// and returns it with its engine context.
func testService(t *testing.T, n int, opts Options) (*Server, *stark.Context) {
	t.Helper()
	ctx := engine.NewContext(4)
	s := NewService(ctx, opts)
	events := workload.Events(workload.Config{N: n, Seed: 11, Width: 100, Height: 100, TimeRange: 1000})
	if _, err := s.catalog.Register(ctx, withEvents(DatasetSpec{Name: DefaultDataset}, events)); err != nil {
		t.Fatal(err)
	}
	return s, ctx
}

// ndjsonResponse splits an NDJSON body into feature lines and the
// summary, failing the test on malformed lines.
func ndjsonResponse(t *testing.T, body []byte) (features []map[string]interface{}, summary ndjsonSummary) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) == 0 {
		t.Fatal("empty NDJSON body")
	}
	var wrapped struct {
		Summary *ndjsonSummary `json:"summary"`
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal(last, &wrapped); err != nil || wrapped.Summary == nil {
		t.Fatalf("last NDJSON line is not a summary: %q (%v)", last, err)
	}
	summary = *wrapped.Summary
	for _, line := range lines[:len(lines)-1] {
		var f map[string]interface{}
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		features = append(features, f)
	}
	return features, summary
}

func postV1Query(t *testing.T, s *Server, req serviceQueryRequest) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(data)))
	return rec
}

func windowQuery(dataset string) serviceQueryRequest {
	// The generated events all carry timestamps, and mixed timed vs
	// untimed pairs never satisfy a predicate — so the query needs a
	// covering time window to match spatially.
	return serviceQueryRequest{
		Dataset: dataset,
		queryRequest: queryRequest{
			Predicate: "intersects",
			WKT:       "POLYGON ((10 10, 60 10, 60 60, 10 60, 10 10))",
			HasTime:   true,
			Begin:     0,
			End:       1000,
		},
	}
}

func TestQueryV1StreamsNDJSON(t *testing.T) {
	s, _ := testService(t, 500, Options{})
	rec := postV1Query(t, s, windowQuery(""))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	features, sum := ndjsonResponse(t, rec.Body.Bytes())
	if sum.Cache != "miss" || rec.Header().Get("X-Stark-Cache") != "miss" {
		t.Errorf("first query should miss, got summary=%q header=%q", sum.Cache, rec.Header().Get("X-Stark-Cache"))
	}
	if int64(len(features)) != sum.Count || sum.Count == 0 {
		t.Errorf("count mismatch: %d features, summary says %d", len(features), sum.Count)
	}
	if sum.Dataset != DefaultDataset || sum.Fingerprint == "" {
		t.Errorf("summary incomplete: %+v", sum)
	}
}

func TestQueryV1CacheHitSkipsEngineEntirely(t *testing.T) {
	s, ctx := testService(t, 500, Options{})
	q := windowQuery("")

	first := postV1Query(t, s, q)
	if first.Code != http.StatusOK {
		t.Fatalf("miss status = %d", first.Code)
	}
	firstFeatures, firstSum := ndjsonResponse(t, first.Body.Bytes())

	before := ctx.Recorder().Snapshot()
	second := postV1Query(t, s, q)
	after := ctx.Recorder().Snapshot()
	if second.Code != http.StatusOK {
		t.Fatalf("hit status = %d", second.Code)
	}
	secondFeatures, secondSum := ndjsonResponse(t, second.Body.Bytes())

	if secondSum.Cache != "hit" || second.Header().Get("X-Stark-Cache") != "hit" {
		t.Fatalf("repeated query not served from cache: %+v", secondSum)
	}
	// The acceptance bar: a cache hit schedules no engine work at all.
	if d := after[engine.ElementsScanned] - before[engine.ElementsScanned]; d != 0 {
		t.Errorf("cache hit scanned %d elements, want 0", d)
	}
	if d := after[engine.TasksLaunched] - before[engine.TasksLaunched]; d != 0 {
		t.Errorf("cache hit launched %d tasks, want 0", d)
	}
	// Cached results are byte-for-byte the uncached results.
	if len(firstFeatures) != len(secondFeatures) {
		t.Fatalf("cached result has %d features, uncached %d", len(secondFeatures), len(firstFeatures))
	}
	for i := range firstFeatures {
		a, _ := json.Marshal(firstFeatures[i])
		b, _ := json.Marshal(secondFeatures[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("feature %d differs between cached and uncached result:\n%s\n%s", i, a, b)
		}
	}
	if firstSum.Fingerprint != secondSum.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", firstSum.Fingerprint, secondSum.Fingerprint)
	}
	if st := s.cache.Stats(); st.Hits != 1 {
		t.Errorf("cache stats hits = %d, want 1", st.Hits)
	}
}

func TestQueryV1ReRegisterInvalidatesCache(t *testing.T) {
	s, ctx := testService(t, 500, Options{})
	q := windowQuery("")
	postV1Query(t, s, q) // warm
	_, hitSum := ndjsonResponse(t, postV1Query(t, s, q).Body.Bytes())
	if hitSum.Cache != "hit" {
		t.Fatalf("warm query did not hit: %+v", hitSum)
	}

	// Re-register the same logical dataset: a new generation.
	events := workload.Events(workload.Config{N: 500, Seed: 11, Width: 100, Height: 100, TimeRange: 1000})
	if _, err := s.catalog.Register(ctx, withEvents(DatasetSpec{Name: DefaultDataset}, events)); err != nil {
		t.Fatal(err)
	}
	before := ctx.Recorder().Snapshot()
	_, sum := ndjsonResponse(t, postV1Query(t, s, q).Body.Bytes())
	after := ctx.Recorder().Snapshot()
	if sum.Cache != "miss" {
		t.Errorf("query after re-register served stale cache entry: %+v", sum)
	}
	if sum.Fingerprint == hitSum.Fingerprint {
		t.Error("fingerprint unchanged across re-registration")
	}
	if after[engine.ElementsScanned] == before[engine.ElementsScanned] {
		t.Error("query after re-register did not rescan")
	}
}

func TestQueryV1NamedDatasets(t *testing.T) {
	s, ctx := testService(t, 200, Options{})
	events := workload.Events(workload.Config{N: 100, Seed: 7, Width: 100, Height: 100, TimeRange: 1000})
	if _, err := s.catalog.Register(ctx, withEvents(DatasetSpec{Name: "other", Partitioner: "grid:4", Index: "live:8"}, events)); err != nil {
		t.Fatal(err)
	}
	_, sumDefault := ndjsonResponse(t, postV1Query(t, s, windowQuery("")).Body.Bytes())
	rec := postV1Query(t, s, windowQuery("other"))
	if rec.Code != http.StatusOK {
		t.Fatalf("named dataset query status = %d: %s", rec.Code, rec.Body.String())
	}
	_, sumOther := ndjsonResponse(t, rec.Body.Bytes())
	if sumOther.Dataset != "other" {
		t.Errorf("summary dataset = %q", sumOther.Dataset)
	}
	if sumOther.Fingerprint == sumDefault.Fingerprint {
		t.Error("different datasets share a fingerprint")
	}
	if rec := postV1Query(t, s, windowQuery("nope")); rec.Code != http.StatusNotFound {
		t.Errorf("unknown dataset status = %d", rec.Code)
	}
}

// TestQueryV1DifferentialCachedVsUncached is the cache half of the
// differential oracle: for randomized queries, the cached response
// must equal the uncached response element for element.
func TestQueryV1DifferentialCachedVsUncached(t *testing.T) {
	s, _ := testService(t, 600, Options{})
	rng := rand.New(rand.NewSource(3))
	matched := 0
	for trial := 0; trial < 15; trial++ {
		w := 10 + rng.Float64()*50
		h := 10 + rng.Float64()*50
		x := rng.Float64() * (100 - w)
		y := rng.Float64() * (100 - h)
		begin := rng.Int63n(800)
		req := serviceQueryRequest{queryRequest: queryRequest{
			Predicate: []string{"intersects", "containedby", "coveredby"}[rng.Intn(3)],
			WKT: fmt.Sprintf("POLYGON ((%f %f, %f %f, %f %f, %f %f, %f %f))",
				x, y, x+w, y, x+w, y+h, x, y+h, x, y),
			HasTime: true, Begin: begin, End: begin + rng.Int63n(1000-begin),
		}}
		uncached := postV1Query(t, s, req)
		if uncached.Code != http.StatusOK {
			t.Fatalf("trial %d: uncached status %d: %s", trial, uncached.Code, uncached.Body.String())
		}
		cached := postV1Query(t, s, req)
		if cached.Code != http.StatusOK {
			t.Fatalf("trial %d: cached status %d", trial, cached.Code)
		}
		uf, usum := ndjsonResponse(t, uncached.Body.Bytes())
		cf, csum := ndjsonResponse(t, cached.Body.Bytes())
		if usum.Cache != "miss" || csum.Cache != "hit" {
			t.Fatalf("trial %d: cache states %q/%q, want miss/hit", trial, usum.Cache, csum.Cache)
		}
		if len(uf) != len(cf) {
			t.Fatalf("trial %d: uncached %d features, cached %d", trial, len(uf), len(cf))
		}
		for i := range uf {
			a, _ := json.Marshal(uf[i])
			b, _ := json.Marshal(cf[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("trial %d: feature %d differs:\n%s\n%s", trial, i, a, b)
			}
		}
		matched += len(uf)
	}
	if matched == 0 {
		t.Error("differential sweep never matched a row — queries are degenerate")
	}
}

func TestCatalogEndpoints(t *testing.T) {
	s, _ := testService(t, 100, Options{})

	// Register via HTTP with a generator spec.
	spec := `{"name":"gen","n":300,"seed":5,"dist":"uniform","width":50,"height":50,"index":"live:8","partitioner":"grid:4"}`
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/datasets", strings.NewReader(spec)))
	if rec.Code != http.StatusOK {
		t.Fatalf("register status = %d: %s", rec.Code, rec.Body.String())
	}
	var info DatasetInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "gen" || info.Events != 300 || info.Index != "live:8" {
		t.Errorf("register info = %+v", info)
	}

	// List shows both, sorted.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/datasets", nil))
	var list struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Datasets) != 2 || list.Datasets[0].Name != "default" || list.Datasets[1].Name != "gen" {
		t.Errorf("list = %+v", list.Datasets)
	}

	// Get one.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/datasets/gen", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"planner"`) {
		t.Errorf("get status = %d body = %s", rec.Code, rec.Body.String())
	}

	// Drop it; a second drop 404s.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/api/datasets/gen", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("drop status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/api/datasets/gen", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("second drop status = %d", rec.Code)
	}

	// Bad registrations are 400s.
	for _, bad := range []string{
		`{"name":"","n":10}`,
		`{"name":"x"}`,
		`{"name":"x","n":10,"dist":"wat"}`,
		`{"name":"x","n":10,"index":"wat"}`,
		`{"name":"x","n":10,"partitioner":"wat:3"}`,
		`{not json`,
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/datasets", strings.NewReader(bad)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("register %s status = %d, want 400", bad, rec.Code)
		}
	}
}

func TestAdmissionRejectsWhenSaturated(t *testing.T) {
	s, _ := testService(t, 200, Options{MaxConcurrent: 1, QueueDepth: 1, QueueTimeout: 50 * time.Millisecond})

	// Occupy the only slot directly.
	if err := s.adm.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.adm.Release()

	// One waiter fills the queue and times out with 503...
	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- postV1Query(t, s, windowQuery("")) }()
	// ...and once it occupies the queue, further requests bounce 429.
	deadline := time.After(2 * time.Second)
	for s.adm.Stats().Waiting == 0 {
		select {
		case <-deadline:
			t.Fatal("waiter never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if rec := postV1Query(t, s, windowQuery("")); rec.Code != http.StatusTooManyRequests {
		t.Errorf("overflow request status = %d, want 429", rec.Code)
	}
	if rec := <-done; rec.Code != http.StatusServiceUnavailable {
		t.Errorf("queued request status = %d, want 503", rec.Code)
	}
	st := s.adm.Stats()
	if st.RejectedFull == 0 || st.TimedOut == 0 {
		t.Errorf("admission stats did not count rejections: %+v", st)
	}
}

func TestAdmissionBypassedOnCacheHit(t *testing.T) {
	s, _ := testService(t, 200, Options{MaxConcurrent: 1, QueueDepth: 1, QueueTimeout: 50 * time.Millisecond})
	q := windowQuery("")
	if rec := postV1Query(t, s, q); rec.Code != http.StatusOK {
		t.Fatalf("warm query status = %d", rec.Code)
	}
	// Saturate the pool; the hot query must still be answered.
	if err := s.adm.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.adm.Release()
	rec := postV1Query(t, s, q)
	if rec.Code != http.StatusOK {
		t.Fatalf("cache hit blocked by admission: status = %d", rec.Code)
	}
	if _, sum := ndjsonResponse(t, rec.Body.Bytes()); sum.Cache != "hit" {
		t.Errorf("expected hit, got %+v", sum)
	}
}

func TestExplainV1ReportsFingerprintAndCacheState(t *testing.T) {
	s, _ := testService(t, 300, Options{})
	body, _ := json.Marshal(windowQuery(""))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/explain", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("explain status = %d: %s", rec.Code, rec.Body.String())
	}
	var out map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	fp, _ := out["fingerprint"].(string)
	if len(fp) != 16 {
		t.Errorf("fingerprint = %v", out["fingerprint"])
	}
	if cached, _ := out["cached"].(bool); cached {
		t.Error("explain reports cached before any query ran")
	}
	// Run the query, then EXPLAIN again: now cached.
	postV1Query(t, s, windowQuery(""))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/explain", bytes.NewReader(body)))
	out = map[string]interface{}{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if cached, _ := out["cached"].(bool); !cached {
		t.Error("explain does not see the cached entry")
	}
}

func TestServiceStatsEndpoint(t *testing.T) {
	s, _ := testService(t, 100, Options{})
	postV1Query(t, s, windowQuery(""))
	postV1Query(t, s, windowQuery(""))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/service", nil))
	var out struct {
		Cache     cacheStats     `json:"cache"`
		Admission admissionStats `json:"admission"`
		Datasets  int            `json:"datasets"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Cache.Hits != 1 || out.Cache.Misses == 0 || out.Cache.Entries != 1 {
		t.Errorf("cache stats = %+v", out.Cache)
	}
	if out.Admission.Admitted == 0 || out.Datasets != 1 {
		t.Errorf("service stats = %+v datasets=%d", out.Admission, out.Datasets)
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(100, 60)
	// An entry costs the summed lengths of its chunks.
	chunks := func(sizes ...int) [][]byte {
		body := make([][]byte, len(sizes))
		for i, n := range sizes {
			body[i] = make([]byte, n)
		}
		return body
	}
	c.Put("a", chunks(25, 15), 1)
	c.Put("b", chunks(40), 1)
	if body, _, ok := c.Get("a"); !ok || len(body) != 2 || len(body[0]) != 25 || len(body[1]) != 15 {
		t.Fatalf("a evicted prematurely or rechunked (%d chunks)", len(body))
	}
	// c displaces b (LRU: a was just touched).
	c.Put("c", chunks(10, 10, 20), 1)
	if _, _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, _, ok := c.Get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	// Oversized bodies are rejected outright, however they are chunked.
	c.Put("big", chunks(30, 31), 1)
	if _, _, ok := c.Get("big"); ok {
		t.Error("oversized entry admitted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Rejected != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Bytes > 100 {
		t.Errorf("cache over budget: %d", st.Bytes)
	}
}

func TestParseDatasetFlag(t *testing.T) {
	spec, err := ParseDatasetFlag("hotels:n=5000,seed=7,dist=uniform,width=200,height=100,timerange=500,index=live:8,part=grid:8")
	if err != nil {
		t.Fatal(err)
	}
	want := DatasetSpec{
		Name: "hotels", N: 5000, Seed: 7, Dist: "uniform",
		Width: 200, Height: 100, TimeRange: 500,
		Index: "live:8", Partitioner: "grid:8",
	}
	if spec.Name != want.Name || spec.N != want.N || spec.Seed != want.Seed ||
		spec.Dist != want.Dist || spec.Width != want.Width || spec.Height != want.Height ||
		spec.TimeRange != want.TimeRange || spec.Index != want.Index || spec.Partitioner != want.Partitioner {
		t.Errorf("spec = %+v, want %+v", spec, want)
	}
	for _, bad := range []string{"", "noname", ":n=5", "x:n=abc", "x:wat=1", "x:seed=1", "x:n=5,"} {
		if _, err := ParseDatasetFlag(bad); err == nil && bad != "x:n=5," {
			t.Errorf("flag %q parsed without error", bad)
		}
	}
	if _, err := ParseDatasetFlag("x:n=5,"); err != nil {
		t.Errorf("trailing comma rejected: %v", err)
	}
}

func TestJoinThroughQueryV1(t *testing.T) {
	s, _ := testService(t, 300, Options{})
	// Register two fresh sides with a degenerate time range (all
	// instants equal) so the combined spatio-temporal predicate is
	// decided spatially; the right side is small enough that the
	// cost model broadcasts it.
	left := workload.Events(workload.Config{N: 300, Seed: 13, Width: 100, Height: 100, TimeRange: 1})
	if _, err := s.catalog.Register(s.ctx, withEvents(DatasetSpec{Name: "left"}, left)); err != nil {
		t.Fatal(err)
	}
	small := workload.Events(workload.Config{N: 40, Seed: 12, Width: 100, Height: 100, TimeRange: 1})
	if _, err := s.catalog.Register(s.ctx, withEvents(DatasetSpec{Name: "small"}, small)); err != nil {
		t.Fatal(err)
	}
	req := serviceQueryRequest{
		Dataset: "left",
		Join:    &joinSpec{With: "small", Predicate: "withindistance", Distance: 5},
	}
	rec := postV1Query(t, s, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("join query status = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Stark-Cache"); got != "bypass" {
		t.Errorf("X-Stark-Cache = %q, want bypass", got)
	}
	features, sum := ndjsonResponse(t, rec.Body.Bytes())
	if sum.Cache != "bypass" || sum.Strategy == "" || sum.Strategy == "auto" {
		t.Errorf("summary = %+v", sum)
	}
	if int64(len(features)) != sum.Count {
		t.Errorf("streamed %d rows, summary says %d", len(features), sum.Count)
	}
	if len(features) == 0 {
		t.Fatal("degenerate test: join returned no rows")
	}
	// Every row must carry the folded right record.
	props, _ := features[0]["properties"].(map[string]interface{})
	if props == nil || props["right"] == nil {
		t.Errorf("join feature missing right record: %v", features[0])
	}

	// A where clause alone filters the left side too.
	cat := workload.Categories[0]
	wreq := req
	wreq.Where = whereClauses{{Field: "category", Op: "eq", Value: cat}}
	wfeatures, wsum := ndjsonResponse(t, postV1Query(t, s, wreq).Body.Bytes())
	want := 0
	for _, f := range features {
		if f["properties"].(map[string]interface{})["category"] == cat {
			want++
		}
	}
	if want == 0 || want == len(features) || int(wsum.Count) != want || len(wfeatures) != want {
		t.Errorf("join with where %s=%s: %d rows (summary %d), want the %d of %d pairs whose left row matches",
			"category", cat, len(wfeatures), wsum.Count, want, len(features))
	}

	// The same join through EXPLAIN renders the strategy decision.
	body, _ := json.Marshal(req)
	erec := httptest.NewRecorder()
	s.ServeHTTP(erec, httptest.NewRequest(http.MethodPost, "/api/v1/explain", bytes.NewReader(body)))
	if erec.Code != http.StatusOK {
		t.Fatalf("join explain status = %d: %s", erec.Code, erec.Body.String())
	}
	var out map[string]interface{}
	if err := json.Unmarshal(erec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	text, _ := out["text"].(string)
	if !strings.Contains(text, "Join[") {
		t.Errorf("explain text missing Join node:\n%s", text)
	}
	if out["strategy"] == "" || out["cache"] != "bypass" {
		t.Errorf("explain response = %v", out)
	}
}

func TestJoinQueryV1BadRequests(t *testing.T) {
	s, _ := testService(t, 50, Options{})
	for _, req := range []serviceQueryRequest{
		{Join: &joinSpec{With: "missing"}},
		{Join: &joinSpec{Predicate: "bogus"}},
		{Join: &joinSpec{Strategy: "bogus"}},
		{Join: &joinSpec{Predicate: "withindistance"}}, // no distance
		// A temporal window without a geometry must be rejected (as
		// the non-join path rejects it), not silently dropped.
		{queryRequest: queryRequest{HasTime: true, End: 5}, Join: &joinSpec{}},
	} {
		rec := postV1Query(t, s, req)
		if rec.Code != http.StatusBadRequest && rec.Code != http.StatusNotFound {
			t.Errorf("join %+v: status = %d", req.Join, rec.Code)
		}
	}
}
