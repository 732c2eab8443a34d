package server

// Observability tests: per-query metric attribution stays exact under
// concurrency (the tentpole invariant), the /metrics exposition is
// well-formed Prometheus text, the admission-control rejection paths
// feed their counters, and the result cache's byte accounting stays
// consistent through evictions and rejections.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// traceQuery renders the i-th of a family of pairwise-distinct window
// queries, so no two of them can share a plan fingerprint.
func traceQuery(i int) ServiceQueryRequest {
	x := float64(2 + 3*i)
	y := float64(1 + 2*i)
	q := ServiceQueryRequest{
		QueryRequest: QueryRequest{
			Predicate: "intersects",
			WKT: fmt.Sprintf("POLYGON ((%.0f %.0f, %.0f %.0f, %.0f %.0f, %.0f %.0f, %.0f %.0f))",
				x, y, x+40, y, x+40, y+35, x, y+35, x, y),
			HasTime: true,
			Begin:   0,
			End:     1000,
		},
		Trace: true,
	}
	return q
}

// TestTraceAttributionExactUnderConcurrency is the attribution
// regression test: N distinct traced queries run solo on one server,
// then the same N run concurrently on a fresh identical server, and
// every concurrent trace must report exactly the counters its solo
// twin did. If any engine work leaked across job recorders — a shared
// dataset charging the wrong job, a racing partition double-counted —
// the per-query elements_scanned would drift. Run with -race.
func TestTraceAttributionExactUnderConcurrency(t *testing.T) {
	const n = 12

	type observed struct {
		rows     int64
		scanned  int64
		probes   int64
		launched int64
	}
	read := func(t *testing.T, rec *httptest.ResponseRecorder, i int) observed {
		t.Helper()
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		_, sum := ndjsonResponse(t, rec.Body.Bytes())
		if sum.Trace == nil {
			t.Fatalf("query %d: summary has no trace", i)
		}
		if sum.Cache == "hit" {
			t.Fatalf("query %d: traced request served from cache", i)
		}
		return observed{
			rows:     sum.Trace.Rows,
			scanned:  sum.Trace.Counter("elements_scanned"),
			launched: sum.Trace.Counter("tasks_launched"),
			probes:   sum.Trace.Counter("index_probes"),
		}
	}

	// Solo baseline: each query alone on its own quiet server.
	solo, _ := testService(t, 3000, Options{})
	var want [n]observed
	for i := 0; i < n; i++ {
		want[i] = read(t, postV1Query(t, solo, traceQuery(i)), i)
		if want[i].scanned == 0 && want[i].rows == 0 {
			t.Fatalf("query %d: solo run scanned nothing and matched nothing — window misses the data", i)
		}
	}

	// The same queries, all in flight at once on a fresh server.
	s, _ := testService(t, 3000, Options{})
	var wg sync.WaitGroup
	var got [n]observed
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs <- fmt.Errorf("query %d panicked: %v", i, r)
				}
			}()
			data, err := marshalQuery(traceQuery(i))
			if err != nil {
				errs <- err
				return
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(data)))
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("query %d: status %d: %s", i, rec.Code, rec.Body.String())
				return
			}
			_, sum := ndjsonParse(rec.Body.Bytes())
			if sum == nil || sum.Trace == nil {
				errs <- fmt.Errorf("query %d: missing trace in summary", i)
				return
			}
			got[i] = observed{
				rows:     sum.Trace.Rows,
				scanned:  sum.Trace.Counter("elements_scanned"),
				launched: sum.Trace.Counter("tasks_launched"),
				probes:   sum.Trace.Counter("index_probes"),
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			t.Errorf("query %d: concurrent trace %+v != solo trace %+v", i, got[i], want[i])
		}
	}
}

// marshalQuery and ndjsonParse are goroutine-safe versions of the
// test helpers (no *testing.T, so they can run off the test
// goroutine).
func marshalQuery(q ServiceQueryRequest) ([]byte, error) {
	return json.Marshal(q)
}

func ndjsonParse(body []byte) (n int, summary *ndjsonSummary) {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) == 0 {
		return 0, nil
	}
	var wrapped struct {
		Summary *ndjsonSummary `json:"summary"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &wrapped); err != nil {
		return 0, nil
	}
	return len(lines) - 1, wrapped.Summary
}

var (
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9eE.+-]+|NaN)$`)
	helpLine   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	typeLine   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
)

// TestMetricsExposition drives real traffic through the service and
// then validates GET /metrics line by line: every line is a HELP, a
// TYPE, or a sample; every sample belongs to a declared family; the
// expected families are present; and the route histogram actually
// observed the requests.
func TestMetricsExposition(t *testing.T) {
	s, _ := testService(t, 500, Options{})
	// One miss, one hit, one trace — so cache and engine counters move.
	postV1Query(t, s, windowQuery(""))
	postV1Query(t, s, windowQuery(""))
	postV1Query(t, s, traceQuery(0))

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("GET /metrics Content-Type = %q, want text exposition 0.0.4", ct)
	}

	declared := map[string]string{} // family -> type
	samples := map[string]float64{} // full sample key (name+labels) -> value
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	var lastFamily string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case helpLine.MatchString(line):
		case typeLine.MatchString(line):
			m := typeLine.FindStringSubmatch(line)
			if m[1] < lastFamily {
				t.Errorf("families out of order: %q after %q", m[1], lastFamily)
			}
			lastFamily = m[1]
			declared[m[1]] = m[2]
		case sampleLine.MatchString(line):
			m := sampleLine.FindStringSubmatch(line)
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(m[1], "_bucket"), "_sum"), "_count")
			if _, ok := declared[base]; !ok {
				if _, ok := declared[m[1]]; !ok {
					t.Errorf("sample %q has no preceding # TYPE", line)
				}
			}
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Errorf("unparseable sample value in %q: %v", line, err)
			}
			samples[m[1]+m[2]] = v
		default:
			t.Errorf("malformed exposition line: %q", line)
		}
	}

	for family, typ := range map[string]string{
		"stark_http_request_duration_seconds": "histogram",
		"stark_http_requests_in_flight":       "gauge",
		"stark_slow_queries_total":            "counter",
		"stark_cache_hits_total":              "counter",
		"stark_cache_misses_total":            "counter",
		"stark_admission_admitted_total":      "counter",
		"stark_engine_elements_scanned_total": "counter",
		"stark_engine_tasks_launched_total":   "counter",
		"stark_uptime_seconds":                "gauge",
		"stark_go_goroutines":                 "gauge",
	} {
		if got := declared[family]; got != typ {
			t.Errorf("family %s: type %q, want %q", family, got, typ)
		}
	}

	if v := samples[`stark_http_request_duration_seconds_count{route="/api/v1/query"}`]; v != 3 {
		t.Errorf("route histogram count = %v, want 3", v)
	}
	if v := samples["stark_cache_hits_total"]; v != 1 {
		t.Errorf("stark_cache_hits_total = %v, want 1", v)
	}
	if v := samples["stark_engine_elements_scanned_total"]; v <= 0 {
		t.Errorf("stark_engine_elements_scanned_total = %v, want > 0", v)
	}
	// In-flight is a point-in-time gauge: nothing runs during the scrape
	// except the scrape itself.
	if v := samples["stark_http_requests_in_flight"]; v != 1 {
		t.Errorf("stark_http_requests_in_flight = %v, want 1 (the scrape)", v)
	}
}

// TestMetricsEngineFamilies pins the engine block of /metrics: exactly
// the eleven stark_engine_<counter>_total families, each with its HELP
// and TYPE line, in name order, and /api/service's engine object keyed
// by the same names.
func TestMetricsEngineFamilies(t *testing.T) {
	s, _ := testService(t, 500, Options{})
	postV1Query(t, s, windowQuery(""))
	names := []string{
		"candidates_refined", "elements_scanned", "index_probes",
		"kernel_batches", "kernel_survivors", "live_batches",
		"live_mutations", "shuffled_records", "stats_records",
		"tasks_launched", "tasks_skipped",
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var got []string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.Contains(line, "stark_engine_") {
			got = append(got, line)
		}
	}
	sample := regexp.MustCompile(`^stark_engine_[a-z_]+_total [0-9]+$`)
	if len(got) != 3*len(names) {
		t.Fatalf("/metrics has %d stark_engine_ lines, want %d:\n%s", len(got), 3*len(names), strings.Join(got, "\n"))
	}
	for i, name := range names {
		family := "stark_engine_" + name + "_total"
		want := []string{
			"# HELP " + family + " Engine counter " + name + " (context totals across all jobs).",
			"# TYPE " + family + " counter",
		}
		if got[3*i] != want[0] || got[3*i+1] != want[1] {
			t.Errorf("family %s: header\n%s\n%s\nwant\n%s\n%s", family, got[3*i], got[3*i+1], want[0], want[1])
		}
		if !strings.HasPrefix(got[3*i+2], family+" ") || !sample.MatchString(got[3*i+2]) {
			t.Errorf("family %s: sample %q", family, got[3*i+2])
		}
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/service", nil))
	var stats struct {
		Engine map[string]int64 `json:"engine"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Engine) != len(names) {
		t.Errorf("/api/service engine = %v, want the %d counters", stats.Engine, len(names))
	}
	for _, name := range names {
		if _, ok := stats.Engine[name]; !ok {
			t.Errorf("/api/service engine has no %q", name)
		}
	}
	if stats.Engine["elements_scanned"] <= 0 {
		t.Errorf("/api/service engine elements_scanned = %d, want > 0", stats.Engine["elements_scanned"])
	}
}

// scrapeCounter fetches one un-labelled sample value off /metrics.
func scrapeCounter(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parsing %s sample %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in /metrics", name)
	return 0
}

// TestAdmissionRejectionCounters exercises both rejection paths —
// queue full (429) and queue timeout (503) — and checks each feeds
// its counter in AdmissionStats and the /metrics exposition.
func TestAdmissionRejectionCounters(t *testing.T) {
	s, _ := testService(t, 200, Options{
		MaxConcurrent: 1, QueueDepth: 1, QueueTimeout: 150 * time.Millisecond,
	})

	// Occupy the only engine slot so every query has to queue.
	if err := s.adm.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// First query takes the single waiting slot and eventually times
	// out against the held semaphore: 503.
	type result struct {
		code int
		body string
	}
	waiter := make(chan result, 1)
	go func() {
		data, _ := marshalQuery(windowQuery(""))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(data)))
		waiter <- result{rec.Code, rec.Body.String()}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.Stats().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first query never started waiting for a slot")
		}
		time.Sleep(time.Millisecond)
	}

	// Second query finds the queue full: immediate 429.
	rec := postV1Query(t, s, windowQuery(""))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-full query status = %d, want 429: %s", rec.Code, rec.Body.String())
	}

	r := <-waiter
	if r.code != http.StatusServiceUnavailable {
		t.Fatalf("queued query status = %d, want 503: %s", r.code, r.body)
	}
	s.adm.Release()

	st := s.adm.Stats()
	if st.RejectedFull != 1 {
		t.Errorf("AdmissionStats.RejectedFull = %d, want 1", st.RejectedFull)
	}
	if st.TimedOut != 1 {
		t.Errorf("AdmissionStats.TimedOut = %d, want 1", st.TimedOut)
	}
	if v := scrapeCounter(t, s, "stark_admission_rejected_full_total"); v != 1 {
		t.Errorf("stark_admission_rejected_full_total = %v, want 1", v)
	}
	if v := scrapeCounter(t, s, "stark_admission_timed_out_total"); v != 1 {
		t.Errorf("stark_admission_timed_out_total = %v, want 1", v)
	}

	// The slot freed up: the service recovers.
	if rec := postV1Query(t, s, windowQuery("")); rec.Code != http.StatusOK {
		t.Fatalf("post-recovery query status = %d", rec.Code)
	}
}

// TestCacheEvictionByteAccounting fills a tiny cache past its budget
// and checks the byte accounting: bytes never exceed the budget,
// evictions are counted, surviving entries sum to the reported bytes,
// and an over-per-entry-budget Put is rejected without touching the
// accounting.
func TestCacheEvictionByteAccounting(t *testing.T) {
	c := NewResultCache(1000, 400)

	body := func(n int) [][]byte { // two chunks: bytes are the summed lengths
		return [][]byte{bytes.Repeat([]byte("x"), n/3), bytes.Repeat([]byte("y"), n-n/3)}
	}
	for i := 0; i < 6; i++ {
		c.Put(fmt.Sprintf("k%d", i), body(300), 1)
	}
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Errorf("cache over budget: %d > %d bytes", st.Bytes, st.MaxBytes)
	}
	if st.Entries != 3 || st.Bytes != 900 {
		t.Errorf("cache holds %d entries / %d bytes, want 3 / 900", st.Entries, st.Bytes)
	}
	if st.Evictions != 3 {
		t.Errorf("Evictions = %d, want 3", st.Evictions)
	}
	// The survivors are the most recently used: k3, k4, k5.
	for i := 0; i < 3; i++ {
		if c.Contains(fmt.Sprintf("k%d", i)) {
			t.Errorf("k%d survived eviction, want LRU order", i)
		}
	}
	for i := 3; i < 6; i++ {
		if !c.Contains(fmt.Sprintf("k%d", i)) {
			t.Errorf("k%d evicted, want it resident", i)
		}
	}

	// Over the per-entry budget: rejected, accounting untouched.
	before := c.Stats()
	c.Put("huge", body(401), 1)
	after := c.Stats()
	if after.Rejected != before.Rejected+1 {
		t.Errorf("Rejected = %d, want %d", after.Rejected, before.Rejected+1)
	}
	if after.Bytes != before.Bytes || after.Entries != before.Entries {
		t.Errorf("rejected Put changed accounting: %+v -> %+v", before, after)
	}
	if c.Contains("huge") {
		t.Error("over-budget entry was admitted")
	}

	// Replacing a key in place adjusts bytes by the size delta.
	c.Put("k5", body(100), 1)
	if st := c.Stats(); st.Bytes != 700 {
		t.Errorf("after in-place replace: %d bytes, want 700", st.Bytes)
	}
}
