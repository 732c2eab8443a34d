package server

// The /api/v1/query reply, byte for byte: one golden request pinned as
// a literal, and miss == hit == the map-form oracle on filter, where,
// live-snapshot and join requests. Plus what an aborted stream leaves
// in the log.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"stark"
	"stark/internal/engine"
	"stark/internal/workload"
)

// goldenEvents mix the four geometry kinds with categories that need
// every kind of escaping, ordinates on both sides of the exponent
// thresholds, and negative ids and times.
var goldenEvents = []workload.Event{
	{ID: 1, Category: "sports", Time: 10, WKT: "POINT (1.5 2.25)"},
	{ID: -2, Category: "<b>\"R&D\"</b> \\ tab\tend", Time: -20, WKT: "POINT (3 4)"},
	{ID: 3, Category: "", Time: 30, WKT: "POINT (0.0000001 1e21)"},
	{ID: 4, Category: "line\u2028sep \u00e9\u2713 bad\xff", Time: 40, WKT: "POINT (-0 123456789.125)"},
	{ID: 5, Category: "area", Time: 50, WKT: "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))"},
	{ID: 6, Category: "track", Time: 60, WKT: "LINESTRING (1 1, 2.5 3, 1e-7 9)"},
	{ID: 7, Category: "stops", Time: 70, WKT: "MULTIPOINT ((1 2), (3 4))"},
	{ID: 8, Category: "far away", Time: 80, WKT: "POINT (-5000 5000)"},
}

// goldenBody is what the service answered to goldenRequest before the
// append encoder and the encoded stream existed (json.Marshal of the
// map form, one row at a time): the reply contract in one literal.
const goldenBody = `{"geometry":{"coordinates":[1.5,2.25],"type":"Point"},"properties":{"category":"sports","id":1,"time":10},"type":"Feature"}
{"geometry":{"coordinates":[3,4],"type":"Point"},"properties":{"category":"\u003cb\u003e\"R\u0026D\"\u003c/b\u003e \\ tab\tend","id":-2,"time":-20},"type":"Feature"}
{"geometry":{"coordinates":[1e-7,1e+21],"type":"Point"},"properties":{"category":"","id":3,"time":30},"type":"Feature"}
{"geometry":{"coordinates":[-0,123456789.125],"type":"Point"},"properties":{"category":"line\u2028sep é✓ bad\ufffd","id":4,"time":40},"type":"Feature"}
{"geometry":{"coordinates":[[[0,0],[4,0],[4,4],[0,4],[0,0]],[[1,1],[2,1],[2,2],[1,2],[1,1]]],"type":"Polygon"},"properties":{"category":"area","id":5,"time":50},"type":"Feature"}
{"geometry":{"coordinates":[[1,1],[2.5,3],[1e-7,9]],"type":"LineString"},"properties":{"category":"track","id":6,"time":60},"type":"Feature"}
{"geometry":{"coordinates":[[1,2],[3,4]],"type":"MultiPoint"},"properties":{"category":"stops","id":7,"time":70},"type":"Feature"}
`

func goldenRequest() serviceQueryRequest {
	return serviceQueryRequest{
		Dataset: "golden",
		queryRequest: queryRequest{
			Predicate: "intersects",
			WKT:       "POLYGON ((-10 -10, 2e9 -10, 2e9 2e21, -10 2e21, -10 -10))",
			HasTime:   true, Begin: -100, End: 100,
		},
	}
}

// splitSummary cuts the summary line off an NDJSON reply.
func splitSummary(t *testing.T, reply []byte) (body []byte, sum ndjsonSummary) {
	t.Helper()
	i := bytes.LastIndex(bytes.TrimRight(reply, "\n"), []byte("\n")) + 1
	var wrapped struct {
		Summary *ndjsonSummary `json:"summary"`
	}
	if err := json.Unmarshal(reply[i:], &wrapped); err != nil || wrapped.Summary == nil {
		t.Fatalf("reply does not end in a summary line: %q (%v)", reply[i:], err)
	}
	return reply[:i], *wrapped.Summary
}

func TestQueryV1GoldenBody(t *testing.T) {
	ctx := engine.NewContext(2)
	s := NewService(ctx, Options{})
	if _, err := s.catalog.Register(ctx, withEvents(DatasetSpec{Name: "golden"}, goldenEvents)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"miss", "hit"} {
		rec := postV1Query(t, s, goldenRequest())
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		body, sum := splitSummary(t, rec.Body.Bytes())
		if sum.Cache != want || sum.Count != 7 {
			t.Errorf("summary %+v, want cache %s and 7 rows", sum, want)
		}
		if string(body) != goldenBody {
			t.Errorf("%s body differs from the golden reply:\n got %s\nwant %s", want, body, goldenBody)
		}
	}
}

// oracleBody collects the chain, in partition order, and marshals the
// map form of every row: the reply path as it was.
func oracleBody[V any](t *testing.T, chain *stark.Dataset[V], line func(stark.Tuple[V]) map[string]interface{}) []byte {
	t.Helper()
	rows, err := chain.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, kv := range rows {
		b, err := json.Marshal(line(kv))
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, b...), '\n')
	}
	return out
}

func TestQueryV1MissHitAndOracleBodiesAgree(t *testing.T) {
	ctx := engine.NewContext(4)
	s := NewService(ctx, Options{})
	specs := []DatasetSpec{
		{Name: "plain", N: 3000, Seed: 5, Width: 100, Height: 100, TimeRange: 1000},
		{Name: "grid", N: 3000, Seed: 5, Width: 100, Height: 100, TimeRange: 1000, Partitioner: "grid:4"},
		{Name: "bsp-indexed-columnar", N: 3000, Seed: 5, Width: 100, Height: 100, TimeRange: 1000,
			Partitioner: "bsp:300", Index: "persistent:8", Columnar: true},
		{Name: "live", N: 3000, Seed: 5, Width: 100, Height: 100, TimeRange: 1000,
			Partitioner: "grid:3", Index: "live:8", Mutable: true},
	}
	for _, spec := range specs {
		if _, err := s.catalog.Register(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	where := whereClauses{{Field: "category", Op: "eq", Value: workload.Categories[1]}}
	for _, spec := range specs {
		for _, w := range []whereClauses{nil, where} {
			req := windowQuery(spec.Name)
			req.Where = w
			entry, _ := s.catalog.Get(spec.Name)
			chain, err := buildFilterOn(entry.dataset(), req.queryRequest)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleBody(t, chain, func(kv stark.Tuple[eventValue]) map[string]interface{} {
				return feature(kv, nil, nil)
			})
			if len(want) == 0 {
				t.Fatalf("%s: the request matches nothing", spec.Name)
			}
			for _, cache := range []string{"miss", "hit"} {
				rec := postV1Query(t, s, req)
				body, sum := splitSummary(t, rec.Body.Bytes())
				if sum.Cache != cache || sum.Count != int64(bytes.Count(want, []byte("\n"))) {
					t.Errorf("%s where=%v: summary %+v on the %s request, oracle has %d rows",
						spec.Name, w != nil, sum, cache, bytes.Count(want, []byte("\n")))
				}
				if !bytes.Equal(body, want) {
					t.Errorf("%s where=%v: %s body (%d bytes) differs from the row-at-a-time oracle (%d bytes)",
						spec.Name, w != nil, cache, len(body), len(want))
				}
			}
		}
	}

	// A join pair is the left feature with the right record folded in.
	for _, name := range []string{"left", "right"} {
		events := workload.Events(workload.Config{N: 250, Seed: int64(len(name)), Width: 100, Height: 100, TimeRange: 1})
		if _, err := s.catalog.Register(ctx, withEvents(DatasetSpec{Name: name, Partitioner: "grid:2"}, events)); err != nil {
			t.Fatal(err)
		}
	}
	for _, strategy := range []string{"pairs", "broadcast", "copartition"} {
		req := serviceQueryRequest{Dataset: "left", Join: &joinSpec{With: "right", Predicate: "withindistance", Distance: 6, Strategy: strategy}}
		left, _ := s.catalog.Get("left")
		right, _ := s.catalog.Get("right")
		chain, _, err := buildJoinOn(left.dataset(), right.dataset(), req.Join)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleBody(t, chain, func(kv stark.Tuple[joinRow]) map[string]interface{} {
			return featureMap(kv.Key, kv.Value.Left, extras{right: &kv.Value})
		})
		rec := postV1Query(t, s, req)
		body, sum := splitSummary(t, rec.Body.Bytes())
		if sum.Count == 0 || sum.Cache != "bypass" || sum.Strategy != strategy {
			t.Errorf("join %s: summary %+v", strategy, sum)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("join %s: body (%d bytes) differs from the row-at-a-time oracle (%d bytes)", strategy, len(body), len(want))
		}
	}
}

// logCapture is a slog handler that keeps every record's level,
// message and attributes.
type logCapture struct {
	mu      sync.Mutex
	records []map[string]any
}

func (c *logCapture) Enabled(context.Context, slog.Level) bool { return true }
func (c *logCapture) WithAttrs([]slog.Attr) slog.Handler       { return c }
func (c *logCapture) WithGroup(string) slog.Handler            { return c }
func (c *logCapture) Handle(_ context.Context, r slog.Record) error {
	rec := map[string]any{"level": r.Level, "msg": r.Message}
	r.Attrs(func(a slog.Attr) bool {
		rec[a.Key] = a.Value.Any()
		return true
	})
	c.mu.Lock()
	c.records = append(c.records, rec)
	c.mu.Unlock()
	return nil
}

func (c *logCapture) find(msg string) map[string]any {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.records {
		if r["msg"] == msg {
			return r
		}
	}
	return nil
}

// brokenPipe accepts limit writes of feature lines, then fails like a
// connection the client closed.
type brokenPipe struct {
	*httptest.ResponseRecorder
	limit int
}

var errBrokenPipe = errors.New("write: broken pipe")

func (w *brokenPipe) Write(b []byte) (int, error) {
	if w.limit == 0 {
		return 0, errBrokenPipe
	}
	w.limit--
	return w.ResponseRecorder.Write(b)
}

func TestAbortedStreamIsLoggedThroughTheServiceLogger(t *testing.T) {
	var stderr bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&stderr)

	capture := &logCapture{}
	ctx := engine.NewContext(2)
	s := NewService(ctx, Options{Logger: slog.New(capture)})
	if _, err := s.catalog.Register(ctx, DatasetSpec{Name: DefaultDataset, N: 2000, Seed: 11, Width: 100, Height: 100, TimeRange: 1000, Partitioner: "grid:4"}); err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(windowQuery(""))
	post := func(w http.ResponseWriter) {
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(data)))
	}

	// The client hangs up after the first partition's chunk.
	w := &brokenPipe{ResponseRecorder: httptest.NewRecorder(), limit: 1}
	post(w)
	if strings.Contains(w.Body.String(), `"summary"`) {
		t.Error("an aborted stream must not end in a summary line")
	}
	streamed := int64(strings.Count(w.Body.String(), "\n"))
	abort := capture.find("aborting NDJSON stream")
	if abort == nil {
		t.Fatalf("no abort record in the service log: %v", capture.records)
	}
	reqID := w.Header().Get("X-Request-Id")
	if abort["level"] != slog.LevelWarn || abort["req_id"] != int64(1) || reqID != "1" ||
		abort["rows"] != streamed || abort["err"] != errBrokenPipe {
		t.Errorf("abort record %v, want WARN req_id=1 rows=%d err=%v", abort, streamed, errBrokenPipe)
	}
	access := capture.find("request")
	if access == nil || access["aborted"] != true || access["rows"] != streamed || access["req_id"] != int64(1) {
		t.Errorf("access record %v, want aborted=true rows=%d req_id=1", access, streamed)
	}
	if streamed == 0 {
		t.Error("degenerate test: nothing was streamed before the abort")
	}

	// A whole reply is not marked, and fills the cache for the next case.
	capture.records = nil
	ok := httptest.NewRecorder()
	post(ok)
	if access := capture.find("request"); access == nil || access["aborted"] != nil {
		t.Errorf("access record of a complete reply: %v", access)
	}

	// A cached body that cannot be written is reported the same way.
	capture.records = nil
	post(&brokenPipe{ResponseRecorder: httptest.NewRecorder()})
	if abort := capture.find("aborting cached NDJSON stream"); abort == nil || abort["req_id"] != int64(3) {
		t.Errorf("cached abort record %v, want req_id=3", abort)
	}
	if access := capture.find("request"); access == nil || access["aborted"] != true {
		t.Errorf("access record of the cached abort: %v", access)
	}

	if stderr.Len() != 0 {
		t.Errorf("the standard logger received output that belongs to the service logger: %q", stderr.String())
	}
}
