package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/workload"
)

func testServer(t *testing.T, n int) *Server {
	t.Helper()
	events := workload.Events(workload.Config{N: n, Seed: 11, Width: 100, Height: 100, TimeRange: 1000})
	s, err := New(engine.NewContext(4), events)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, s *Server, path string, body interface{}) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var out map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: bad JSON response %q: %v", path, rec.Body.String(), err)
	}
	return rec, out
}

func TestIndexPage(t *testing.T) {
	s := testServer(t, 10)
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "STARK") {
		t.Error("index page missing title")
	}
	// Unknown paths 404.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown path status = %d", rec.Code)
	}
}

// v1Filter posts a filter request against the default dataset to
// /api/v1/query and returns the recorder plus the decoded reply (nil
// features and a zero summary on a non-200 status).
func v1Filter(t *testing.T, s *Server, q QueryRequest) (*httptest.ResponseRecorder, []map[string]interface{}, ndjsonSummary) {
	t.Helper()
	rec := postV1Query(t, s, ServiceQueryRequest{QueryRequest: q})
	if rec.Code != http.StatusOK {
		return rec, nil, ndjsonSummary{}
	}
	features, sum := ndjsonResponse(t, rec.Body.Bytes())
	return rec, features, sum
}

func TestQueryEndpointSpatioTemporal(t *testing.T) {
	s := testServer(t, 300)
	rec, feats, sum := v1Filter(t, s, QueryRequest{
		Predicate: "containedby",
		WKT:       "POLYGON ((0 0, 100 0, 100 100, 0 100, 0 0))",
		HasTime:   true,
		Begin:     0,
		End:       500,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	if sum.Count == 0 || sum.Count == 300 || int(sum.Count) != len(feats) {
		t.Errorf("count = %d over %d lines, want a proper temporal subset", sum.Count, len(feats))
	}
	for _, f := range feats {
		props := f["properties"].(map[string]interface{})
		if props["time"].(float64) > 500 {
			t.Fatal("temporal window violated")
		}
	}
}

func TestQueryEndpointWithinDistance(t *testing.T) {
	s := testServer(t, 200)
	rec, _, sum := v1Filter(t, s, QueryRequest{
		Predicate: "withindistance",
		WKT:       "POINT (50 50)",
		HasTime:   true,
		Begin:     0, End: 1000,
		Distance: 30,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if sum.Count == 0 {
		t.Error("no results within 30 of center")
	}
	// Missing distance errors.
	rec, _, _ = v1Filter(t, s, QueryRequest{
		Predicate: "withindistance", WKT: "POINT (0 0)",
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing distance status = %d", rec.Code)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	s := testServer(t, 10)
	for name, q := range map[string]QueryRequest{
		"bad predicate":     {Predicate: "nope", WKT: "POINT (0 0)"},
		"bad wkt":           {WKT: "BAD"},
		"inverted interval": {WKT: "POINT (0 0)", HasTime: true, Begin: 9, End: 1},
	} {
		rec, _, _ := v1Filter(t, s, q)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s status = %d", name, rec.Code)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
			t.Errorf("%s: reply %q is not an error document", name, rec.Body.String())
		}
	}
	// GET not allowed.
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/api/v1/query", nil))
	if rec2.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", rec2.Code)
	}
	// Malformed JSON.
	rec3 := httptest.NewRecorder()
	s.ServeHTTP(rec3, httptest.NewRequest(http.MethodPost, "/api/v1/query", strings.NewReader("{")))
	if rec3.Code != http.StatusBadRequest {
		t.Errorf("bad json status = %d", rec3.Code)
	}
}

// TestOneRoutePerJob: the unversioned query and EXPLAIN routes are gone
// and the page the service serves calls neither.
func TestOneRoutePerJob(t *testing.T) {
	s := testServer(t, 10)
	for _, path := range []string{"/api/query", "/api/explain"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader("{}")))
		if rec.Code != http.StatusNotFound {
			t.Errorf("POST %s status = %d, want 404", path, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	page := rec.Body.String()
	for _, gone := range []string{"'/api/query'", "'/api/explain'"} {
		if strings.Contains(page, gone) {
			t.Errorf("the demo page still calls %s", gone)
		}
	}
	for _, want := range []string{"'/api/v1/query'", "'/api/v1/explain'", "'/api/knn'", "'/api/cluster'", "'/api/stats'"} {
		if !strings.Contains(page, want) {
			t.Errorf("the demo page does not call %s", want)
		}
	}
}

func TestKNNEndpoint(t *testing.T) {
	s := testServer(t, 200)
	rec, out := postJSON(t, s, "/api/knn", KNNRequest{WKT: "POINT (50 50)", K: 5})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	feats := out["features"].([]interface{})
	if len(feats) != 5 {
		t.Fatalf("features = %d", len(feats))
	}
	// Distances present and ascending.
	prev := -1.0
	for _, f := range feats {
		d := f.(map[string]interface{})["properties"].(map[string]interface{})["distance"].(float64)
		if d < prev {
			t.Fatal("distances not ascending")
		}
		prev = d
	}
	rec, _ = postJSON(t, s, "/api/knn", KNNRequest{WKT: "POINT (0 0)", K: 0})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("k=0 status = %d", rec.Code)
	}
	rec, _ = postJSON(t, s, "/api/knn", KNNRequest{WKT: "JUNK", K: 1})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad wkt status = %d", rec.Code)
	}
}

func TestClusterEndpoint(t *testing.T) {
	s := testServer(t, 300)
	rec, out := postJSON(t, s, "/api/cluster", ClusterRequest{Eps: 5, MinPts: 4})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	if _, ok := out["numClusters"]; !ok {
		t.Error("missing numClusters")
	}
	feats := out["features"].([]interface{})
	if len(feats) != 300 {
		t.Errorf("features = %d", len(feats))
	}
	props := feats[0].(map[string]interface{})["properties"].(map[string]interface{})
	if _, ok := props["cluster"]; !ok {
		t.Error("missing cluster label")
	}
	rec, _ = postJSON(t, s, "/api/cluster", ClusterRequest{Eps: -1, MinPts: 4})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad eps status = %d", rec.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := testServer(t, 50)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var out map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if int(out["events"].(float64)) != 50 {
		t.Errorf("events = %v", out["events"])
	}
}

func TestNewRejectsBadWKT(t *testing.T) {
	events := []workload.Event{{ID: 1, WKT: "NOT WKT"}}
	if _, err := New(engine.NewContext(2), events); err == nil {
		t.Error("bad events must fail")
	}
}

func TestGeometryJSONShapes(t *testing.T) {
	pt := geometryJSON(geom.NewPoint(1, 2))
	if pt["type"] != "Point" {
		t.Errorf("point type = %v", pt["type"])
	}
	ls := geometryJSON(geom.MustLineString(geom.NewPoint(0, 0), geom.NewPoint(1, 1)))
	if ls["type"] != "LineString" {
		t.Errorf("ls type = %v", ls["type"])
	}
	poly := geometryJSON(geom.MustPolygon(
		geom.NewPoint(0, 0), geom.NewPoint(1, 0), geom.NewPoint(1, 1)))
	if poly["type"] != "Polygon" {
		t.Errorf("poly type = %v", poly["type"])
	}
	rings := poly["coordinates"].([][][]float64)
	if len(rings) != 1 || len(rings[0]) != 4 {
		t.Errorf("rings = %v", rings)
	}
	mp := geometryJSON(geom.NewMultiPoint([]geom.Point{{X: 0, Y: 0}}))
	if mp["type"] != "MultiPoint" {
		t.Errorf("mp type = %v", mp["type"])
	}
}

// TestQueryEndpointStreamsValidGeoJSON pins the reply's shape: every
// line before the summary is a GeoJSON feature, the summary's count is
// the number of lines streamed, and an empty result is the summary line
// alone.
func TestQueryEndpointStreamsValidGeoJSON(t *testing.T) {
	s := testServer(t, 150)
	rec, feats, sum := v1Filter(t, s, QueryRequest{
		Predicate: "intersects",
		WKT:       "POLYGON ((0 0, 100 0, 100 100, 0 100, 0 0))",
		HasTime:   true, Begin: 0, End: 1000,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if sum.Count != 150 || len(feats) != 150 {
		t.Errorf("count %d over %d streamed features, want all 150", sum.Count, len(feats))
	}
	for _, f := range feats {
		if f["type"] != "Feature" || f["geometry"] == nil || f["properties"] == nil {
			t.Fatalf("line is not a GeoJSON feature: %v", f)
		}
	}

	// Empty result: the summary alone, with count 0.
	rec, feats, sum = v1Filter(t, s, QueryRequest{
		Predicate: "intersects",
		WKT:       "POLYGON ((900 900, 910 900, 910 910, 900 910, 900 900))",
		HasTime:   true, Begin: 0, End: 1000,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("empty-result status = %d", rec.Code)
	}
	if sum.Count != 0 || len(feats) != 0 {
		t.Errorf("empty result rendered as %d lines, count %d", len(feats), sum.Count)
	}
}

func TestExplainEndpoint(t *testing.T) {
	s := testServer(t, 300)
	rec, out := postJSON(t, s, "/api/v1/explain", QueryRequest{
		Predicate: "intersects",
		WKT:       "POLYGON ((10 10, 40 10, 40 40, 10 40, 10 10))",
		HasTime:   true,
		Begin:     0,
		End:       1000,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	text, ok := out["text"].(string)
	if !ok || !strings.Contains(text, "Filter[intersects") {
		t.Errorf("explain text = %q", text)
	}
	for _, want := range []string{"index=", "pruned ", "est_rows=", "act_rows="} {
		if !strings.Contains(text, want) {
			t.Errorf("explain text missing %q:\n%s", want, text)
		}
	}
	node, ok := out["plan"].(map[string]interface{})
	if !ok || node["op"] != "Filter" {
		t.Errorf("plan node = %v", out["plan"])
	}

	// GET is rejected; bad WKT maps to a 400.
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/api/v1/explain", nil))
	if rec2.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", rec2.Code)
	}
	rec3, _ := postJSON(t, s, "/api/v1/explain", QueryRequest{WKT: "NOT WKT"})
	if rec3.Code != http.StatusBadRequest {
		t.Errorf("bad WKT status = %d", rec3.Code)
	}
}

func TestStatsComputedOnce(t *testing.T) {
	s := testServer(t, 200)
	launched0 := s.ctx.Metrics().Snapshot().TasksLaunched
	var events float64
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest(http.MethodGet, "/api/stats", nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
		var out map[string]interface{}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		events = out["events"].(float64)
		if events != 200 {
			t.Errorf("events = %v", events)
		}
		if _, ok := out["planner"].(map[string]interface{}); !ok {
			t.Error("stats response missing planner summary")
		}
	}
	// Serving stats launches no tasks: the count and summary were
	// computed at construction, not per request.
	if launched := s.ctx.Metrics().Snapshot().TasksLaunched; launched != launched0 {
		t.Errorf("stats requests launched %d tasks", launched-launched0)
	}
}
