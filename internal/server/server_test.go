package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stark"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/plan"
	"stark/internal/workload"
)

// mustGeom parses a WKT literal, panicking on error.
func mustGeom(wkt string) geom.Geometry {
	g, err := geom.ParseWKT(wkt)
	if err != nil {
		panic(err)
	}
	return g
}

func testServer(t *testing.T, n int) *Server {
	t.Helper()
	s, _ := testService(t, n, Options{})
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
func v1Filter(t *testing.T, s *Server, q queryRequest) (*httptest.ResponseRecorder, []map[string]interface{}, ndjsonSummary) {
	t.Helper()
	rec := postV1Query(t, s, serviceQueryRequest{queryRequest: q})
	if rec.Code != http.StatusOK {
		return rec, nil, ndjsonSummary{}
	}
	features, sum := ndjsonResponse(t, rec.Body.Bytes())
	return rec, features, sum
}

func TestQueryEndpointSpatioTemporal(t *testing.T) {
	s := testServer(t, 300)
	rec, feats, sum := v1Filter(t, s, queryRequest{
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
	rec, _, sum := v1Filter(t, s, queryRequest{
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
	rec, _, _ = v1Filter(t, s, queryRequest{
		Predicate: "withindistance", WKT: "POINT (0 0)",
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing distance status = %d", rec.Code)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	s := testServer(t, 10)
	for name, q := range map[string]queryRequest{
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

// TestOneRoutePerJob: the unversioned query and EXPLAIN routes and the
// kNN, cluster and stats demonstration routes are gone, and the page the
// service serves calls none of them.
func TestOneRoutePerJob(t *testing.T) {
	s := testServer(t, 10)
	for _, route := range []struct{ method, path string }{
		{http.MethodPost, "/api/query"}, {http.MethodPost, "/api/explain"},
		{http.MethodPost, "/api/knn"}, {http.MethodPost, "/api/cluster"}, {http.MethodGet, "/api/stats"},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(route.method, route.path, strings.NewReader("{}")))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s status = %d, want 404", route.method, route.path, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	page := rec.Body.String()
	for _, gone := range []string{"'/api/query'", "'/api/explain'", "'/api/knn'", "'/api/cluster'", "'/api/stats'"} {
		if strings.Contains(page, gone) {
			t.Errorf("the demo page still calls %s", gone)
		}
	}
	for _, want := range []string{"'/api/v1/query'", "'/api/v1/explain'", "knn: {k:", "cluster: {"} {
		if !strings.Contains(page, want) {
			t.Errorf("the demo page does not send %s", want)
		}
	}
}

func TestKNNEndpoint(t *testing.T) {
	s := testServer(t, 200)
	rec := postV1Query(t, s, serviceQueryRequest{
		queryRequest: queryRequest{WKT: "POINT (50 50)"}, KNN: &knnClause{K: 5}, Trace: true,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" || rec.Header().Get("X-Stark-Cache") != "bypass" {
		t.Errorf("headers %v, want NDJSON and X-Stark-Cache: bypass", rec.Header())
	}
	feats, sum := ndjsonResponse(t, rec.Body.Bytes())
	if len(feats) != 5 || sum.Count != 5 || sum.Cache != "bypass" || sum.Dataset != DefaultDataset || sum.Fingerprint != "" {
		t.Fatalf("%d features, summary %+v", len(feats), sum)
	}
	// Distances present and ascending.
	prev := -1.0
	for _, f := range feats {
		d := f["properties"].(map[string]interface{})["distance"].(float64)
		if d < prev {
			t.Fatal("distances not ascending")
		}
		prev = d
	}
	if sum.Trace == nil || !hasPhase(sum.Trace, "knn") || sum.Trace.Rows != 5 {
		t.Errorf("trace %+v, want a knn phase of 5 rows", sum.Trace)
	}
}

func TestClusterEndpoint(t *testing.T) {
	s := testServer(t, 300)
	rec := postV1Query(t, s, serviceQueryRequest{Cluster: &clusterClause{Eps: 5, MinPts: 4}, Trace: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	feats, sum := ndjsonResponse(t, rec.Body.Bytes())
	if len(feats) != 300 || sum.Count != 300 || sum.Cache != "bypass" {
		t.Errorf("%d features, summary %+v: a cluster clause without a filter labels the whole dataset", len(feats), sum)
	}
	if sum.Clusters == nil {
		t.Error("the summary has no cluster count")
	}
	for _, f := range feats {
		if _, ok := f["properties"].(map[string]interface{})["cluster"]; !ok {
			t.Fatalf("missing cluster label: %v", f)
		}
	}
	// The clustering runs on the join operator, which charges its probes
	// to the phase.
	if c := phase(sum.Trace, "cluster"); c == nil {
		t.Errorf("trace %+v, want a cluster phase", sum.Trace)
	} else if c.Counter("index_probes") == 0 || c.Counter("candidates_refined") == 0 {
		t.Errorf("cluster phase counters %v, want index probes and refined candidates", c.Counters)
	}
}

// phase returns a trace's phase named op, or nil.
func phase(t *plan.TraceNode, op string) *plan.TraceNode {
	if t == nil {
		return nil
	}
	for _, c := range t.Children {
		if c.Op == op {
			return c
		}
	}
	return nil
}

// hasPhase reports whether a trace has a phase named op.
func hasPhase(t *plan.TraceNode, op string) bool { return phase(t, op) != nil }

// TestOperatorClausesBadRequests is the 400 battery of the knn and
// cluster clauses: none of these reaches admission.
func TestOperatorClausesBadRequests(t *testing.T) {
	s := testServer(t, 50)
	knn := &knnClause{K: 3}
	cluster := &clusterClause{Eps: 5, MinPts: 4}
	join := &joinSpec{With: DefaultDataset}
	at := queryRequest{WKT: "POINT (50 50)"}
	for name, req := range map[string]serviceQueryRequest{
		"knn and cluster":   {queryRequest: at, KNN: knn, Cluster: cluster},
		"knn and join":      {queryRequest: at, KNN: knn, Join: join},
		"cluster and join":  {Cluster: cluster, Join: join},
		"all three":         {queryRequest: at, KNN: knn, Cluster: cluster, Join: join},
		"knn and predicate": {queryRequest: queryRequest{WKT: "POINT (50 50)", Predicate: "intersects"}, KNN: knn},
		"knn and distance":  {queryRequest: queryRequest{WKT: "POINT (50 50)", Distance: 3}, KNN: knn},
		"k = 0":             {queryRequest: at, KNN: &knnClause{K: 0}},
		"k < 0":             {queryRequest: at, KNN: &knnClause{K: -2}},
		"knn bad wkt":       {queryRequest: queryRequest{WKT: "JUNK"}, KNN: knn},
		"knn no wkt":        {KNN: knn},
		"knn bad where":     {queryRequest: queryRequest{WKT: "POINT (1 1)", Where: whereClauses{{Field: "nope", Op: "eq", Value: 1}}}, KNN: knn},
		"eps = 0":           {Cluster: &clusterClause{Eps: 0, MinPts: 4}},
		"eps < 0":           {Cluster: &clusterClause{Eps: -1, MinPts: 4}},
		"minPts = 0":        {Cluster: &clusterClause{Eps: 5, MinPts: 0}},
		"cluster bad wkt":   {queryRequest: queryRequest{WKT: "JUNK"}, Cluster: cluster},
	} {
		rec := postV1Query(t, s, req)
		var body map[string]string
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body["error"] == "" {
			t.Errorf("%s: status %d %q, want a 400 error document", name, rec.Code, rec.Body.String())
		}
	}
	if st := s.adm.Stats(); st.Admitted != 0 {
		t.Errorf("bad requests took %d admission slots", st.Admitted)
	}
	if rec := postV1Query(t, s, serviceQueryRequest{Dataset: "nope", queryRequest: at, KNN: knn}); rec.Code != http.StatusNotFound {
		t.Errorf("unknown dataset: status %d, want 404", rec.Code)
	}
	for _, req := range []serviceQueryRequest{{queryRequest: at, KNN: knn}, {Cluster: cluster}} {
		if rec, _ := postJSON(t, s, "/api/v1/explain", req); rec.Code != http.StatusBadRequest {
			t.Errorf("EXPLAIN of %s: status %d, want 400", rec.Body.String(), rec.Code)
		}
	}
}

// TestStatsEndpoint: a dataset's count and planner statistics are at
// GET /api/datasets/{name}.
func TestStatsEndpoint(t *testing.T) {
	s := testServer(t, 50)
	if events, planner := datasetStats(t, s, DefaultDataset); events != 50 || planner["count"] != 50.0 {
		t.Errorf("events = %v, planner count = %v, want 50", events, planner["count"])
	}
}

// datasetStats reads a dataset's event count and planner summary off
// GET /api/datasets/{name}.
func datasetStats(t testing.TB, s *Server, name string) (events int64, planner map[string]interface{}) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/datasets/"+name, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /api/datasets/%s status = %d", name, rec.Code)
	}
	var body struct {
		Dataset DatasetInfo            `json:"dataset"`
		Planner map[string]interface{} `json:"planner"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Planner == nil {
		t.Fatalf("GET /api/datasets/%s has no planner summary: %s", name, rec.Body.String())
	}
	return body.Dataset.Events, body.Planner
}

// withEvents returns spec carrying events as its inline payload.
func withEvents(spec DatasetSpec, events []workload.Event) DatasetSpec {
	spec.Events = events
	return spec
}

func TestRegisterEventsRejectsBadWKT(t *testing.T) {
	s := NewService(engine.NewContext(2), Options{})
	if err := s.Register(withEvents(DatasetSpec{Name: DefaultDataset}, []workload.Event{{ID: 1, WKT: "NOT WKT"}})); err == nil {
		t.Error("bad events must fail")
	}
	if s.HasDataset(DefaultDataset) {
		t.Error("a failed registration published the dataset")
	}
}

// TestGeometryJSONShapes holds the line of every non-point key to the
// map-form oracle byte for byte, and pins the GeoJSON type it names.
func TestGeometryJSONShapes(t *testing.T) {
	ev := valueOf(9, "shape")
	pair := joinRow{RightKey: stark.NewSTObjectWithTime(geom.NewPoint(1, 1), 4), Right: ev}
	label, dist := 2, 0.5
	for _, c := range []struct {
		g    geom.Geometry
		want string // the geometry object, "" for an encoding error
	}{
		{mustGeom("LINESTRING (0 0, 1 1)"), `{"coordinates":[[0,0],[1,1]],"type":"LineString"}`},
		{geom.NewMultiPoint([]geom.Point{{X: 0, Y: 0}, {X: 1e-7, Y: 2}}), `{"coordinates":[[0,0],[1e-7,2]],"type":"MultiPoint"}`},
		{geom.NewMultiPoint(nil), `{"coordinates":[],"type":"MultiPoint"}`},
		{mustGeom("POLYGON ((0 0, 1 0, 1 1, 0 0))"),
			`{"coordinates":[[[0,0],[1,0],[1,1],[0,0]]],"type":"Polygon"}`},
		{mustGeom("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))"),
			`{"coordinates":[[[0,0],[4,0],[4,4],[0,4],[0,0]],[[1,1],[2,1],[2,2],[1,2],[1,1]]],"type":"Polygon"}`},
		{mustGeom("POLYGON EMPTY"), `{"coordinates":[[]],"type":"Polygon"}`},
		{nil, `{"geometries":[],"type":"GeometryCollection"}`},
		{geom.NewMultiPoint([]geom.Point{{X: 1, Y: 2}, {X: math.NaN(), Y: 0}}), ""},
	} {
		key := stark.NewSTObjectWithTime(c.g, 3)
		for _, x := range []extras{{}, {right: &pair}, {distance: &dist}, {cluster: &label}} {
			checkAgainstOracle(t, key, ev, x)
		}
		line, err := appendFeature(nil, key, ev, extras{})
		if c.want == "" {
			if err == nil || err.Error() != "json: unsupported value: NaN" {
				t.Errorf("%v: error %v, want the NaN error", c.g, err)
			}
			continue
		}
		if want := `{"geometry":` + c.want + `,"properties":`; err != nil || !strings.HasPrefix(string(line), want) {
			t.Errorf("%v: line %q (%v), want it to start %s", c.g, line, err, want)
		}
	}
}

// TestQueryEndpointStreamsValidGeoJSON pins the reply's shape: every
// line before the summary is a GeoJSON feature, the summary's count is
// the number of lines streamed, and an empty result is the summary line
// alone.
func TestQueryEndpointStreamsValidGeoJSON(t *testing.T) {
	s := testServer(t, 150)
	rec, feats, sum := v1Filter(t, s, queryRequest{
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
	rec, feats, sum = v1Filter(t, s, queryRequest{
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
	rec, out := postJSON(t, s, "/api/v1/explain", queryRequest{
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
	rec3, _ := postJSON(t, s, "/api/v1/explain", queryRequest{WKT: "NOT WKT"})
	if rec3.Code != http.StatusBadRequest {
		t.Errorf("bad WKT status = %d", rec3.Code)
	}
}

func TestStatsComputedOnce(t *testing.T) {
	s := testServer(t, 200)
	launched0 := s.ctx.Recorder().Snapshot()[engine.TasksLaunched]
	for i := 0; i < 3; i++ {
		if events, _ := datasetStats(t, s, DefaultDataset); events != 200 {
			t.Errorf("events = %v", events)
		}
	}
	// Serving stats launches no tasks: the count and summary were
	// computed at construction, not per request.
	if launched := s.ctx.Recorder().Snapshot()[engine.TasksLaunched]; launched != launched0 {
		t.Errorf("stats requests launched %d tasks", launched-launched0)
	}
}
