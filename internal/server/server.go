// Package server implements STARK's query service: a concurrent
// multi-dataset HTTP front end over the fluent DSL. A dataset catalog
// registers, lists and drops named datasets (each with its own
// partitioner recipe, index mode and planner statistics); queries
// stream NDJSON straight off the engine's fused partition pipelines;
// repeated queries are served from a plan-fingerprint result cache;
// and an admission-controlled worker pool bounds concurrent engine
// work so the service degrades gracefully under load. The embedded
// single-page UI mirrors the paper's query interface: its filter, kNN,
// clustering and EXPLAIN forms all call /api/v1.
package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"stark"
	"stark/internal/attr"
)

// Options tunes the query service. Zero values select sensible
// defaults.
type Options struct {
	// MaxConcurrent bounds the queries executing engine work at once
	// (cache hits do not count). Default: 2 × context parallelism.
	MaxConcurrent int
	// QueueDepth bounds how many requests may wait for a slot before
	// new ones are rejected with HTTP 429. Default: 4 × MaxConcurrent.
	QueueDepth int
	// QueueTimeout bounds how long a request waits for a slot before
	// HTTP 503. Default: 2s.
	QueueTimeout time.Duration
	// CacheBytes is the result cache's total byte budget; <= 0
	// selects 64 MiB. CacheEntryBytes bounds one entry; <= 0 selects
	// CacheBytes/8.
	CacheBytes      int64
	CacheEntryBytes int64
	// SlowQueryMs logs a structured warning (with fingerprint and
	// trace summary) for requests slower than this many milliseconds;
	// 0 disables slow-query logging.
	SlowQueryMs int64
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Logger receives the structured request and slow-query log
	// records; nil selects slog.Default().
	Logger *slog.Logger
}

// Server is the multi-dataset query service: a catalog of named
// datasets, a plan-fingerprint result cache, and an admission gate in
// front of the engine. Handlers build a DSL chain per request and
// surface the deferred error at the terminal action.
type Server struct {
	ctx     *stark.Context
	catalog *Catalog
	cache   *ResultCache
	adm     *Admission
	mux     *http.ServeMux
	tel     *Telemetry
	dur     *Durability
}

// NewService builds an empty query service; register datasets via the
// catalog endpoints or Register.
func NewService(ctx *stark.Context, opts Options) *Server {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 2 * ctx.Parallelism()
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 4 * opts.MaxConcurrent
	}
	s := &Server{
		ctx:     ctx,
		catalog: NewCatalog(),
		cache:   NewResultCache(opts.CacheBytes, opts.CacheEntryBytes),
		adm:     NewAdmission(opts.MaxConcurrent, opts.QueueDepth, opts.QueueTimeout),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux.HandleFunc("GET /api/datasets", s.handleDatasetsList)
	s.mux.HandleFunc("POST /api/datasets", s.handleDatasetsRegister)
	s.mux.HandleFunc("GET /api/datasets/{name}", s.handleDatasetGet)
	s.mux.HandleFunc("DELETE /api/datasets/{name}", s.handleDatasetDrop)
	s.mux.HandleFunc("POST /api/v1/query", s.handleQueryV1)
	s.mux.HandleFunc("POST /api/v1/explain", s.handleExplainV1)
	s.mux.HandleFunc("POST /api/v1/ingest", s.handleIngest)
	s.mux.HandleFunc("DELETE /api/v1/datasets/{name}/records/{id}", s.handleRecordDelete)
	s.mux.HandleFunc("GET /api/service", s.handleServiceStats)
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s.tel = newTelemetry(s, logger, opts.SlowQueryMs)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if opts.EnablePprof {
		s.mountPprof()
	}
	return s
}

// Register builds and publishes a dataset — the programmatic
// counterpart of POST /api/datasets, used by cmd/starkd to preload.
func (s *Server) Register(spec DatasetSpec) error {
	_, err := s.catalog.Register(s.ctx, spec)
	return err
}

// ServeHTTP implements http.Handler: every request flows through the
// observability middleware (request ID, access log, per-route latency
// histogram, slow-query log) into the route mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.instrument(w, r) }

// ---- request/response types ----

// QueryRequest selects events matching a predicate against a query
// window.
type QueryRequest struct {
	// Predicate is one of intersects, contains, containedby,
	// coveredby, withindistance.
	Predicate string `json:"predicate"`
	// WKT is the query geometry.
	WKT string `json:"wkt"`
	// Begin/End give the optional temporal window; both zero means
	// spatial-only.
	Begin int64 `json:"begin"`
	End   int64 `json:"end"`
	// HasTime marks the temporal window as present (so Begin=End=0 is
	// expressible).
	HasTime bool `json:"hasTime"`
	// Distance parameterises withindistance.
	Distance float64 `json:"distance"`
	// Where adds typed attribute predicates over the event fields (id,
	// category, time): a single clause object or an array of clauses,
	// ANDed with the spatial predicate. With Where present, WKT may be
	// omitted for a pure attribute query.
	Where WhereClauses `json:"where,omitempty"`
}

// WhereClause is one typed attribute comparison:
//
//	{"field": "category", "op": "eq", "value": "sports"}
//	{"field": "time", "op": "between", "value": 100, "value2": 200}
//	{"field": "id", "op": "in", "values": [1, 2, 3]}
//
// Ops: eq, lt, le, gt, ge (and symbol spellings), between
// (value..value2, both inclusive), in (values).
type WhereClause struct {
	Field  string `json:"field"`
	Op     string `json:"op"`
	Value  any    `json:"value,omitempty"`
	Value2 any    `json:"value2,omitempty"`
	Values []any  `json:"values,omitempty"`
}

// WhereClauses decodes from either a single clause object or an array
// of clauses.
type WhereClauses []WhereClause

func (w *WhereClauses) UnmarshalJSON(b []byte) error {
	trimmed := strings.TrimLeft(string(b), " \t\r\n")
	if strings.HasPrefix(trimmed, "{") {
		var one WhereClause
		if err := json.Unmarshal(b, &one); err != nil {
			return err
		}
		*w = WhereClauses{one}
		return nil
	}
	var many []WhereClause
	if err := json.Unmarshal(b, &many); err != nil {
		return err
	}
	*w = many
	return nil
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML))
}

func queryObject(req QueryRequest) (stark.STObject, error) {
	g, err := stark.ParseWKT(req.WKT)
	if err != nil {
		return stark.STObject{}, err
	}
	if !req.HasTime {
		return stark.NewSTObject(g), nil
	}
	iv, err := stark.NewInterval(stark.Instant(req.Begin), stark.Instant(req.End))
	if err != nil {
		return stark.STObject{}, err
	}
	return stark.NewSTObjectWithInterval(g, iv), nil
}

// eventSchema is the attribute schema of a catalog row, time read from
// the key: where clauses compile against it, mutable datasets post it.
var eventSchema = stark.NewAttrSchema[eventValue]().
	Int64("id", func(_ stark.STObject, v eventValue) int64 { return v.ID }).
	String("category", func(_ stark.STObject, v eventValue) string { return v.Category }).
	Int64("time", func(key stark.STObject, _ eventValue) int64 { return eventTime(key) })

// buildFilterOn compiles a QueryRequest into a filter chain over a
// dataset — shared by the NDJSON query endpoint, its EXPLAIN and the
// left side of a join. Where clauses AND with
// the spatial predicate; with Where present and WKT empty, the query
// is attribute-only.
func buildFilterOn(ds *stark.Dataset[eventValue], req QueryRequest) (*stark.Dataset[eventValue], error) {
	if len(req.Where) > 0 {
		var err error
		ds, err = applyWhere(ds.WithSchema(eventSchema), req.Where)
		if err != nil {
			return nil, err
		}
		if req.WKT == "" {
			return ds, nil
		}
	}
	q, err := queryObject(req)
	if err != nil {
		return nil, fmt.Errorf("bad query: %v", err)
	}
	switch strings.ToLower(req.Predicate) {
	case "intersects", "":
		return ds.Intersects(q), nil
	case "contains":
		return ds.Contains(q), nil
	case "containedby":
		return ds.ContainedBy(q), nil
	case "coveredby":
		return ds.CoveredBy(q), nil
	case "withindistance":
		if req.Distance <= 0 {
			return nil, fmt.Errorf("withindistance needs distance > 0")
		}
		return ds.WithinDistance(q, req.Distance, nil), nil
	default:
		return nil, fmt.Errorf("unknown predicate %q", req.Predicate)
	}
}

// applyWhere validates each clause against the event schema (so a bad
// field or operand maps to 400, not a failed execution) and defers it
// onto the chain.
func applyWhere(ds *stark.Dataset[eventValue], where []WhereClause) (*stark.Dataset[eventValue], error) {
	for i, c := range where {
		if err := checkWhere(c); err != nil {
			return nil, fmt.Errorf("bad where clause %d: %v", i, err)
		}
		switch strings.ToLower(c.Op) {
		case "between":
			ds = ds.FilterRange(c.Field, c.Value, c.Value2)
		case "in":
			ds = ds.FilterIn(c.Field, c.Values...)
		default:
			ds = ds.FilterOp(c.Field, c.Op, c.Value)
		}
	}
	return ds, nil
}

// checkWhere type-checks one clause against the event schema without
// touching a chain.
func checkWhere(c WhereClause) error {
	op, err := attr.ParseOp(c.Op)
	if err != nil {
		return err
	}
	p := attr.Pred{Field: c.Field, Op: op}
	switch op {
	case attr.OpIn:
		if len(c.Values) == 0 {
			return fmt.Errorf("op in needs a non-empty values array")
		}
		for _, raw := range c.Values {
			v, err := attr.FromAny(raw)
			if err != nil {
				return err
			}
			p.Set = append(p.Set, v)
		}
	case attr.OpBetween:
		if c.Value == nil || c.Value2 == nil {
			return fmt.Errorf("op between needs value and value2")
		}
		if p.Lo, err = attr.FromAny(c.Value); err != nil {
			return err
		}
		if p.Hi, err = attr.FromAny(c.Value2); err != nil {
			return err
		}
	default:
		if c.Value == nil {
			return fmt.Errorf("op %s needs value", op)
		}
		if p.Lo, err = attr.FromAny(c.Value); err != nil {
			return err
		}
	}
	_, err = eventSchema.Check(p.Canonicalize())
	return err
}

// indexHTML is the embedded demonstration UI: predicate form, time
// window pickers and a result pane, in the spirit of the paper's
// Figure 3 front end (map widgets replaced by WKT input, stdlib-only).
const indexHTML = `<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>STARK demo</title>
<style>
body { font-family: sans-serif; margin: 2rem; max-width: 60rem; }
fieldset { margin-bottom: 1rem; }
textarea, input, select { font-family: monospace; }
pre { background: #f4f4f4; padding: 1rem; overflow: auto; max-height: 24rem; }
</style>
</head>
<body>
<h1>STARK spatio-temporal query demo</h1>
<fieldset>
<legend>Filter</legend>
<label>Predicate
<select id="predicate">
<option>intersects</option><option>contains</option>
<option>containedby</option><option>coveredby</option>
<option>withindistance</option>
</select></label>
<label>Distance <input id="distance" value="10" size="6"></label><br>
<label>Query WKT<br>
<textarea id="wkt" rows="3" cols="70">POLYGON ((0 0, 100 0, 100 100, 0 100, 0 0))</textarea></label><br>
<label><input type="checkbox" id="hasTime"> Time window</label>
<label>begin <input id="begin" value="0" size="10"></label>
<label>end <input id="end" value="1000000" size="10"></label><br>
<button onclick="query()">Run filter</button>
<button onclick="explain()">Explain</button>
</fieldset>
<fieldset>
<legend>kNN</legend>
<label>Point WKT <input id="knnwkt" value="POINT (50 50)" size="30"></label>
<label>k <input id="k" value="5" size="4"></label>
<button onclick="knn()">Run kNN</button>
</fieldset>
<fieldset>
<legend>Clustering</legend>
<label>eps <input id="eps" value="5" size="6"></label>
<label>minPts <input id="minpts" value="4" size="4"></label>
<button onclick="clusterRun()">Run DBSCAN</button>
</fieldset>
<h2>Result</h2>
<pre id="out">–</pre>
<script>
// The reply is NDJSON: one feature per line, then the summary line.
async function query(body) {
  const r = await fetch('/api/v1/query', {method: 'POST', body: JSON.stringify(body || filterBody())});
  document.getElementById('out').textContent = await r.text();
}
function filterBody() {
  return {
    predicate: document.getElementById('predicate').value,
    wkt: document.getElementById('wkt').value,
    hasTime: document.getElementById('hasTime').checked,
    begin: parseInt(document.getElementById('begin').value),
    end: parseInt(document.getElementById('end').value),
    distance: parseFloat(document.getElementById('distance').value),
  };
}
async function explain() {
  const r = await fetch('/api/v1/explain', {method: 'POST', body: JSON.stringify(filterBody())});
  const j = await r.json();
  document.getElementById('out').textContent = j.text || JSON.stringify(j, null, 2);
}
function knn() {
  query({
    wkt: document.getElementById('knnwkt').value,
    knn: {k: parseInt(document.getElementById('k').value)},
  });
}
function clusterRun() {
  query({cluster: {
    eps: parseFloat(document.getElementById('eps').value),
    minPts: parseInt(document.getElementById('minpts').value),
  }});
}
</script>
</body>
</html>
`
