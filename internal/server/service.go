package server

// The multi-dataset query service endpoints (the /api/v1 and catalog
// surface):
//
//	GET    /api/datasets          list registered datasets
//	POST   /api/datasets          register (build + publish) a dataset
//	GET    /api/datasets/{name}   one dataset's summary
//	DELETE /api/datasets/{name}   drop a dataset
//	POST   /api/v1/query          filter, join, kNN or DBSCAN, streaming NDJSON
//	POST   /api/v1/explain        EXPLAIN of a filter or join, with fingerprint/cache state
//	POST   /api/v1/ingest         one atomic mutation batch (ingest.go)
//	DELETE /api/v1/datasets/{name}/records/{id}
//	GET    /api/service           cache + admission statistics
//	GET    /metrics               Prometheus exposition (telemetry.go)
//
// /api/v1/query responds with application/x-ndjson: one GeoJSON
// feature per line, encoded inside the engine's partition tasks as the
// rows leave the fused pipelines (encode.go fixes the bytes of a line)
// and written one partition at a time, in partition order, followed by
// a single summary line
//
//	{"summary":{"dataset":...,"count":N,"cache":"hit|miss|bypass","fingerprint":...}}
//
// Results are cached under the chain's plan fingerprint: a repeated
// identical query is served from the stored bytes — the very bytes the
// miss streamed — without scheduling any engine work (the
// X-Stark-Cache header says which path served the response). Cache
// misses pass through admission control; hits bypass it.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	"stark"
	"stark/internal/engine"
	"stark/internal/plan"
)

// DefaultDataset is the catalog name a request without "dataset"
// addresses, and the one cmd/starkd preloads with -events.
const DefaultDataset = "default"

// serviceQueryRequest is a queryRequest addressed to a named catalog
// dataset ("" selects DefaultDataset). At most one of Join, KNN and
// Cluster may be set; each turns the request into that operator over
// the dataset, and the matching rows stream back as NDJSON.
type serviceQueryRequest struct {
	Dataset string `json:"dataset"`
	queryRequest
	// Join joins the (optionally filtered) dataset against another
	// catalog dataset.
	Join *joinSpec `json:"join,omitempty"`
	// KNN returns the K rows nearest to the request's WKT, after the
	// where clauses; it takes no spatial predicate.
	KNN *knnClause `json:"knn,omitempty"`
	// Cluster runs DBSCAN over the (optionally filtered) dataset.
	Cluster *clusterClause `json:"cluster,omitempty"`
	// Trace requests an execution trace: the summary line gains a
	// "trace" object (plan phases, wall times, per-query engine
	// counters). Traced requests bypass the result cache in both
	// directions, so the trace always describes a real execution.
	Trace bool `json:"trace,omitempty"`
}

// joinSpec describes the join clause of a service query.
type joinSpec struct {
	// With names the right-side catalog dataset ("" selects
	// DefaultDataset).
	With string `json:"with"`
	// Predicate is one of intersects (default), contains,
	// containedby, coveredby, withindistance.
	Predicate string `json:"predicate"`
	// Distance parameterises withindistance.
	Distance float64 `json:"distance"`
	// Strategy forces a physical join strategy: auto (default),
	// pairs, broadcast, copartition.
	Strategy string `json:"strategy"`
}

// knnClause is the knn clause of a service query.
type knnClause struct {
	K int `json:"k"`
}

// clusterClause is the cluster clause of a service query: DBSCAN's
// radius and density threshold.
type clusterClause struct {
	Eps    float64 `json:"eps"`
	MinPts int     `json:"minPts"`
}

// joinRow is the record type of a service join result.
type joinRow = stark.JoinRow[eventValue, eventValue]

// buildJoinOn compiles a joinSpec into a join chain over the two
// datasets, returning the chain and the report its execution fills.
func buildJoinOn(left *stark.Dataset[eventValue], right *stark.Dataset[eventValue], spec *joinSpec) (*stark.Dataset[joinRow], *stark.JoinReport, error) {
	var (
		pred   stark.Predicate
		expand float64
	)
	switch strings.ToLower(spec.Predicate) {
	case "intersects", "":
		pred = stark.Intersects
	case "contains":
		pred = stark.Contains
	case "containedby":
		pred = stark.ContainedBy
	case "coveredby":
		pred = stark.CoveredBy
	case "withindistance":
		if spec.Distance <= 0 {
			return nil, nil, fmt.Errorf("join withindistance needs distance > 0")
		}
		pred = stark.WithinDistancePredicate(spec.Distance, nil)
		expand = spec.Distance
	default:
		return nil, nil, fmt.Errorf("unknown join predicate %q", spec.Predicate)
	}
	var strategy stark.JoinStrategy
	switch strings.ToLower(spec.Strategy) {
	case "auto", "":
		strategy = stark.JoinAuto
	case "pairs":
		strategy = stark.JoinPairs
	case "broadcast":
		strategy = stark.JoinBroadcast
	case "copartition":
		strategy = stark.JoinCoPartition
	default:
		return nil, nil, fmt.Errorf("unknown join strategy %q", spec.Strategy)
	}
	rep := &stark.JoinReport{}
	ds := stark.Join(left, right, stark.JoinOptions{
		Predicate:      pred,
		IndexOrder:     -1,
		ProbeExpansion: expand,
		Strategy:       strategy,
		Report:         rep,
	})
	return ds, rep, nil
}

// joinChain resolves both sides of a join request and builds the
// chain: the request's filter (when present) applies to the left
// side before the join.
func (s *Server) joinChain(w http.ResponseWriter, req serviceQueryRequest) (*stark.Dataset[joinRow], *stark.JoinReport, *catalogEntry, bool) {
	entry, ok := s.resolveDataset(w, req.Dataset)
	if !ok {
		return nil, nil, nil, false
	}
	rightEntry, ok := s.resolveDataset(w, req.Join.With)
	if !ok {
		return nil, nil, nil, false
	}
	left, err := filterOn(entry.dataset(), req.queryRequest)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, nil, nil, false
	}
	chain, rep, err := buildJoinOn(left, rightEntry.dataset(), req.Join)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, nil, nil, false
	}
	return chain, rep, entry, true
}

// filterOn is buildFilterOn for the clauses whose filter is optional
// (join, cluster): a request that sets no filter field covers the whole
// dataset. Any field set applies the filter, so a constraint the plain
// query would reject (a time window without a geometry) errors here
// too instead of being dropped.
func filterOn(ds *stark.Dataset[eventValue], req queryRequest) (*stark.Dataset[eventValue], error) {
	if req.WKT == "" && req.Predicate == "" && !req.HasTime && req.Distance == 0 && len(req.Where) == 0 {
		return ds, nil
	}
	return buildFilterOn(ds, req)
}

// acquireAdmission passes the request through the admission-control
// worker pool, writing the overload response (429 saturated / 503
// queue deadline) on failure. On true the caller owns a slot and
// must s.adm.Release() it.
func (s *Server) acquireAdmission(w http.ResponseWriter, r *http.Request) bool {
	err := s.adm.Acquire(r.Context())
	if err == nil {
		return true
	}
	switch {
	case errors.Is(err, errQueueFull):
		httpError(w, http.StatusTooManyRequests, "server saturated: %v", err)
	case errors.Is(err, errQueueTimeout):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "queue deadline exceeded: %v", err)
	default:
		// Client went away while queued; nothing useful to write.
		s.logAbort(r, "admission aborted", 0, err)
	}
	return false
}

// handleJoinQuery executes the join clause of a service query and
// streams the matching pairs as NDJSON: one GeoJSON feature per line
// (the left record's geometry) with the right record folded into the
// properties. Run() plans the join — strategy, build side, the probe
// partitions worth visiting — so planning errors still map to a status
// code and rep.Strategy is known before the first byte; the stream
// then joins: each probe partition is probed and encoded inside its
// task and written when its turn comes, so the pairs are never
// held in memory (the build side is, that is the join's build phase)
// and a client that hangs up or a deadline that fires stops the
// probing. Join results are not result-cached: every request builds a
// fresh join operator, so its fingerprint could never hit. Admission
// control bounds how many joins run at once.
func (s *Server) handleJoinQuery(w http.ResponseWriter, r *http.Request, req serviceQueryRequest) {
	chain, rep, entry, ok := s.joinChain(w, req)
	if !ok {
		return
	}
	if !s.acquireAdmission(w, r) {
		return
	}
	defer s.adm.Release()

	if err := chain.Run(); err != nil {
		httpError(w, http.StatusInternalServerError, "join failed: %v", err)
		return
	}
	streamAndSummarise(s, w, r, chain, encodePair, ndjsonSummary{
		Dataset: entry.spec.Name, Cache: "bypass", Strategy: rep.Strategy.String(),
	}, req.Trace, false)
}

// handleOperatorQuery answers the knn and cluster clauses. Both
// operators return a computed set, encoded in full before the status
// line and then written as a join's reply is: one line per row, carrying
// the neighbour's "distance" or the row's "cluster" label, then the
// summary line with "cache":"bypass" (and the number of clusters). Both
// take an admission slot; neither is result-cached or explainable.
func (s *Server) handleOperatorQuery(w http.ResponseWriter, r *http.Request, req serviceQueryRequest) {
	entry, ok := s.resolveDataset(w, req.Dataset)
	if !ok {
		return
	}
	chain, ref, err := entry.dataset(), stark.STObject{}, error(nil)
	switch {
	case req.KNN != nil:
		if req.KNN.K <= 0 || req.Predicate != "" || req.Distance != 0 {
			err = fmt.Errorf("knn needs k >= 1 and no predicate or distance: the wkt is its reference object")
		} else if ref, err = queryObject(req.queryRequest); err != nil {
			err = fmt.Errorf("bad query: %v", err)
		} else {
			chain, err = filterOn(chain, queryRequest{Where: req.Where})
		}
	case req.Cluster.Eps <= 0 || req.Cluster.MinPts < 1:
		err = fmt.Errorf("cluster needs eps > 0 and minPts >= 1")
	default:
		chain, err = filterOn(chain, req.queryRequest)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.acquireAdmission(w, r) {
		return
	}
	defer s.adm.Release()

	sum := ndjsonSummary{Dataset: entry.spec.Name, Cache: "bypass"}
	var body []byte
	if req.KNN != nil {
		var nbrs []stark.Neighbor[eventValue]
		nbrs, err = chain.KNNContext(r.Context(), ref, req.KNN.K)
		for i := 0; i < len(nbrs) && err == nil; i++ {
			body, err = appendFeature(body, nbrs[i].Key, nbrs[i].Value, extras{distance: &nbrs[i].Distance})
		}
		sum.Count = int64(len(nbrs))
	} else {
		var recs []stark.ClusteredRecord[eventValue]
		var n int
		recs, n, err = chain.Cluster(r.Context(), stark.ClusterOptions{Eps: req.Cluster.Eps, MinPts: req.Cluster.MinPts})
		for i := 0; i < len(recs) && err == nil; i++ {
			body, err = appendFeature(body, recs[i].Key, recs[i].Value, extras{cluster: &recs[i].Cluster})
		}
		sum.Count, sum.Clusters = int64(len(recs)), &n
	}
	switch {
	case err != nil && r.Context().Err() != nil:
		s.logAbort(r, "query aborted", 0, err) // the client is gone
	case err != nil:
		httpError(w, http.StatusInternalServerError, "query failed: %v", err)
	default:
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Stark-Cache", sum.Cache)
		if _, err := w.Write(body); err != nil {
			s.logAbort(r, "aborting NDJSON stream", 0, err)
			return
		}
		finishReply(w, r, chain.Trace(), sum, req.Trace)
	}
}

// encodeEvent and encodePair are the line encoders of the two reply
// kinds: an event, and a join pair as the left record's feature with
// the right record folded into the properties.
func encodeEvent(dst []byte, kv stark.Tuple[eventValue]) ([]byte, error) {
	return appendFeature(dst, kv.Key, kv.Value, extras{})
}

func encodePair(dst []byte, kv stark.Tuple[joinRow]) ([]byte, error) {
	return appendFeature(dst, kv.Key, kv.Value.Left, extras{right: &kv.Value})
}

// streamAndSummarise writes the NDJSON reply of an executed chain: the
// lines enc makes of its rows, one Write per morsel chunk, then the
// summary line. sum arrives without Count and Trace; its Cache value
// is also the X-Stark-Cache header. With cacheable set the chunks are
// kept on the way, each copied at its exact size, and stored under
// sum.Fingerprint, unless they outgrow the cache's per-entry budget.
// The status line is committed before the first row, so an abort
// (client gone, deadline, encoder error) can only be logged and leave
// the stream without a summary line.
func streamAndSummarise[V any](s *Server, w http.ResponseWriter, r *http.Request, chain *stark.Dataset[V],
	enc func([]byte, stark.Tuple[V]) ([]byte, error), sum ndjsonSummary, trace, cacheable bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Stark-Cache", sum.Cache)
	var (
		body     [][]byte
		size     int64
		writeErr error
	)
	err := chain.StreamEncodedContext(r.Context(), enc, func(chunk []byte, n int64) bool {
		if _, writeErr = w.Write(chunk); writeErr != nil {
			return false
		}
		sum.Count += n
		if cacheable {
			if size += int64(len(chunk)); size > s.cache.MaxEntryBytes() {
				cacheable, body = false, nil
			} else {
				body = append(body, bytes.Clone(chunk)) // the chunk is recycled after this call
			}
		}
		return true
	})
	if err == nil {
		err = writeErr
	}
	if err != nil {
		s.logAbort(r, "aborting NDJSON stream", sum.Count, err)
		return
	}
	finishReply(w, r, chain.Trace(), sum, trace)
	if cacheable {
		s.cache.Put(sum.Fingerprint, body, sum.Count) // Put takes ownership of body
	}
}

// finishReply ends a reply whose rows are written: it hands the trace
// summary to the access and slow-query logs and writes the summary
// line, carrying t when the request asked for a trace.
func finishReply(w http.ResponseWriter, r *http.Request, t *plan.TraceNode, sum ndjsonSummary, trace bool) {
	annotate(r, sum.Fingerprint, traceSummary(t))
	if trace {
		sum.Trace = t
	}
	writeSummaryLine(w, sum)
}

// resolveDataset returns the catalog entry a service request
// addresses, writing the HTTP error on failure.
func (s *Server) resolveDataset(w http.ResponseWriter, name string) (*catalogEntry, bool) {
	if name == "" {
		name = DefaultDataset
	}
	entry, ok := s.catalog.Get(name)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown dataset %q", name)
		return nil, false
	}
	return entry, true
}

// handleDatasetsList serves GET /api/datasets; handleDatasetsRegister
// serves POST.
func (s *Server) handleDatasetsList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]interface{}{"datasets": s.catalog.List()})
}

func (s *Server) handleDatasetsRegister(w http.ResponseWriter, r *http.Request) {
	var spec DatasetSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	entry, err := s.catalog.Register(s.ctx, spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "register: %v", err)
		return
	}
	writeJSON(w, entry.info())
}

func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.resolveDataset(w, r.PathValue("name"))
	if !ok {
		return
	}
	summary, _ := entry.stats()
	writeJSON(w, map[string]interface{}{
		"dataset": entry.info(),
		"planner": summary,
	})
}

func (s *Server) handleDatasetDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	existed, err := s.catalog.Drop(name)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "drop failed: %v", err)
		return
	}
	if !existed {
		httpError(w, http.StatusNotFound, "unknown dataset %q", name)
		return
	}
	writeJSON(w, map[string]string{"dropped": name})
}

// handleServiceStats reports the cache and admission state plus the
// engine counter totals and Go runtime health — one JSON document a
// probe can poll without scraping /metrics.
func (s *Server) handleServiceStats(w http.ResponseWriter, r *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	durability := map[string]interface{}{"enabled": false}
	if s.dur != nil {
		durability = s.dur.status()
	}
	totals := s.ctx.Recorder().Snapshot()
	counters := make(map[string]int64, engine.NumCounters)
	for c := range engine.NumCounters {
		counters[c.String()] = totals[c]
	}
	writeJSON(w, map[string]interface{}{
		"durability":     durability,
		"cache":          s.cache.Stats(),
		"admission":      s.adm.Stats(),
		"datasets":       len(s.catalog.List()),
		"engine":         counters,
		"startTime":      s.tel.start.UTC().Format(time.RFC3339),
		"uptimeSeconds":  time.Since(s.tel.start).Seconds(),
		"goroutines":     runtime.NumGoroutine(),
		"heapInuseBytes": ms.HeapInuse,
	})
}

// handleQueryV1 executes a query against a named dataset and streams
// the result as NDJSON, serving repeated filter queries from the
// plan-fingerprint cache. A join, knn or cluster clause hands the
// request to that operator's handler.
func (s *Server) handleQueryV1(w http.ResponseWriter, r *http.Request) {
	var req serviceQueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	operator := req.KNN != nil || req.Cluster != nil
	switch {
	case operator && (req.Join != nil || req.KNN != nil && req.Cluster != nil):
		httpError(w, http.StatusBadRequest, "join, knn and cluster cannot be combined")
		return
	case req.Join != nil:
		s.handleJoinQuery(w, r, req)
		return
	case operator:
		s.handleOperatorQuery(w, r, req)
		return
	}
	entry, ok := s.resolveDataset(w, req.Dataset)
	if !ok {
		return
	}
	chain, err := buildFilterOn(entry.dataset(), req.queryRequest)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	fp, fpErr := chain.Fingerprint()
	if fpErr == nil {
		annotate(r, fp, "")
	}
	if fpErr == nil && !req.Trace {
		if body, rows, hit := s.cache.Get(fp); hit {
			s.writeNDJSON(w, r, body, ndjsonSummary{
				Dataset: entry.spec.Name, Count: rows, Cache: "hit", Fingerprint: fp,
			})
			return
		}
	}

	if !s.acquireAdmission(w, r) {
		return
	}
	defer s.adm.Release()

	// Compile before committing the response status, so chain and
	// planning errors still map to an HTTP error code.
	if err := chain.Run(); err != nil {
		httpError(w, http.StatusInternalServerError, "query failed: %v", err)
		return
	}

	streamAndSummarise(s, w, r, chain, encodeEvent, ndjsonSummary{
		Dataset: entry.spec.Name, Cache: "miss", Fingerprint: fp,
	}, req.Trace, fpErr == nil && !req.Trace)
}

// traceSummary condenses a trace into the one-line form the
// slow-query log carries.
func traceSummary(t *plan.TraceNode) string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("wall_ms=%.2f rows=%d elements_scanned=%d index_probes=%d kernel_batches=%d",
		float64(t.WallNS)/1e6, t.Rows,
		t.Counter("elements_scanned"), t.Counter("index_probes"), t.Counter("kernel_batches"))
}

// ndjsonSummary is the trailing line of an NDJSON response.
type ndjsonSummary struct {
	Dataset     string `json:"dataset"`
	Count       int64  `json:"count"`
	Cache       string `json:"cache"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Strategy is the physical join strategy that ran (join queries
	// only).
	Strategy string `json:"strategy,omitempty"`
	// Clusters is the number of clusters DBSCAN found (cluster queries
	// only).
	Clusters *int `json:"clusters,omitempty"`
	// Trace is the execution trace (requests with "trace": true only).
	Trace *plan.TraceNode `json:"trace,omitempty"`
}

func writeSummaryLine(w io.Writer, sum ndjsonSummary) {
	b, _ := json.Marshal(map[string]ndjsonSummary{"summary": sum})
	_, _ = w.Write(append(b, '\n'))
}

// writeNDJSON serves a cached body, chunk by chunk, plus a fresh summary line.
func (s *Server) writeNDJSON(w http.ResponseWriter, r *http.Request, body [][]byte, sum ndjsonSummary) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Stark-Cache", sum.Cache)
	for _, chunk := range body {
		if _, err := w.Write(chunk); err != nil {
			s.logAbort(r, "aborting cached NDJSON stream", 0, err)
			return
		}
	}
	writeSummaryLine(w, sum)
}

// handleExplainV1 renders the plan for a query against a named
// dataset, annotated with its fingerprint and cache state.
func (s *Server) handleExplainV1(w http.ResponseWriter, r *http.Request) {
	var req serviceQueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if req.KNN != nil || req.Cluster != nil {
		httpError(w, http.StatusBadRequest, "knn and cluster have no plan to explain")
		return
	}
	if req.Join != nil {
		chain, rep, entry, ok := s.joinChain(w, req)
		if !ok {
			return
		}
		// Explaining a join executes it (ExplainNode counts the pairs
		// for the actual counters) — that work must pass through the
		// same admission gate as the query path, or the explain
		// endpoint becomes an unbounded side door to full joins.
		if !s.acquireAdmission(w, r) {
			return
		}
		defer s.adm.Release()
		node, err := chain.ExplainNode()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "explain failed: %v", err)
			return
		}
		writeJSON(w, map[string]interface{}{
			"dataset":  entry.spec.Name,
			"plan":     node,
			"text":     node.Render(),
			"strategy": rep.Strategy.String(),
			"cache":    "bypass",
		})
		return
	}
	entry, ok := s.resolveDataset(w, req.Dataset)
	if !ok {
		return
	}
	chain, err := buildFilterOn(entry.dataset(), req.queryRequest)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fp, fpErr := chain.Fingerprint()
	node, err := chain.ExplainNode()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "explain failed: %v", err)
		return
	}
	resp := map[string]interface{}{
		"dataset": entry.spec.Name,
		"plan":    node,
		"text":    node.Render(),
	}
	if fpErr == nil {
		resp["fingerprint"] = fp
		resp["cached"] = s.cache.Contains(fp)
	} else {
		resp["fingerprintError"] = fpErr.Error()
	}
	writeJSON(w, resp)
}
