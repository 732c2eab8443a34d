package server

// Request-scoped observability for the query service: a middleware
// that assigns request IDs, logs every request through log/slog,
// measures per-route latency into Prometheus-style histograms, and
// flags slow queries; plus the GET /metrics exposition wiring every
// subsystem's counters (cache, admission gate, engine, runtime) into
// one scrape.

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stark/internal/engine"
	"stark/internal/obs"
)

// Telemetry carries the service's observability state: the metric
// registry behind GET /metrics, the per-route latency histograms, the
// structured logger, and the slow-query threshold.
type Telemetry struct {
	Registry *obs.Registry

	reqDur      *obs.HistogramVec
	inFlight    *obs.Gauge
	slowQueries *obs.Counter
	reqID       atomic.Int64

	logger *slog.Logger
	slowMs int64
	start  time.Time
}

// newTelemetry builds the registry and registers every metric family
// the service exports.
func newTelemetry(s *Server, logger *slog.Logger, slowMs int64) *Telemetry {
	reg := obs.NewRegistry()
	t := &Telemetry{
		Registry: reg,
		logger:   logger,
		slowMs:   slowMs,
		start:    time.Now(),
	}
	t.reqDur = reg.HistogramVec("stark_http_request_duration_seconds",
		"HTTP request latency by route.", "route", nil)
	t.inFlight = reg.Gauge("stark_http_requests_in_flight",
		"HTTP requests currently being served.")
	t.slowQueries = reg.Counter("stark_slow_queries_total",
		"Requests slower than the -slow-query-ms threshold.")
	reg.GaugeFunc("stark_uptime_seconds",
		"Seconds since the service started.",
		func() float64 { return time.Since(t.start).Seconds() })

	// Result cache.
	reg.CounterFunc("stark_cache_hits_total", "Result cache hits.",
		func() int64 { return s.cache.Stats().Hits })
	reg.CounterFunc("stark_cache_misses_total", "Result cache misses.",
		func() int64 { return s.cache.Stats().Misses })
	reg.CounterFunc("stark_cache_evictions_total", "Result cache LRU evictions.",
		func() int64 { return s.cache.Stats().Evictions })
	reg.CounterFunc("stark_cache_rejected_total", "Results too large for the per-entry cache budget.",
		func() int64 { return s.cache.Stats().Rejected })
	reg.GaugeFunc("stark_cache_bytes", "Bytes held by the result cache.",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	reg.GaugeFunc("stark_cache_entries", "Entries held by the result cache.",
		func() float64 { return float64(s.cache.Stats().Entries) })

	// Admission gate.
	reg.CounterFunc("stark_admission_admitted_total", "Requests admitted to the engine pool.",
		func() int64 { return s.adm.Stats().Admitted })
	reg.CounterFunc("stark_admission_rejected_full_total", "Requests rejected because the admission queue was full (HTTP 429).",
		func() int64 { return s.adm.Stats().RejectedFull })
	reg.CounterFunc("stark_admission_timed_out_total", "Requests that timed out waiting for an engine slot (HTTP 503).",
		func() int64 { return s.adm.Stats().TimedOut })
	reg.GaugeFunc("stark_admission_in_flight", "Requests currently executing engine work.",
		func() float64 { return float64(s.adm.Stats().InFlight) })
	reg.GaugeFunc("stark_admission_waiting", "Requests currently queued for an engine slot.",
		func() float64 { return float64(s.adm.Stats().Waiting) })

	// Engine counters, including the live-ingest batch/mutation rates.
	for c := range engine.NumCounters {
		reg.CounterFunc("stark_engine_"+c.String()+"_total",
			"Engine counter "+c.String()+" (context totals across all jobs).",
			func() int64 { return s.ctx.Recorder().Snapshot()[c] })
	}

	// Go runtime.
	reg.GaugeFunc("stark_go_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("stark_go_heap_inuse_bytes", "Heap bytes in use.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapInuse)
		})
	return t
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.tel.Registry.WritePrometheus(w)
}

// routeLabel normalises a request path to a bounded label set, so
// per-route histograms cannot explode on pathological paths.
func routeLabel(path string) string {
	switch path {
	case "/":
		return "/"
	case "/api/service", "/api/datasets", "/metrics",
		"/api/v1/query", "/api/v1/explain", "/api/v1/ingest":
		return path
	}
	switch {
	case strings.HasPrefix(path, "/api/v1/datasets/"):
		return "/api/v1/datasets/{name}/records/{id}"
	case strings.HasPrefix(path, "/api/datasets/"):
		return "/api/datasets/{name}"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "/debug/pprof"
	default:
		return "other"
	}
}

// reqInfo is the per-request annotation the query handlers fill in so
// the middleware's access and slow-query log lines can carry query
// identity (fingerprint) and execution shape (trace summary).
type reqInfo struct {
	id int64 // the X-Request-Id; fixed before the handler runs

	mu          sync.Mutex
	fingerprint string
	trace       string
	// aborted marks a reply that stopped short of its end after rows
	// rows: the status line was long committed, so the access log is the
	// only place that can say the 200 is not a whole answer.
	aborted bool
	rows    int64
}

func (ri *reqInfo) set(fingerprint, trace string) {
	if ri == nil {
		return
	}
	ri.mu.Lock()
	if fingerprint != "" {
		ri.fingerprint = fingerprint
	}
	if trace != "" {
		ri.trace = trace
	}
	ri.mu.Unlock()
}

func (ri *reqInfo) get() (fingerprint, trace string, aborted bool, rows int64) {
	if ri == nil {
		return "", "", false, 0
	}
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return ri.fingerprint, ri.trace, ri.aborted, ri.rows
}

// logAbort reports through the service logger that the reply to r
// stopped short after rows rows, and marks the request so its access
// log record says so too.
func (s *Server) logAbort(r *http.Request, msg string, rows int64, err error) {
	var id int64
	if ri, ok := r.Context().Value(reqInfoKey{}).(*reqInfo); ok {
		id = ri.id
		ri.mu.Lock()
		ri.aborted, ri.rows = true, rows
		ri.mu.Unlock()
	}
	s.tel.logger.Warn(msg, slog.Int64("req_id", id), slog.Int64("rows", rows), slog.Any("err", err))
}

type reqInfoKey struct{}

// contextWithReqInfo attaches the annotation slot to the request
// context for the handlers downstream.
func contextWithReqInfo(r *http.Request, ri *reqInfo) context.Context {
	return context.WithValue(r.Context(), reqInfoKey{}, ri)
}

// annotate attaches query identity to the in-flight request's log
// record. Safe to call with an un-instrumented request (no-op).
func annotate(r *http.Request, fingerprint, trace string) {
	if ri, ok := r.Context().Value(reqInfoKey{}).(*reqInfo); ok {
		ri.set(fingerprint, trace)
	}
}

// statusWriter records the response status code for the access log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so streaming responses keep
// flushing through the instrumentation.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// mountPprof gates net/http/pprof behind the -pprof flag by mounting
// its handlers on the service mux explicitly (the package's implicit
// DefaultServeMux registration is never served).
func (s *Server) mountPprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// instrument is the middleware around the whole mux: request ID,
// in-flight gauge, per-route latency histogram, structured access
// log, and the slow-query log.
func (s *Server) instrument(w http.ResponseWriter, r *http.Request) {
	t := s.tel
	id := t.reqID.Add(1)
	t.inFlight.Add(1)
	defer t.inFlight.Add(-1)

	ri := &reqInfo{id: id}
	r = r.WithContext(contextWithReqInfo(r, ri))
	w.Header().Set("X-Request-Id", fmt.Sprintf("%d", id))
	sw := &statusWriter{ResponseWriter: w}

	route := routeLabel(r.URL.Path)
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	dur := time.Since(start)

	t.reqDur.With(route).ObserveDuration(dur)
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	fingerprint, trace, aborted, rows := ri.get()
	attrs := []any{
		slog.Int64("req_id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("route", route),
		slog.Int("status", sw.code),
		slog.Duration("duration", dur),
	}
	if fingerprint != "" {
		attrs = append(attrs, slog.String("fingerprint", fingerprint))
	}
	if aborted {
		attrs = append(attrs, slog.Bool("aborted", true), slog.Int64("rows", rows))
	}
	t.logger.Debug("request", attrs...)
	if t.slowMs > 0 && dur >= time.Duration(t.slowMs)*time.Millisecond {
		t.slowQueries.Inc()
		if trace != "" {
			attrs = append(attrs, slog.String("trace", trace))
		}
		t.logger.Warn("slow query", attrs...)
	}
}
