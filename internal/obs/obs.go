// Package obs is a dependency-free metrics kernel: counters, gauges,
// and log-bucketed latency histograms with quantile estimation, plus
// a registry that renders everything in the Prometheus text
// exposition format (version 0.0.4). The HTTP server mounts the
// registry at GET /metrics; bench/e2e scrapes it before and after a
// run to report server-observed time next to client-observed time.
//
// Everything is safe for concurrent use. Hot-path cost is one atomic
// add for counters and three for histograms — no locks, no maps.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// value returns the current count.
func (c *Counter) value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Add adds delta to the gauge value.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// value returns the current gauge value.
func (g *Gauge) value() float64 { return math.Float64frombits(g.bits.Load()) }

// defBuckets are the default histogram bucket upper bounds: a
// geometric ladder from 100µs doubling up to ~52s (20 buckets), which
// covers HTTP request latencies from cache hits to cold scans with
// constant relative error (~2x per bucket, halved by interpolation).
var defBuckets = func() []float64 {
	b := make([]float64, 20)
	v := 0.0001
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// Histogram is a fixed-bucket histogram of float64 observations
// (typically seconds). Buckets are cumulative in exposition, as
// Prometheus requires; quantile estimates arbitrary quantiles by
// linear interpolation inside the bucket containing the rank.
type Histogram struct {
	bounds  []float64      // sorted upper bounds; observations > last go to +Inf
	counts  []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64
}

// newHistogram returns an unregistered histogram with the given
// bucket upper bounds (nil selects defBuckets). Use Registry.Histogram
// for a registered one.
func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = defBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// observe records one observation.
func (h *Histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: the "le" bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.observe(d.Seconds()) }

// observed returns the total number of observations.
func (h *Histogram) observed() int64 { return h.count.Load() }

// sum returns the sum of all observations.
func (h *Histogram) sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// cumulative returns the bucket upper bounds and the cumulative
// counts per bucket (the last entry is the +Inf bucket, equal to
// observed). The two slices feed quantileFromCumulative.
func (h *Histogram) cumulative() (bounds []float64, cum []int64) {
	cum = make([]int64, len(h.counts))
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return h.bounds, cum
}

// quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution. Returns 0 when the histogram is empty.
func (h *Histogram) quantile(q float64) float64 {
	bounds, cum := h.cumulative()
	return quantileFromCumulative(bounds, cum, q)
}

// quantileFromCumulative estimates the q-quantile from cumulative
// bucket counts, as scraped from a Prometheus histogram exposition:
// bounds are the "le" upper bounds (excluding +Inf) and cum the
// cumulative counts per bucket with cum[len(bounds)] the +Inf bucket.
// The rank is located in its bucket and linearly interpolated between
// the bucket's bounds; ranks in the +Inf bucket return the last
// finite bound. Returns 0 on empty or malformed input.
func quantileFromCumulative(bounds []float64, cum []int64, q float64) float64 {
	if len(cum) == 0 || len(cum) != len(bounds)+1 {
		return 0
	}
	total := cum[len(cum)-1]
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	i := sort.Search(len(cum), func(i int) bool { return float64(cum[i]) >= rank })
	if i >= len(bounds) {
		// Rank falls in the +Inf bucket: the best finite answer is the
		// largest finite bound.
		if len(bounds) == 0 {
			return 0
		}
		return bounds[len(bounds)-1]
	}
	lo := 0.0
	var below int64
	if i > 0 {
		lo = bounds[i-1]
		below = cum[i-1]
	}
	hi := bounds[i]
	inBucket := cum[i] - below
	if inBucket <= 0 {
		return hi
	}
	frac := (rank - float64(below)) / float64(inBucket)
	if frac < 0 {
		frac = 0
	}
	return lo + (hi-lo)*frac
}

// HistogramVec is a family of histograms partitioned by one label
// (e.g. per-route request latency). Children are created on first use
// and live forever — label cardinality must be bounded by the caller.
type HistogramVec struct {
	label  string
	bounds []float64

	mu       sync.Mutex
	children map[string]*Histogram
}

// With returns the child histogram for the label value, creating it
// on first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[value]
	if !ok {
		h = newHistogram(v.bounds)
		v.children[value] = h
	}
	return h
}

// snapshot returns the children sorted by label value.
func (v *HistogramVec) snapshot() (labels []string, hists []*Histogram) {
	v.mu.Lock()
	defer v.mu.Unlock()
	labels = make([]string, 0, len(v.children))
	for l := range v.children {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	hists = make([]*Histogram, len(labels))
	for i, l := range labels {
		hists[i] = v.children[l]
	}
	return labels, hists
}

// metric is one registered family: its metadata plus a writer that
// renders the current samples.
type metric struct {
	name  string
	help  string
	typ   string
	write func(w io.Writer, name string)
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Families render sorted by name, so the
// output is deterministic regardless of registration order.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[m.name]; dup {
		panic("obs: duplicate metric " + m.name)
	}
	r.metrics[m.name] = m
}

// Counter registers and returns a counter family with one sample.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, typ: "counter", write: func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, c.value())
	}})
	return c
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time — for counters another subsystem already maintains.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(&metric{name: name, help: help, typ: "counter", write: func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, fn())
	}})
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, typ: "gauge", write: func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %s\n", n, formatFloat(g.value()))
	}})
	return g
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, typ: "gauge", write: func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %s\n", n, formatFloat(fn()))
	}})
}

// Histogram registers and returns a histogram (nil bounds selects
// defBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(&metric{name: name, help: help, typ: "histogram", write: func(w io.Writer, n string) {
		writeHistogram(w, n, "", "", h)
	}})
	return h
}

// HistogramVec registers and returns a histogram family partitioned
// by label (nil bounds selects defBuckets).
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if bounds == nil {
		bounds = defBuckets
	}
	v := &HistogramVec{label: label, bounds: bounds, children: make(map[string]*Histogram)}
	r.register(&metric{name: name, help: help, typ: "histogram", write: func(w io.Writer, n string) {
		labels, hists := v.snapshot()
		for i, l := range labels {
			writeHistogram(w, n, v.label, l, hists[i])
		}
	}})
	return v
}

// WritePrometheus renders every registered family, sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	ms := make([]*metric, len(names))
	for i, n := range names {
		ms[i] = r.metrics[n]
	}
	r.mu.Unlock()

	for _, m := range ms {
		fmt.Fprintf(w, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ)
		m.write(w, m.name)
	}
}

func writeHistogram(w io.Writer, name, label, labelValue string, h *Histogram) {
	bounds, cum := h.cumulative()
	for i, b := range bounds {
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labelPrefix(label, labelValue), formatFloat(b), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labelPrefix(label, labelValue), cum[len(cum)-1])
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelSuffix(label, labelValue), formatFloat(h.sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelSuffix(label, labelValue), h.observed())
}

// labelPrefix renders `route="query",` for use before the le label.
func labelPrefix(label, value string) string {
	if label == "" {
		return ""
	}
	return label + "=\"" + escapeLabel(value) + "\","
}

// labelSuffix renders `{route="query"}` for _sum and _count lines.
func labelSuffix(label, value string) string {
	if label == "" {
		return ""
	}
	return "{" + label + "=\"" + escapeLabel(value) + "\"}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
