package obs

// Tests for the metrics kernel: histogram quantiles against known
// distributions (exact interpolation arithmetic, skewed loads,
// overflow), the cumulative-bucket quantile estimator fed scraped
// input, and the Prometheus text exposition validated line by line.

import (
	"bytes"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	if got := c.value(); got != 5 {
		t.Errorf("Counter = %d, want 5", got)
	}

	var g Gauge
	g.Add(2.5)
	g.Add(-1)
	if got := g.value(); got != 1.5 {
		t.Errorf("Gauge = %v, want 1.5", got)
	}

	// The CAS loop must hold up under contention (run with -race).
	var wg sync.WaitGroup
	g = Gauge{}
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.value(); got != 5000 {
		t.Errorf("concurrent Gauge = %v, want 5000", got)
	}
}

// TestHistogramQuantilesUniform observes the integers 1..100 against
// decade buckets, where the linear interpolation is exact: the
// distribution inside every bucket really is uniform, so the
// estimator must land on the true quantile precisely.
func TestHistogramQuantilesUniform(t *testing.T) {
	bounds := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	h := newHistogram(bounds)
	for v := 1; v <= 100; v++ {
		h.observe(float64(v))
	}
	if got := h.observed(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	if got := h.sum(); got != 5050 {
		t.Fatalf("Sum = %v, want 5050", got)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 50},
		{0.95, 95},
		{0.99, 99},
		{0.10, 10},
		{1.00, 100},
	} {
		if got := h.quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

// TestHistogramQuantilesSkewed checks a serving-shaped bimodal load —
// 90% fast cache hits, 10% slow scans — against the default buckets:
// each quantile must land in the bucket that truly contains its rank.
func TestHistogramQuantilesSkewed(t *testing.T) {
	h := newHistogram(nil) // defBuckets: 0.0001 doubling × 20
	for i := 0; i < 90; i++ {
		h.observe(0.001) // 1ms
	}
	for i := 0; i < 10; i++ {
		h.observe(1.0) // 1s
	}
	p50 := h.quantile(0.50)
	if p50 <= 0.0008 || p50 > 0.0016 {
		t.Errorf("p50 = %v, want inside the 1ms bucket (0.0008, 0.0016]", p50)
	}
	p99 := h.quantile(0.99)
	if p99 <= 0.8192 || p99 > 1.6384 {
		t.Errorf("p99 = %v, want inside the 1s bucket (0.8192, 1.6384]", p99)
	}
	if p50 >= p99 {
		t.Errorf("quantiles not monotonic: p50=%v >= p99=%v", p50, p99)
	}
}

// TestHistogramOverflowBucket: observations past the last bound land
// in +Inf, and quantiles there degrade to the last finite bound
// rather than inventing a value.
func TestHistogramOverflowBucket(t *testing.T) {
	bounds := []float64{1, 2}
	h := newHistogram(bounds)
	h.observe(100)
	h.observe(200)
	if got := h.quantile(0.99); got != 2 {
		t.Errorf("quantile(0.99) with all mass in +Inf = %v, want last bound 2", got)
	}
	_, cum := h.cumulative()
	if want := []int64{0, 0, 2}; len(cum) != 3 || cum[0] != want[0] || cum[1] != want[1] || cum[2] != want[2] {
		t.Errorf("cumulative counts = %v, want %v", cum, want)
	}
	h.ObserveDuration(500 * time.Millisecond)
	if got := h.observed(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
}

func TestQuantileFromCumulativeMalformed(t *testing.T) {
	if got := quantileFromCumulative(nil, nil, 0.5); got != 0 {
		t.Errorf("empty input: %v, want 0", got)
	}
	if got := quantileFromCumulative([]float64{1, 2}, []int64{1, 2}, 0.5); got != 0 {
		t.Errorf("length mismatch: %v, want 0", got)
	}
	if got := quantileFromCumulative([]float64{1}, []int64{0, 0}, 0.5); got != 0 {
		t.Errorf("zero total: %v, want 0", got)
	}
	// Out-of-range q clamps instead of extrapolating.
	if got := quantileFromCumulative([]float64{1}, []int64{4, 4}, 7); got != 1 {
		t.Errorf("q>1: %v, want 1", got)
	}
}

var (
	testSampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9eE.+-]+|NaN)$`)
	testMetaLine   = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
)

// TestWritePrometheusExposition registers one family of each kind,
// renders the registry, and validates the exposition: parseable lines
// only, families sorted, histogram buckets cumulative with +Inf equal
// to _count, and label values escaped.
func TestWritePrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_requests_total", "Requests.")
	g := reg.Gauge("test_temperature", "Degrees.")
	reg.GaugeFunc("test_func_gauge", "From a closure.", func() float64 { return 7 })
	hv := reg.HistogramVec("test_latency_seconds", "Latency.", "route", []float64{0.1, 1})

	c.Inc()
	c.Inc()
	c.Inc()
	g.Add(-2.5)
	hv.With("/query").observe(0.05)
	hv.With("/query").observe(0.5)
	hv.With("/query").observe(5)
	hv.With(`we"ird\route`).observe(0.2)

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()

	var families []string
	counts := map[string]int64{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			if !testMetaLine.MatchString(line) {
				t.Errorf("malformed TYPE line %q", line)
			}
			families = append(families, strings.Fields(line)[2])
		case strings.HasPrefix(line, "# HELP "):
			if !testMetaLine.MatchString(line) {
				t.Errorf("malformed HELP line %q", line)
			}
		default:
			m := testSampleLine.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("malformed sample line %q", line)
				continue
			}
			if n, err := strconv.ParseInt(m[3], 10, 64); err == nil {
				counts[m[1]+m[2]] = n
			}
		}
	}
	if !slicesIsSorted(families) {
		t.Errorf("families not sorted: %v", families)
	}

	// Buckets are cumulative and +Inf matches _count.
	b1 := counts[`test_latency_seconds_bucket{route="/query",le="0.1"}`]
	b2 := counts[`test_latency_seconds_bucket{route="/query",le="1"}`]
	bInf := counts[`test_latency_seconds_bucket{route="/query",le="+Inf"}`]
	if b1 != 1 || b2 != 2 || bInf != 3 {
		t.Errorf("cumulative buckets = %d, %d, %d; want 1, 2, 3", b1, b2, bInf)
	}
	if cnt := counts[`test_latency_seconds_count{route="/query"}`]; cnt != bInf {
		t.Errorf("_count = %d != +Inf bucket %d", cnt, bInf)
	}
	if !strings.Contains(out, `route="we\"ird\\route"`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	if !strings.Contains(out, "test_requests_total 3\n") {
		t.Errorf("counter sample missing:\n%s", out)
	}
	if !strings.Contains(out, "test_temperature -2.5\n") {
		t.Errorf("gauge sample missing:\n%s", out)
	}
}

func slicesIsSorted(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	reg.Counter("dup_total", "x")
}
