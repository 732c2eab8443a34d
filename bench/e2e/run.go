package main

// One benchmark run: repeated set-ups, oracle checks, a fixed-count
// warm-up, the timed window, and (with -trace 1) the traced pass and
// the layer replays.

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"stark"
	"stark/internal/server"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
	scale    int       // events in the primary dataset; 0 = full scale
	log      io.Writer // progress lines; nil discards them
}

// result is what a run measured and found.
type result struct {
	values    map[string]float64
	attempted int
	failed    int
	spans     []span // traced pass only

	mu       sync.Mutex
	problems []string // oracle mismatches and failed operations
}

func (r *result) correct() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.problems) == 0
}

// problem records a correctness failure; the first few are kept.
func (r *result) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// Set-up is repeated inside the process and its median reported: one
// set-up per process varied by 12 % between processes on the reference
// box, the median of three to five by under 4 %.
const (
	minSetups    = 3
	maxSetups    = 9
	setupSeconds = 4.0 // small set-ups repeat until they have filled this long
)

// checkpointEvery is the number of acknowledged operations between two
// checkpoints of a durable workload. Count-triggered, so every run
// checkpoints at the same points of its operation sequence.
const checkpointEvery = 500

// runner is the state of one run.
type runner struct {
	cfg  config
	w    spec
	tabs []table
	pool []op
	svc  *service
	// client is the workload's one closed-loop caller. One, because the
	// service's two engine workers already fill the reference box's two
	// cores: a second caller made the runs measure the scheduler (see
	// bench/README.md, "Noise").
	client *client
	cal    *calibrator
	res    *result
	next   int64 // next operation's sequence number

	ckpt     chan struct{} // one token per checkpoint due
	ckptDone chan struct{}
	ckptMS   []float64 // read after stopCheckpointer
}

func (r *runner) logf(format string, args ...any) {
	if r.cfg.log != nil {
		fmt.Fprintf(r.cfg.log, format+"\n", args...)
	}
}

// buildPool generates the workload's tables and its operation pool for
// seed.
func buildPool(w spec, seed int64) ([]table, []op) {
	tabs := make([]table, len(w.datasets))
	for i, d := range w.datasets {
		tabs[i] = generate(d)
	}
	return tabs, w.pool(rand.New(rand.NewSource(seed)), tabs)
}

func run(cfg config) (*result, error) {
	w, ok := scaled(cfg.scale)[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.dir == "" {
		dir, err := os.MkdirTemp("", "stark-e2e-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.dir = dir
	} else if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, w: w, cal: newCalibrator(), res: &result{values: make(map[string]float64)}}
	r.tabs, r.pool = buildPool(w, cfg.seed)

	if err := r.setUp(); err != nil {
		return nil, err
	}
	defer func() {
		if r.svc != nil {
			r.svc.close()
		}
	}()
	r.client = r.svc.client()
	r.startCheckpointer()

	warmStart := time.Now()
	if err := r.warmUp(); err != nil {
		r.stopCheckpointer()
		return nil, err
	}
	r.res.values["setup.warmup_s"] = time.Since(warmStart).Seconds()

	r.window()
	if cfg.trace {
		r.tracedPass()
	}
	r.stopCheckpointer()
	if cfg.trace {
		if err := w.replay(r); err != nil {
			return nil, err
		}
	}
	if w.durable {
		if err := r.checkRecovery(); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// heapAlloc returns the live heap after two forced collections (the
// second frees what the first one's finalizers released).
func heapAlloc() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// setUp boots the service several times, each time after dropping the
// previous one, and keeps the last. It reports the median set-up time
// and the heap the kept service holds.
func (r *runner) setUp() error {
	var times []float64
	var total float64
	for attempt := 0; ; attempt++ {
		if r.svc != nil {
			r.svc.close()
			r.svc = nil
		}
		before := heapAlloc()
		dir := ""
		if r.w.durable {
			var err error
			if dir, err = runDir(r.cfg.dir, r.cfg.workload, attempt); err != nil {
				return err
			}
		}
		start := time.Now()
		svc, registerS, err := boot(r.w, dir)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start).Seconds()
		r.svc = svc
		times = append(times, took)
		total += took
		// The traced run reports no set-up time, so it sets up once.
		if r.cfg.trace || len(times) >= maxSetups || (len(times) >= minSetups && total >= setupSeconds) {
			r.res.values["setup.register_s"] = registerS
			r.res.values["setup_heap_mb"] = (heapAlloc() - before) / (1 << 20)
			break
		}
	}
	r.res.values["setup_s"] = median(times)
	r.logf("set-up: %d repeats, median %.3f s (min %.3f, max %.3f)", len(times), median(times), slices.Min(times), slices.Max(times))
	return nil
}

// startCheckpointer starts the goroutine that checkpoints a durable
// service whenever a client has acknowledged checkpointEvery more
// operations.
func (r *runner) startCheckpointer() {
	r.ckpt = make(chan struct{}, 1)
	r.ckptDone = make(chan struct{})
	go func() {
		defer close(r.ckptDone)
		for range r.ckpt {
			start := time.Now()
			if err := r.svc.srv.Checkpoint(); err != nil {
				r.res.problem("checkpoint: %v", err)
				continue
			}
			r.ckptMS = append(r.ckptMS, ms(time.Since(start)))
		}
	}()
}

func (r *runner) stopCheckpointer() {
	close(r.ckpt)
	<-r.ckptDone
}

// acknowledged is called by a client after operation seq succeeded.
func (r *runner) acknowledged(seq int64) {
	if r.w.durable && (seq+1)%checkpointEvery == 0 {
		select {
		case r.ckpt <- struct{}{}:
		default: // the previous checkpoint is still running; it covers this one
		}
	}
}

// nextSeq hands out the sequence numbers: warm-up, window and traced
// pass continue one sequence.
func (r *runner) nextSeq() int64 {
	r.next++
	return r.next - 1
}

// opAt returns the pool entry that sequence number seq issues.
func (r *runner) opAt(seq int64) *op { return &r.pool[seq%int64(len(r.pool))] }

// issue runs the pool operation with sequence number seq; its cycle
// number is the count of full passes over the pool before it.
func (r *runner) issue(c *client, seq int64, traced bool, opID string) (reply, opTimes, error) {
	rep, t, err := c.do(r.w, r.opAt(seq), seq/int64(len(r.pool)), traced, opID)
	if err == nil {
		r.acknowledged(seq)
	}
	return rep, t, err
}

// warmUp issues the first w.warmup operations of the sequence, so the
// lazily built statistics, columnar and postings
// sidecars exist and the hot entries are cached before the window, and
// checks the first w.verify replies against the oracle.
func (r *runner) warmUp() error {
	for i := 0; i < r.w.warmup; i++ {
		seq := r.nextSeq()
		rep, _, err := r.issue(r.client, seq, false, "")
		if err != nil {
			return fmt.Errorf("warm-up operation %d: %w", seq, err)
		}
		if i < r.w.verify {
			if err := r.checkOracle(r.opAt(seq), rep); err != nil {
				r.res.problem("operation %d: %v", seq, err)
			}
		}
	}
	if r.w.verify > 0 && r.res.correct() {
		r.logf("oracle: first %d replies match brute force", r.w.verify)
	}
	return nil
}

// window is the timed part: the client takes the next sequence number,
// runs that operation and records its latency, until the time is up,
// with a calibration sample every sampleEvery between two operations.
// /metrics and the runtime's counters are read once before and once
// after; nothing else is recorded inside. The three timing metrics are
// reported as the quiet reference box would show them (calib.go).
func (r *runner) window() {
	var all struct {
		lat       []float64 // ms, successful operations only
		rows      int64
		bytes     int64
		userBytes int64 // ingest batch bytes sent
		failed    int
	}
	all.lat = make([]float64, 0, 1<<16)
	scraper := r.svc.client()
	runtime.GC()
	runtime.GC()
	before, err := scraper.scrape()
	if err != nil {
		r.res.problem("scraping /metrics: %v", err)
	}
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	firstSample, spentBefore := len(r.cal.samples), r.cal.spent
	start := time.Now()
	deadline := start.Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	var sampled time.Time
	for now := start; now.Before(deadline); now = time.Now() {
		if now.Sub(sampled) >= sampleEvery {
			r.cal.sample()
			sampled = time.Now()
		}
		seq := r.nextSeq()
		rep, t, err := r.issue(r.client, seq, false, "")
		if err != nil {
			if all.failed == 0 {
				r.res.problem("operation %d: %v", seq, err)
			}
			all.failed++
			continue
		}
		all.lat = append(all.lat, ms(t.total))
		all.rows += rep.count
		all.bytes += int64(rep.bytes)
		all.userBytes += int64(len(r.opAt(seq).batch))
	}
	elapsed := (time.Since(start) - (r.cal.spent - spentBefore)).Seconds()
	slow := r.cal.slowdown(firstSample)

	runtime.ReadMemStats(&msAfter)
	after, err := scraper.scrape()
	if err != nil {
		r.res.problem("scraping /metrics: %v", err)
	}

	ops := len(all.lat)
	r.res.attempted = ops + all.failed
	r.res.failed = all.failed
	if ops == 0 {
		r.res.attempted = max(r.res.attempted, 1)
		r.res.problem("no operation succeeded in the window")
		return
	}
	sort.Float64s(all.lat)
	v := r.res.values
	rawOps, rawP50, rawP90 := float64(ops)/elapsed, quantile(all.lat, 0.50), quantile(all.lat, 0.90)
	v["ops_per_s"] = rawOps * slow
	v["op_p50_ms"] = rawP50 / slow
	v["op_p90_ms"] = rawP90 / slow
	v["op.p95_ms"] = quantile(all.lat, 0.95)
	v["host.slowdown"] = slow
	r.logf("window: %.2f s, %d operations (%d failed), %d beyond p90, %.0f rows and %.0f bytes per operation",
		elapsed, ops, all.failed, ops-ops*90/100-1, float64(all.rows)/float64(ops), float64(all.bytes)/float64(ops))
	r.logf("as measured: %.4f operations/s, p50 %.4f ms, p90 %.4f ms; box slowdown %.4f (median of %d samples)",
		rawOps, rawP50, rawP90, slow, len(r.cal.samples)-firstSample)

	delta := func(name string) float64 { return after[name] - before[name] }
	perOp := func(x float64) float64 { return x / float64(ops) }
	perRow := func(x float64) float64 {
		if all.rows == 0 {
			return 0
		}
		return x / float64(all.rows)
	}
	hits, misses := delta("stark_cache_hits_total"), delta("stark_cache_misses_total")
	if hits+misses > 0 {
		v["server.cache_hit_ratio"] = hits / (hits + misses)
	}
	v["server.cache_evictions"] = delta("stark_cache_evictions_total")
	v["server.admission_rejected"] = delta("stark_admission_rejected_full_total") + delta("stark_admission_timed_out_total")
	if v["server.admission_rejected"] != 0 {
		r.res.problem("admission control refused %.0f requests", v["server.admission_rejected"])
	}
	v["server.bytes_per_op"] = perOp(float64(all.bytes))
	v["engine.scanned_per_row"] = perRow(delta("stark_engine_elements_scanned_total"))
	v["engine.refined_per_row"] = perRow(delta("stark_engine_candidates_refined_total"))
	v["engine.tasks_per_op"] = perOp(delta("stark_engine_tasks_launched_total"))
	v["engine.kernel_batches_per_op"] = perOp(delta("stark_engine_kernel_batches_total"))
	if n := delta("stark_wal_fsync_duration_seconds_count"); n > 0 {
		v["wal.fsync_ms"] = delta("stark_wal_fsync_duration_seconds_sum") / n * 1000
		v["wal.fsyncs_per_op"] = perOp(delta("stark_wal_fsyncs_total"))
		v["wal.bytes_per_user_byte"] = delta("stark_wal_bytes_total") / float64(all.userBytes)
	}
	v["runtime.alloc_kb_per_op"] = perOp(float64(msAfter.TotalAlloc-msBefore.TotalAlloc)) / 1024
	v["runtime.gc_cycles"] = float64(msAfter.NumGC - msBefore.NumGC)
	v["runtime.gc_pause_ms"] = float64(msAfter.PauseTotalNs-msBefore.PauseTotalNs) / 1e6
}

// scrape reads /metrics into a map from series name, labels included
// as printed, to value.
func (c *client) scrape() (map[string]float64, error) {
	resp, err := c.http.Get(c.svc.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	series := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		series[name] = f
	}
	return series, sc.Err()
}

// checkRecovery is the durability check: a fresh service pointed at the
// run's directory, as after a crash (the old service never closed its
// log), must come back with every acknowledged batch.
func (r *runner) checkRecovery() error {
	d := r.w.datasets[0]
	acked := r.client.gen
	dir := r.svc.dir
	r.svc.dir = "" // the recovered service still needs the directory
	r.svc.close()
	r.svc = nil
	defer os.RemoveAll(dir)

	v := r.res.values
	v["server.checkpoint_bytes_per_row"] = float64(checkpointBytes(dir)) / float64(d.n)
	if len(r.ckptMS) > 0 {
		v["server.checkpoint_ms"] = median(r.ckptMS)
	}
	if r.cfg.trace {
		r.replayWAL(dir)
	}

	srv := server.NewService(stark.NewContext(2), server.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	start := time.Now()
	info, err := srv.EnableDurability(dir, 0)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	took := time.Since(start).Seconds()
	v["server.recover_s"] = took
	v["server.recover_batches"] = float64(info.Batches)
	got, ok := srv.DatasetInfo(d.name)
	switch {
	case !ok:
		r.res.problem("recovery: dataset %s is gone", d.name)
	case got.LiveGeneration != acked || got.Events != int64(d.n):
		r.res.problem("recovery: generation %d with %d records, acknowledged generation %d with %d",
			got.LiveGeneration, got.Events, acked, d.n)
	default:
		r.logf("recovery: generation %d and %d records back in %.3f s (%d checkpoints taken, %d batches replayed)",
			got.LiveGeneration, got.Events, took, len(r.ckptMS), info.Batches)
	}
	return nil
}

// checkpointBytes returns the size of the newest checkpoint's segment
// files in dir.
func checkpointBytes(dir string) int64 {
	manifests, _ := filepath.Glob(filepath.Join(dir, "manifest-*.ckpt"))
	if len(manifests) == 0 {
		return 0
	}
	sort.Strings(manifests)
	seq := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(manifests[len(manifests)-1]), "manifest-"), ".ckpt")
	files, _ := filepath.Glob(filepath.Join(dir, "ckpt-"+seq+"-*"))
	var total int64
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			total += st.Size()
		}
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile reads the q-quantile off an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(float64(len(sorted))*q), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
