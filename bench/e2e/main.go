// Command e2e is the repository's end-to-end benchmark of the STARK
// query service: it boots the handler cmd/starkd mounts inside this
// process behind a loopback TCP listener, drives one of four HTTP
// workloads as a closed loop, times every operation at the client and
// checks every reply. See bench/README.md for the workloads, the
// metrics and the rules the measurement follows.
//
//	go run ./bench/e2e -workload read_selective -seed 1
//	go run ./bench/e2e -workload join_filtered -seed 1 -trace 1
//	go run ./bench/e2e -selfcheck 5
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric names one reported number. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change
// counts as a regression; BENCHMARK.json repeats it (the smoke test
// holds the two together). The timing bounds are the widest the
// benchmark contract allows, because the reference box drifts by
// 10-30 % over minutes (bench/README.md, "Noise").
type metric struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists what a caller of the service sees.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"setup_heap_mb", "MB", "lower", 0.05},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
}

// benchmarked lists the workloads BENCHMARK.json hands to the driver.
// The driver's 4 + 22 x workloads runs share 57 minutes: three
// workloads leave a 30 s window each, four would leave 20 s, and the
// 15 s windows of four were refused as too noisy. join_filtered stays
// runnable by hand and in the smoke test and -selfcheck.
var benchmarked = []string{"ingest_then_query", "read_scan", "read_selective"}

// perLayer lists the single-layer numbers of the traced run; the
// prefix is the module the number belongs to. A layer a workload does
// not pass through reports 0.
var perLayer = []metric{
	{"server.handler_ms", "ms", "lower", 0},
	{"server.wire_ms", "ms", "lower", 0},
	{"server.self_ms", "ms", "lower", 0},
	{"server.cache_hit_ratio", "ratio", "higher", 0},
	{"server.cache_evictions", "count", "lower", 0},
	{"server.admission_rejected", "count", "lower", 0},
	{"server.bytes_per_op", "B", "lower", 0},
	{"server.checkpoint_ms", "ms", "lower", 0},
	{"server.checkpoint_bytes_per_row", "B", "lower", 0},
	{"server.recover_s", "s", "lower", 0},
	{"server.recover_batches", "count", "lower", 0},
	{"stark.plan_ms", "ms", "lower", 0},
	{"stark.stream_ms", "ms", "lower", 0},
	{"stark.join_ms", "ms", "lower", 0},
	{"stark.fingerprint_us", "us", "lower", 0},
	{"plan.filter_us", "us", "lower", 0},
	{"plan.join_regret", "ratio", "lower", 0},
	{"engine.scanned_per_row", "ratio", "lower", 0},
	{"engine.refined_per_row", "ratio", "lower", 0},
	{"engine.tasks_per_op", "count", "lower", 0},
	{"engine.kernel_batches_per_op", "count", "lower", 0},
	{"core.scan_ns_per_row", "ns", "lower", 0},
	{"core.join_pairs_ms", "ms", "lower", 0},
	{"core.join_broadcast_ms", "ms", "lower", 0},
	{"core.join_copartition_ms", "ms", "lower", 0},
	{"index.build_ms", "ms", "lower", 0},
	{"index.probe_us", "us", "lower", 0},
	{"colstore.build_ms", "ms", "lower", 0},
	{"colstore.filter_ns_per_row", "ns", "lower", 0},
	{"attr.build_ms", "ms", "lower", 0},
	{"attr.probe_us", "us", "lower", 0},
	{"geom.parse_wkt_ns", "ns", "lower", 0},
	{"geom.intersects_ns", "ns", "lower", 0},
	{"stats.sweep_ms", "ms", "lower", 0},
	{"partition.build_ms", "ms", "lower", 0},
	{"live.apply_ms", "ms", "lower", 0},
	{"live.probe_us", "us", "lower", 0},
	{"op.ingest_ms", "ms", "lower", 0},
	{"op.query_ms", "ms", "lower", 0},
	{"op.p95_ms", "ms", "lower", 0},
	{"wal.append_ms", "ms", "lower", 0},
	{"wal.fsync_ms", "ms", "lower", 0},
	{"wal.fsyncs_per_op", "count", "lower", 0},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0},
	{"wal.replay_ms_per_batch", "ms", "lower", 0},
	{"runtime.alloc_kb_per_op", "kB", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"setup.register_s", "s", "lower", 0},
	{"setup.warmup_s", "s", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"host.slowdown", "ratio", "lower", 0},
}

// reading is one metric as the result line carries it.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

// report prints every metric of set by name with its unit, then the
// result line. Metrics the run did not produce read 0.
func report(out io.Writer, res *result, set []metric) error {
	line := resultLine{
		Correct: res.correct(), Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]reading, len(set)),
	}
	for _, m := range set {
		v := res.values[m.name]
		fmt.Fprintf(out, "%-32s %14.4f %s\n", m.name, v, m.unit)
		line.Metrics[m.name] = reading{Value: v, Unit: m.unit}
	}
	for _, p := range res.problems {
		fmt.Fprintln(out, "INCORRECT:", p)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() {
	var cfg config
	var trace, selfcheck int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the operation pool (datasets have fixed seeds)")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced pass and the layer replays and reports the per-layer metrics")
	flag.IntVar(&selfcheck, "selfcheck", 0, "k > 0: run every workload 2k times as two alternating sets and compare the set medians with the bounds")
	flag.StringVar(&cfg.dir, "dir", "", "directory for WAL data and span files (default: a fresh directory under the OS temp dir)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "e2e: unexpected arguments:", flag.Args())
		os.Exit(2)
	}
	if selfcheck > 0 {
		ok, err := runSelfcheck(os.Stdout, selfcheck, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "e2e: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg.trace = trace != 0
	cfg.log = os.Stdout
	// nproc is 2 on the reference box; pinning keeps a bigger machine
	// from measuring a different program.
	runtime.GOMAXPROCS(2)

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	set := endToEnd
	if cfg.trace {
		set = perLayer
	}
	if err := report(os.Stdout, res, set); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}
