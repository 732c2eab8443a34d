package engine

import "sync/atomic"

// Counter names one engine counter: the task metrics every layer above
// the engine reads (traces, EXPLAIN actuals, /metrics). The counters
// are declared here once; readers iterate 0 ≤ c < NumCounters.
type Counter int

const (
	TasksLaunched     Counter = iota // tasks scheduled: a partition, or a morsel of one in a parallel stream
	TasksSkipped                     // partitions pruned before scheduling
	ElementsScanned                  // records passed through predicate evaluation
	ShuffledRecords                  // records moved by PartitionBy
	IndexProbes                      // R-tree and postings queries issued
	CandidatesRefined                // index candidates checked exactly
	StatsRecords                     // records summarised by planner statistics passes
	LiveBatches                      // mutation batches applied to live datasets
	LiveMutations                    // individual insert/upsert/delete operations applied
	KernelBatches                    // column chunks swept by columnar scan kernels
	KernelSurvivors                  // rows surviving coarse kernels into exact refinement
	NumCounters                      // the number of counters; not a counter
)

// counterNames holds each counter's canonical snake_case name, the
// form traces, EXPLAIN and the Prometheus exporter print.
var counterNames = [NumCounters]string{
	TasksLaunched:     "tasks_launched",
	TasksSkipped:      "tasks_skipped",
	ElementsScanned:   "elements_scanned",
	ShuffledRecords:   "shuffled_records",
	IndexProbes:       "index_probes",
	CandidatesRefined: "candidates_refined",
	StatsRecords:      "stats_records",
	LiveBatches:       "live_batches",
	LiveMutations:     "live_mutations",
	KernelBatches:     "kernel_batches",
	KernelSurvivors:   "kernel_survivors",
}

// String returns the counter's snake_case name.
func (c Counter) String() string { return counterNames[c] }

// metrics holds one set of counters, updated atomically so that it may
// be read while jobs run.
type metrics [NumCounters]atomic.Int64

func (m *metrics) snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	for c := range m {
		s[c] = m[c].Load()
	}
	return s
}

// MetricsSnapshot is a point-in-time copy of a set of counters,
// indexed by Counter.
type MetricsSnapshot [NumCounters]int64

// Add returns the counter-wise sum of two snapshots.
func (s MetricsSnapshot) Add(o MetricsSnapshot) MetricsSnapshot {
	for c := range s {
		s[c] += o[c]
	}
	return s
}

// Sub returns the counter-wise difference s - o; the canonical way to
// turn two snapshots of the same counters into a delta.
func (s MetricsSnapshot) Sub(o MetricsSnapshot) MetricsSnapshot {
	for c := range s {
		s[c] -= o[c]
	}
	return s
}

// CounterMap returns the snapshot's non-zero counters keyed by their
// snake_case names — the form execution traces use. A zero snapshot
// returns nil.
func (s MetricsSnapshot) CounterMap() map[string]int64 {
	var m map[string]int64
	for c, v := range s {
		if v != 0 {
			if m == nil {
				m = make(map[string]int64, NumCounters)
			}
			m[counterNames[c]] = v
		}
	}
	return m
}

// Recorder attributes engine counters to one job (typically one
// query) while still rolling every increment up into the owning
// context's totals. A context's root recorder writes only the totals;
// NewJobRecorder returns a recorder with private job-local counters in
// front, so concurrent queries on a shared context each read exact
// per-query actuals from their own recorder while dashboards keep
// reading the context totals. Every charge is a pair of atomic adds —
// recorders are safe for concurrent use.
type Recorder struct {
	job  *metrics // per-job counters; nil on the root recorder
	glob *metrics // the context totals; never nil
}

// Snapshot returns the job-scoped counters; on the root recorder it
// returns the context totals (the only counters the root has).
func (r *Recorder) Snapshot() MetricsSnapshot {
	if r.job != nil {
		return r.job.snapshot()
	}
	return r.glob.snapshot()
}

// Add charges n to counter c.
func (r *Recorder) Add(c Counter, n int64) {
	if r.job != nil {
		r.job[c].Add(n)
	}
	r.glob[c].Add(n)
}
