package engine

// Recorder attributes engine counters to one job (typically one
// query) while still rolling every increment up into the owning
// context's global totals. A context's root recorder writes only the
// globals; NewJobRecorder returns a recorder with a private job-local
// Metrics in front, so concurrent queries on a shared context each
// read exact per-query actuals from their own recorder while
// dashboards keep reading the context totals. Every write is a pair
// of atomic adds — recorders are safe for concurrent use.
type Recorder struct {
	job  *Metrics // per-job counters; nil on the root recorder
	glob *Metrics // the context totals; never nil
}

// Root reports whether this is the context's root recorder (no
// job-local counters).
func (r *Recorder) Root() bool { return r.job == nil }

// Snapshot returns the job-scoped counters; on the root recorder it
// returns the context totals (the only counters the root has).
func (r *Recorder) Snapshot() MetricsSnapshot {
	if r.job != nil {
		return r.job.Snapshot()
	}
	return r.glob.Snapshot()
}

// TasksLaunched charges n scheduled tasks (partitions, or morsels of
// them in the parallel streams).
func (r *Recorder) TasksLaunched(n int64) {
	if r.job != nil {
		r.job.TasksLaunched.Add(n)
	}
	r.glob.TasksLaunched.Add(n)
}

// TasksSkipped charges n partitions pruned before scheduling.
func (r *Recorder) TasksSkipped(n int64) {
	if r.job != nil {
		r.job.TasksSkipped.Add(n)
	}
	r.glob.TasksSkipped.Add(n)
}

// ElementsScanned charges n records passed through predicate
// evaluation.
func (r *Recorder) ElementsScanned(n int64) {
	if r.job != nil {
		r.job.ElementsScanned.Add(n)
	}
	r.glob.ElementsScanned.Add(n)
}

// ShuffledRecords charges n records moved by PartitionBy.
func (r *Recorder) ShuffledRecords(n int64) {
	if r.job != nil {
		r.job.ShuffledRecords.Add(n)
	}
	r.glob.ShuffledRecords.Add(n)
}

// IndexProbes charges n R-tree queries.
func (r *Recorder) IndexProbes(n int64) {
	if r.job != nil {
		r.job.IndexProbes.Add(n)
	}
	r.glob.IndexProbes.Add(n)
}

// CandidatesRefined charges n index candidates checked exactly.
func (r *Recorder) CandidatesRefined(n int64) {
	if r.job != nil {
		r.job.CandidatesRefined.Add(n)
	}
	r.glob.CandidatesRefined.Add(n)
}

// StatsRecords charges n records summarised by statistics passes.
func (r *Recorder) StatsRecords(n int64) {
	if r.job != nil {
		r.job.StatsRecords.Add(n)
	}
	r.glob.StatsRecords.Add(n)
}

// LiveBatches charges n mutation batches applied to live datasets.
func (r *Recorder) LiveBatches(n int64) {
	if r.job != nil {
		r.job.LiveBatches.Add(n)
	}
	r.glob.LiveBatches.Add(n)
}

// LiveMutations charges n individual live mutation operations.
func (r *Recorder) LiveMutations(n int64) {
	if r.job != nil {
		r.job.LiveMutations.Add(n)
	}
	r.glob.LiveMutations.Add(n)
}

// KernelBatches charges n column chunks swept by columnar kernels.
func (r *Recorder) KernelBatches(n int64) {
	if r.job != nil {
		r.job.KernelBatches.Add(n)
	}
	r.glob.KernelBatches.Add(n)
}

// KernelSurvivors charges n rows surviving coarse kernels into exact
// refinement.
func (r *Recorder) KernelSurvivors(n int64) {
	if r.job != nil {
		r.job.KernelSurvivors.Add(n)
	}
	r.glob.KernelSurvivors.Add(n)
}

// Add returns the field-wise sum of two snapshots.
func (s MetricsSnapshot) Add(o MetricsSnapshot) MetricsSnapshot {
	return MetricsSnapshot{
		TasksLaunched:     s.TasksLaunched + o.TasksLaunched,
		TasksSkipped:      s.TasksSkipped + o.TasksSkipped,
		ElementsScanned:   s.ElementsScanned + o.ElementsScanned,
		ShuffledRecords:   s.ShuffledRecords + o.ShuffledRecords,
		IndexProbes:       s.IndexProbes + o.IndexProbes,
		CandidatesRefined: s.CandidatesRefined + o.CandidatesRefined,
		StatsRecords:      s.StatsRecords + o.StatsRecords,
		LiveBatches:       s.LiveBatches + o.LiveBatches,
		LiveMutations:     s.LiveMutations + o.LiveMutations,
		KernelBatches:     s.KernelBatches + o.KernelBatches,
		KernelSurvivors:   s.KernelSurvivors + o.KernelSurvivors,
	}
}

// Sub returns the field-wise difference s - o; the canonical way to
// turn two snapshots of the same counters into a delta.
func (s MetricsSnapshot) Sub(o MetricsSnapshot) MetricsSnapshot {
	return MetricsSnapshot{
		TasksLaunched:     s.TasksLaunched - o.TasksLaunched,
		TasksSkipped:      s.TasksSkipped - o.TasksSkipped,
		ElementsScanned:   s.ElementsScanned - o.ElementsScanned,
		ShuffledRecords:   s.ShuffledRecords - o.ShuffledRecords,
		IndexProbes:       s.IndexProbes - o.IndexProbes,
		CandidatesRefined: s.CandidatesRefined - o.CandidatesRefined,
		StatsRecords:      s.StatsRecords - o.StatsRecords,
		LiveBatches:       s.LiveBatches - o.LiveBatches,
		LiveMutations:     s.LiveMutations - o.LiveMutations,
		KernelBatches:     s.KernelBatches - o.KernelBatches,
		KernelSurvivors:   s.KernelSurvivors - o.KernelSurvivors,
	}
}

// CounterMap returns the snapshot's non-zero counters keyed by their
// canonical snake_case names — the form execution traces and the
// Prometheus exporter use. A zero snapshot returns nil.
func (s MetricsSnapshot) CounterMap() map[string]int64 {
	pairs := [...]struct {
		name string
		v    int64
	}{
		{"tasks_launched", s.TasksLaunched},
		{"tasks_skipped", s.TasksSkipped},
		{"elements_scanned", s.ElementsScanned},
		{"shuffled_records", s.ShuffledRecords},
		{"index_probes", s.IndexProbes},
		{"candidates_refined", s.CandidatesRefined},
		{"stats_records", s.StatsRecords},
		{"live_batches", s.LiveBatches},
		{"live_mutations", s.LiveMutations},
		{"kernel_batches", s.KernelBatches},
		{"kernel_survivors", s.KernelSurvivors},
	}
	var m map[string]int64
	for _, p := range pairs {
		if p.v != 0 {
			if m == nil {
				m = make(map[string]int64, len(pairs))
			}
			m[p.name] = p.v
		}
	}
	return m
}
