// Package engine implements the distributed-dataflow substrate STARK
// runs on. It is a from-scratch, in-process stand-in for the Apache
// Spark core the paper builds on: immutable, lazily evaluated,
// partitioned datasets with lineage; narrow transformations (map,
// filter, flatMap, mapPartitions) that run partition-local; a wide
// PartitionBy transformation that shuffles records between partitions
// according to a Partitioner; and a task scheduler that executes one
// task per partition on a pool of simulated executors (goroutines).
//
// The engine is deliberately faithful to the parts of Spark that the
// STARK evaluation exercises: partition-parallel execution, shuffle
// cost when repartitioning, the Partitioner extension point that
// spatial partitioners plug into, and the ability to skip (prune)
// partitions entirely when their bounds cannot contribute to a query.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
)

// Context coordinates job execution. It plays the role of the
// SparkContext: it owns the executor pool and collects metrics.
type Context struct {
	parallelism int
	sem         chan struct{}
	metrics     Metrics
	// rootRec is the context's root recorder: it writes straight into
	// metrics with no job-local attribution. Jobs that need per-query
	// actuals run under a NewJobRecorder instead.
	rootRec Recorder
}

// Metrics aggregates counters across all jobs run on a context. All
// fields are updated atomically and may be read while jobs run.
type Metrics struct {
	TasksLaunched     atomic.Int64 // tasks scheduled: a partition, or a morsel of one in a parallel stream
	TasksSkipped      atomic.Int64 // partitions pruned before scheduling
	ElementsScanned   atomic.Int64 // records passed through predicate evaluation
	ShuffledRecords   atomic.Int64 // records moved by PartitionBy
	IndexProbes       atomic.Int64 // R-tree queries issued
	CandidatesRefined atomic.Int64 // index candidates checked exactly
	StatsRecords      atomic.Int64 // records summarised by planner statistics passes
	LiveBatches       atomic.Int64 // mutation batches applied to live datasets
	LiveMutations     atomic.Int64 // individual insert/upsert/delete operations applied
	KernelBatches     atomic.Int64 // column chunks swept by columnar scan kernels
	KernelSurvivors   atomic.Int64 // rows surviving coarse kernels into exact refinement
}

// Snapshot returns a plain-struct copy of the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		TasksLaunched:     m.TasksLaunched.Load(),
		TasksSkipped:      m.TasksSkipped.Load(),
		ElementsScanned:   m.ElementsScanned.Load(),
		ShuffledRecords:   m.ShuffledRecords.Load(),
		IndexProbes:       m.IndexProbes.Load(),
		CandidatesRefined: m.CandidatesRefined.Load(),
		StatsRecords:      m.StatsRecords.Load(),
		LiveBatches:       m.LiveBatches.Load(),
		LiveMutations:     m.LiveMutations.Load(),
		KernelBatches:     m.KernelBatches.Load(),
		KernelSurvivors:   m.KernelSurvivors.Load(),
	}
}

// Reset zeroes all counters.
func (m *Metrics) Reset() {
	m.TasksLaunched.Store(0)
	m.TasksSkipped.Store(0)
	m.ElementsScanned.Store(0)
	m.ShuffledRecords.Store(0)
	m.IndexProbes.Store(0)
	m.CandidatesRefined.Store(0)
	m.StatsRecords.Store(0)
	m.LiveBatches.Store(0)
	m.LiveMutations.Store(0)
	m.KernelBatches.Store(0)
	m.KernelSurvivors.Store(0)
}

// MetricsSnapshot is a point-in-time copy of Metrics.
type MetricsSnapshot struct {
	TasksLaunched     int64
	TasksSkipped      int64
	ElementsScanned   int64
	ShuffledRecords   int64
	IndexProbes       int64
	CandidatesRefined int64
	StatsRecords      int64
	LiveBatches       int64
	LiveMutations     int64
	KernelBatches     int64
	KernelSurvivors   int64
}

// NewContext returns a context with the given executor parallelism;
// parallelism <= 0 selects runtime.GOMAXPROCS(0).
func NewContext(parallelism int) *Context {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	c := &Context{
		parallelism: parallelism,
		sem:         make(chan struct{}, parallelism),
	}
	c.rootRec = Recorder{glob: &c.metrics}
	return c
}

// Parallelism returns the number of simulated executors.
func (c *Context) Parallelism() int { return c.parallelism }

// Metrics returns the live metrics of the context.
func (c *Context) Metrics() *Metrics { return &c.metrics }

// Recorder returns the context's root recorder: counter writes land
// only in the context totals, with no per-job attribution.
func (c *Context) Recorder() *Recorder { return &c.rootRec }

// NewJobRecorder returns a recorder with fresh job-local counters in
// front of the context totals. Everything a job charges through it is
// visible both in the recorder's Snapshot (this job only) and in the
// context's Metrics (all jobs), so per-query actuals and global
// dashboards coexist without double bookkeeping at the call sites.
func (c *Context) NewJobRecorder() *Recorder {
	return &Recorder{job: &Metrics{}, glob: &c.metrics}
}

// RunJob executes task(i) for every i in tasks, at most Parallelism
// at a time, and returns the first error. It is the public entry
// point operators use to schedule custom task sets (e.g. partition
// pairs of a spatial join).
func (c *Context) RunJob(tasks []int, task func(t int) error) error {
	return c.RunJobRecorder(nil, nil, tasks, task)
}

// RunJobRecorder is RunJob with cooperative cancellation and explicit
// metric attribution: the engine's DAG-less equivalent of a Spark stage.
// It returns the error of the first task in order that failed; a
// failure stops the scheduling. Once ctx is done no further task is
// scheduled and the job returns ctx.Err(); tasks already running are
// not interrupted — like Spark, the engine cancels at stage-task
// granularity — so task bodies that loop over large partitions should
// consult ctx themselves if finer-grained abort matters. A nil ctx runs
// to completion. The tasks are charged to rec (nil selects the root
// recorder), so operators running on behalf of one query account its
// tasks to that query's recorder.
func (c *Context) RunJobRecorder(ctx context.Context, rec *Recorder, tasks []int, task func(t int) error) error {
	if rec == nil {
		rec = &c.rootRec
	}
	// A job is an ordered stream nobody listens to: its results are
	// empty, so every task may run ahead of the first one's delivery.
	return streamOrdered(ctx, c, rec, len(tasks), len(tasks), func(i int) (struct{}, error) {
		return struct{}{}, task(tasks[i])
	}, func(struct{}) bool { return true }, func(struct{}) {})
}

// runTask executes one task, converting a panic into an error — the
// engine's stand-in for Spark's task failure handling.
func runTask(p int, task func(p int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: task %d panicked: %v", p, r)
		}
	}()
	return task(p)
}

// AllPartitions returns [0, 1, ..., n-1].
func AllPartitions(n int) []int {
	parts := make([]int, n)
	for i := range parts {
		parts[i] = i
	}
	return parts
}
