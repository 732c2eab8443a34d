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
	"sync"
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
	TasksLaunched     atomic.Int64 // partition tasks scheduled
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
	return c.runJob(&c.rootRec, tasks, task)
}

// RunJobContext is RunJob with cooperative cancellation: once ctx is
// done, no further task is scheduled and the job returns ctx.Err().
// Tasks already running are not interrupted — like Spark, the engine
// cancels at stage-task granularity — so task bodies that loop over
// large partitions should consult ctx themselves if finer-grained
// abort matters.
func (c *Context) RunJobContext(ctx context.Context, tasks []int, task func(t int) error) error {
	return c.RunJobRecorder(ctx, &c.rootRec, tasks, task)
}

// RunJobRecorder is RunJobContext with explicit metric attribution:
// the scheduled tasks are charged to rec (nil selects the root
// recorder), so operators running on behalf of one query account its
// tasks to that query's recorder. A nil ctx runs to completion.
func (c *Context) RunJobRecorder(ctx context.Context, rec *Recorder, tasks []int, task func(t int) error) error {
	if rec == nil {
		rec = &c.rootRec
	}
	if ctx == nil {
		return c.runJob(rec, tasks, task)
	}
	err := c.runJob(rec, tasks, func(t int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return task(t)
	})
	// Prefer the context's own error so callers see a plain
	// context.Canceled/DeadlineExceeded rather than a task wrapper.
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// runJob executes task(i) for every i in parts, at most
// c.parallelism at a time, and returns the first error encountered.
// It is the engine's DAG-less equivalent of a Spark stage: every
// element of parts is one task, charged to rec.
func (c *Context) runJob(rec *Recorder, parts []int, task func(p int) error) error {
	if rec == nil {
		rec = &c.rootRec
	}
	if len(parts) == 0 {
		return nil
	}
	if len(parts) == 1 {
		// Fast path: run in the calling goroutine — with the same
		// panic recovery as the pooled path, so a 1-partition job
		// reports a panicking task as an error instead of killing the
		// process.
		rec.TasksLaunched(1)
		return runTask(parts[0], task)
	}
	// Fork-join with the caller as one of the workers: tasks are claimed
	// from a shared counter by the calling goroutine and by up to
	// parallelism-1 helpers, and the job is over when every task has
	// finished, not when every helper has (one that starts after the last
	// claim finds the counter spent and returns without touching task).
	// A helper the scheduler is slow to start therefore costs nothing but
	// the parallelism it would have added (the caller claims its share),
	// a job of short tasks is done before a second thread has woken up,
	// and the caller never parks while there is work it could do itself.
	// The job's wall time then depends far less on how quickly the OS
	// wakes an idle thread, which on a shared box varies by an order of
	// magnitude.
	var (
		next     atomic.Int64
		pending  sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	pending.Add(len(parts))
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(parts) {
				return
			}
			c.sem <- struct{}{}
			rec.TasksLaunched(1)
			err := runTask(parts[i], task)
			<-c.sem
			if err != nil {
				errOnce.Do(func() { firstErr = err })
			}
			pending.Done()
		}
	}
	for h := min(len(parts), c.parallelism) - 1; h > 0; h-- {
		go work()
	}
	work()
	pending.Wait()
	return firstErr
}

// runTask executes one task, converting a panic into an error — the
// engine's stand-in for Spark's task failure handling, applied
// uniformly whether the task runs inline or on the pool.
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
