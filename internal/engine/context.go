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
)

// Context coordinates job execution. It plays the role of the
// SparkContext: it owns the executor pool and collects metrics.
type Context struct {
	parallelism int
	sem         chan struct{}
	metrics     metrics
	// rootRec is the context's root recorder: it writes straight into
	// metrics with no job-local attribution. Jobs that need per-query
	// actuals run under a NewJobRecorder instead.
	rootRec Recorder
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

// Recorder returns the context's root recorder: counter writes land
// only in the context totals, with no per-job attribution, and its
// Snapshot reads those totals.
func (c *Context) Recorder() *Recorder { return &c.rootRec }

// NewJobRecorder returns a recorder with fresh job-local counters in
// front of the context totals. Everything a job charges through it is
// visible both in the recorder's Snapshot (this job only) and in the
// context totals (all jobs), so per-query actuals and global
// dashboards coexist without double bookkeeping at the call sites.
func (c *Context) NewJobRecorder() *Recorder {
	return &Recorder{job: &metrics{}, glob: &c.metrics}
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
