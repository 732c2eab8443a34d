package stark

// Execution tracing for the fluent DSL. Every action on a Dataset
// records one phase — wall time, rows produced, and the engine
// counters the phase charged to the dataset's per-job recorder — and
// resolving and compiling the chain (planning a join included) is
// recorded as a "plan" phase. Trace() assembles the phases (plus the
// executed plan tree) into a plan.TraceNode tree; the query service
// returns it for requests carrying "trace": true.
//
// Phase recording is always on: it is two snapshot reads of the job
// recorder and one slice append per action, so untraced queries pay
// nanoseconds and EXPLAIN output is unchanged.

import (
	"time"

	"stark/internal/engine"
	"stark/internal/plan"
)

// tracePhase is one recorded execution phase of a Dataset.
type tracePhase struct {
	Name     string
	WallNS   int64
	Rows     int64
	Counters engine.MetricsSnapshot
}

// phaseMark captures the start of a phase: the wall clock and the
// job-recorder counters before the work.
type phaseMark struct {
	start  time.Time
	before engine.MetricsSnapshot
}

// beginPhase marks the start of a phase against the job recorder.
func (d *Dataset[V]) beginPhase() phaseMark {
	return phaseMark{start: time.Now(), before: d.jobRecorder().Snapshot()}
}

// endPhase records the phase under name with the rows it produced.
func (d *Dataset[V]) endPhase(name string, m phaseMark, rows int64) {
	delta := d.jobRecorder().Snapshot().Sub(m.before)
	d.traceMu.Lock()
	d.phases = append(d.phases, tracePhase{
		Name:     name,
		WallNS:   time.Since(m.start).Nanoseconds(),
		Rows:     rows,
		Counters: delta,
	})
	d.traceMu.Unlock()
}

// Trace returns the execution trace of the actions run on this
// Dataset so far: a root "query" node carrying the total wall time,
// the rows of the last row-producing phase, and the query-total
// counters, with one child per recorded phase in execution order. The
// first executed phase additionally carries the compiled plan tree as
// trace children, so the operators the planner chose appear in the
// trace with their actual cardinalities. Returns a bare root when no
// action has run yet.
func (d *Dataset[V]) Trace() *plan.TraceNode {
	d.traceMu.Lock()
	phases := make([]tracePhase, len(d.phases))
	copy(phases, d.phases)
	d.traceMu.Unlock()

	root := &plan.TraceNode{Op: "query"}
	var total engine.MetricsSnapshot
	grafted := false
	for _, ph := range phases {
		total = total.Add(ph.Counters)
		root.WallNS += ph.WallNS
		node := &plan.TraceNode{
			Op:       ph.Name,
			WallNS:   ph.WallNS,
			Rows:     ph.Rows,
			Counters: ph.Counters.CounterMap(),
		}
		if !grafted && ph.Name != "plan" {
			// Graft the executed plan tree under the first execution
			// phase. compiled() has necessarily run by now (every
			// action compiles first), so d.comp is stable.
			if c, err := d.compiled(); err == nil && c.root != nil {
				node.Add(plan.TraceFromPlan(c.root))
			}
			grafted = true
		}
		root.Add(node)
		if ph.Rows > 0 || ph.Name != "plan" {
			root.Rows = ph.Rows
		}
	}
	root.Counters = total.CounterMap()
	return root
}
