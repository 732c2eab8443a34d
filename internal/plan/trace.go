package plan

// TraceNode is one node of an execution trace: what ran, how long it
// took, how many rows it produced, and the engine counters it charged.
// Traces are the runtime counterpart of the EXPLAIN tree — EXPLAIN
// describes the decisions, a trace describes one execution. The query
// service returns them for requests carrying "trace": true.
//
// Counters marshal as a JSON object with sorted keys (Go maps
// serialise deterministically), so traces are stable for golden tests.
type TraceNode struct {
	Op       string           `json:"op"`
	Detail   string           `json:"detail,omitempty"`
	WallNS   int64            `json:"wall_ns"`
	Rows     int64            `json:"rows"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Children []*TraceNode     `json:"children,omitempty"`
}

// Add appends a child and returns the receiver for chaining.
func (t *TraceNode) Add(child *TraceNode) *TraceNode {
	if child != nil {
		t.Children = append(t.Children, child)
	}
	return t
}

// TraceFromPlan converts an (executed) plan tree into trace form:
// operator, detail and actual row counts carry over; wall time and
// counters stay zero because fused execution does not time individual
// plan operators — the phase nodes above the grafted plan do.
func TraceFromPlan(n *Node) *TraceNode {
	if n == nil {
		return nil
	}
	t := &TraceNode{Op: n.Op, Detail: n.Detail}
	if n.ActRows >= 0 {
		t.Rows = n.ActRows
	}
	for _, c := range n.Children {
		t.Children = append(t.Children, TraceFromPlan(c))
	}
	return t
}

// Counter returns the named counter of this node (0 when absent).
// The DSL's root trace node carries the query-total counters; the
// phase children carry per-phase deltas — read totals off the root,
// not by summing the tree.
func (t *TraceNode) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	return t.Counters[name]
}
