package plan

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"stark/internal/attr"
	"stark/internal/geom"
)

// Node is one operator of an EXPLAIN tree: the logical operation, the
// planner's cost/cardinality estimates, the decisions taken, and —
// after execution — actual figures harvested from the engine metrics.
// Nodes marshal to JSON for the server's /api/v1/explain endpoint.
type Node struct {
	// Op is the logical operator: Scan, Filter, Join, KNN, Cluster,
	// Partition, Index, Load, ...
	Op string `json:"op"`
	// Detail describes the operator's arguments (predicate, file,
	// mode).
	Detail string `json:"detail,omitempty"`
	// EstRows is the estimated output cardinality; -1 when unknown.
	EstRows float64 `json:"estRows"`
	// EstCost is the estimated execution cost in the planner's
	// abstract units; 0 when not costed.
	EstCost float64 `json:"estCost,omitempty"`
	// ActRows is the actual output cardinality; -1 until executed.
	ActRows int64 `json:"actRows"`
	// Props lists decision annotations (chosen index mode, pruned
	// partitions, predicate order, actual metrics).
	Props []string `json:"props,omitempty"`
	// Children are the operator inputs.
	Children []*Node `json:"children,omitempty"`
	// Actual, when set, renders the operator's execution counters; Clone
	// turns it into an "actual:" prop, so an operator that keeps running
	// after its node was built (a lazy join) reports what it has done by
	// the time the tree is displayed.
	Actual func() string `json:"-"`
}

// NewNode returns a node with unknown cardinalities.
func NewNode(op, detail string) *Node {
	return &Node{Op: op, Detail: detail, EstRows: -1, ActRows: -1}
}

// Prop appends a formatted decision annotation and returns the node.
func (n *Node) Prop(format string, args ...interface{}) *Node {
	n.Props = append(n.Props, fmt.Sprintf(format, args...))
	return n
}

// Add appends the non-nil children and returns the node.
func (n *Node) Add(children ...*Node) *Node {
	for _, c := range children {
		if c != nil {
			n.Children = append(n.Children, c)
		}
	}
	return n
}

// Clone deep-copies the tree, so post-execution annotations never
// mutate a shared plan, and renders every Actual into the copy.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.Props = append([]string(nil), n.Props...)
	if n.Actual != nil {
		c.Prop("actual: %s", n.Actual())
		c.Actual = nil
	}
	c.Children = make([]*Node, 0, len(n.Children))
	for _, ch := range n.Children {
		c.Children = append(c.Children, ch.Clone())
	}
	return &c
}

// Graft replaces the deepest Scan leaf of the tree with repl,
// returning the root — the hook the Piglet executor uses to splice a
// script-level lineage (LOAD, JOIN, KNN results) under the plan the
// DSL compiled for the in-memory stage it executes.
func Graft(root, repl *Node) *Node {
	if root == nil {
		return repl
	}
	if root.Op == "Scan" && len(root.Children) == 0 {
		return repl
	}
	for i, c := range root.Children {
		root.Children[i] = Graft(c, repl)
	}
	return root
}

// Walk visits the tree depth-first, parents before children.
func (n *Node) Walk(fn func(*Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Render returns the indented EXPLAIN text of the tree: one line per
// operator with its estimates and actuals, followed by one "· prop"
// line per decision annotation.
func (n *Node) Render() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	b.WriteString(indent)
	b.WriteString(n.Op)
	if n.Detail != "" {
		fmt.Fprintf(b, "[%s]", n.Detail)
	}
	if n.EstRows >= 0 {
		fmt.Fprintf(b, " est_rows=%s", trimFloat(n.EstRows))
	}
	if n.EstCost > 0 {
		fmt.Fprintf(b, " cost=%s", trimFloat(n.EstCost))
	}
	if n.ActRows >= 0 {
		fmt.Fprintf(b, " act_rows=%d", n.ActRows)
	}
	b.WriteString("\n")
	for _, p := range n.Props {
		fmt.Fprintf(b, "%s  · %s\n", indent, p)
	}
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}

// trimFloat formats a float with one decimal, dropping a trailing
// ".0" so whole numbers stay compact and golden files stay readable.
func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 1, 64)
	return strings.TrimSuffix(s, ".0")
}

// envString renders an envelope compactly for plan details.
func envString(e geom.Envelope) string {
	if e.IsEmpty() {
		return "empty"
	}
	return fmt.Sprintf("[%s %s %s %s]",
		trimFloat(e.MinX), trimFloat(e.MinY), trimFloat(e.MaxX), trimFloat(e.MaxY))
}

// FilterNode builds the EXPLAIN node of a planned conjunctive filter:
// the decision annotations of d over the child input node.
func FilterNode(d FilterDecision, preds []Pred, alreadyIndexed bool, child *Node) *Node {
	details := make([]string, len(d.Order))
	for i, pi := range d.Order {
		details[i] = preds[pi].String()
	}
	n := NewNode("Filter", strings.Join(details, " AND "))
	n.EstRows = d.EstRows
	n.EstCost = d.ScanCost
	if d.UseIndex {
		n.EstCost = d.IndexCost
	}
	if d.UseColumnar {
		n.EstCost = d.ColumnarCost
	}
	switch {
	case d.UseColumnar:
		n.Prop("access=columnar kernels (scan_cost=%s columnar_cost=%s)",
			trimFloat(d.ScanCost), trimFloat(d.ColumnarCost))
	case alreadyIndexed:
		n.Prop("index=probe (existing partition trees)")
	case d.UseIndex:
		n.Prop("index=live(%d) auto-selected (scan_cost=%s index_cost=%s)",
			d.IndexOrder, trimFloat(d.ScanCost), trimFloat(d.IndexCost))
	default:
		n.Prop("index=none scan chosen (scan_cost=%s index_cost=%s)",
			trimFloat(d.ScanCost), trimFloat(d.IndexCost))
	}
	n.Prop("pruned %d/%d partitions (stats MBR/time), input_rows=%d",
		d.Pruned, d.Pruned+len(d.Visit), d.InputRows)
	if len(d.Order) > 1 {
		order := make([]string, len(d.Order))
		for i, pi := range d.Order {
			order[i] = fmt.Sprintf("%d(sel=%.4f)", pi, d.Sel[pi])
		}
		n.Prop("pred_order=[%s]", strings.Join(order, " "))
	} else if len(d.Sel) == 1 {
		n.Prop("selectivity=%.4f", d.Sel[0])
	}
	return n.Add(child)
}

// AttrProp renders the attribute access-path annotation of a planned
// filter, or "" when the filter has no attribute predicates.
func (d FilterDecision) AttrProp() string {
	switch d.AttrStrategy {
	case AttrInline:
		return fmt.Sprintf("attr=inline eval on survivors (attr_index_cost=%s)",
			costString(d.AttrIndexCost))
	case AttrIndexProbe:
		return fmt.Sprintf("attr=index postings probe (scan_cost=%s attr_index_cost=%s)",
			trimFloat(d.ScanCost), trimFloat(d.AttrIndexCost))
	case AttrIntersect:
		return fmt.Sprintf("attr=postings AND kernel survivors (columnar_cost=%s intersect_cost=%s)",
			costString(d.ColumnarCost), trimFloat(d.AttrIntersectCost))
	}
	return ""
}

// AttrNodes builds the EXPLAIN children of a planned filter's typed
// attribute predicates: AttrIndex[...] for predicates resolved
// through the postings sidecar (the probe driver, or every predicate
// under the intersection strategy), AttrScan[...] for those evaluated
// inline on survivors. The node detail is the predicate's canonical
// text form, so the nodes round-trip through Canonical/ParseCanonical
// and contribute to plan fingerprints.
func AttrNodes(d FilterDecision, preds []attr.Pred) []*Node {
	nodes := make([]*Node, len(preds))
	for i, p := range preds {
		op := "AttrScan"
		if d.AttrStrategy == AttrIntersect ||
			(d.AttrStrategy == AttrIndexProbe && i == d.AttrFirst) {
			op = "AttrIndex"
		}
		n := NewNode(op, p.String())
		if i < len(d.AttrSel) {
			n.Prop("est_sel=%.4f", d.AttrSel[i])
		}
		nodes[i] = n
	}
	return nodes
}

// NaiveAttrNodes builds unplanned AttrScan children (planner off):
// caller order, no estimates.
func NaiveAttrNodes(preds []attr.Pred) []*Node {
	nodes := make([]*Node, len(preds))
	for i, p := range preds {
		nodes[i] = NewNode("AttrScan", p.String())
	}
	return nodes
}

// LiveScanNode builds the EXPLAIN leaf of a mutable-dataset snapshot:
// the dataset name pinned to the generation the snapshot reads, plus
// the live-index access path. Because the detail carries the
// generation, every mutation batch changes the canonical plan — and
// with it the plan fingerprint — so result-cache entries for older
// generations can never be returned for newer data.
func LiveScanNode(name string, gen uint64, partitions, order int, rows int64) *Node {
	n := NewNode("LiveScan", fmt.Sprintf("%s gen=%d", name, gen))
	n.EstRows = float64(rows)
	n.Prop("access=concurrent R-link tree (order=%d), snapshot-pinned", order)
	n.Prop("partitions=%d live_rows=%d", partitions, rows)
	return n
}

// ColumnarScanNode builds the EXPLAIN leaf of a columnar-sidecar
// scan: batched envelope/interval kernels over SoA columns, with the
// actual kernel counters attached after execution.
func ColumnarScanNode(partitions int, rows int64, child *Node) *Node {
	n := NewNode("ColumnarScan", fmt.Sprintf("partitions=%d rows=%d", partitions, rows))
	n.EstRows = float64(rows)
	n.Prop("layout=SoA envelope/interval columns, hilbert_sorted=true")
	return n.Add(child)
}

// NaiveFilterNode builds the EXPLAIN node of an unplanned filter
// (planner off): predicates in caller order, no cost estimates.
func NaiveFilterNode(preds []Pred, child *Node) *Node {
	details := make([]string, len(preds))
	for i, p := range preds {
		details[i] = p.String()
	}
	n := NewNode("Filter", strings.Join(details, " AND "))
	n.Prop("optimizer=off (caller order, partitioner-extent pruning only)")
	return n.Add(child)
}

// JoinNode builds the EXPLAIN node of a planned join. The node detail
// leads with the chosen strategy, so the rendered line reads
// Join[broadcast ...], Join[copartition ...] or Join[pairs ...].
func JoinNode(d JoinDecision, pred Pred, swapped bool, left, right *Node) *Node {
	// Custom marks a caller-supplied predicate closure the planner
	// cannot name (the DSL's Join); the strategy alone is the detail.
	detail := d.Strategy.String()
	if pred.Kind != Custom {
		detail += " " + pred.String()
	}
	n := NewNode("Join", detail)
	n.EstRows = d.EstRows
	if d.LeftRows > 0 || d.RightRows > 0 {
		side := "right"
		if !d.BuildRight {
			side = "left"
		}
		n.Prop("build_side=%s (left_rows=%d right_rows=%d, build the smaller input)",
			side, d.LeftRows, d.RightRows)
	} else {
		// No cost-model decision ran (forced strategy): the executor
		// built the right input as given.
		n.Prop("strategy forced (no cost-model decision, right input built as given)")
	}
	if d.TotalPairs > 0 {
		n.Prop("est_pairs=%d of %d enumerable, est_tasks=%d (budget=%d rows)",
			d.EstPairs, d.TotalPairs, d.EstTasks, d.Budget)
		n.Prop("costs: pairs=%s broadcast=%s copartition=%s",
			costString(d.PairsCost), costString(d.BroadcastCost), costString(d.CoPartCost))
	}
	if swapped {
		n.Prop("inputs swapped to put the build side on the right")
	}
	return n.Add(left, right)
}

// costString renders a strategy cost, naming inapplicable ones.
func costString(c float64) string {
	if math.IsInf(c, 1) {
		return "n/a"
	}
	return trimFloat(c)
}
