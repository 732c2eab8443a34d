package stark

// This file wires the cost-based planner (internal/plan, fed by
// internal/stats) into the fluent DSL. Scan filters accumulate on the
// chain as pending predicates; the first record-enumerating action
// compiles them: statistics are collected in one streaming pass
// (cached per dataset), predicates are reordered most selective
// first, partitions are pruned from the collected per-partition MBRs
// and temporal extents, and a cost model picks one access path — the
// fused scan, a tree probe, the columnar kernels, a postings probe or
// the postings/kernel intersection. Compile only plans: every path is
// a lazy stream over the dataset's own partitions plus the list of
// partitions to visit, and nothing is scanned or probed until the
// action drives it. Explain renders the resulting plan — with
// estimated and, after execution, actual cardinalities — and
// Optimize(false) opts a chain out of all of it.

import (
	"fmt"
	"strings"
	"sync/atomic"

	"stark/internal/attr"
	"stark/internal/colstore"
	"stark/internal/core"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/index"
	"stark/internal/plan"
	"stark/internal/stats"
)

// DatasetStats is the planner's statistics bundle: record counts,
// per-partition MBRs and temporal extents, and the spatial grid
// histogram (see Dataset.Stats).
type DatasetStats = stats.Summary

// PartitionStats summarises one partition inside DatasetStats.
type PartitionStats = stats.PartitionStats

// PlanNode is one operator of an EXPLAIN tree (see Dataset.Explain
// and the server's /api/v1/explain endpoint).
type PlanNode = plan.Node

// compiled is the executable form of a resolved chain: the lazy engine
// dataset to drive, the partitions to visit (always set; actions run
// over exactly these), and the EXPLAIN tree describing the decisions
// taken.
type compiled[V any] struct {
	ds    *engine.Dataset[Tuple[V]]
	visit []int
	root  *plan.Node
	// attrActs holds the runtime counters of the compiled attribute
	// predicates, so Explain can attach per-node actual selectivities
	// after execution.
	attrActs []*attrActual
}

// attrActual counts one compiled attribute predicate's evaluations.
// probe marks the postings-probe driver, whose candidates are
// enumerated rather than tested.
type attrActual struct {
	detail string
	probe  bool
	tested atomic.Int64
	passed atomic.Int64
}

// compiled memoises the compilation of the resolved state, so
// repeated actions on one Dataset plan (and count pruned partitions)
// exactly once.
func (d *Dataset[V]) compiled() (compiled[V], error) {
	d.compileOnce.Do(func() {
		// Resolving is part of the phase: that is where a join is planned
		// (statistics of both inputs, strategy, visit list).
		rec := d.jobRecorder()
		m := d.beginPhase()
		st, err := d.resolve()
		if err != nil {
			d.compErr = err
			return
		}
		d.comp, d.compErr = compile(rec, st.withRecorder(rec))
		if d.compErr == nil {
			d.comp.ds = d.comp.ds.WithRecorder(rec)
		}
		d.endPhase("plan", m, 0)
	})
	return d.comp, d.compErr
}

// compile turns a resolved state into an executable plan: it plans
// once, picks one access path and returns its lazy stream with the
// partitions to visit. Planning metrics (pruned partitions) are
// charged to rec; the probes and scans charge it when an action runs
// them. The attribute access path is the planner's choice too:
//
//   - AttrInline: the spatial access path (fused scan, tree probe or
//     columnar kernels) runs as usual, with the compiled attribute
//     checks fused in as cheap typed compares;
//   - AttrIndexProbe: the most selective attribute predicate's
//     per-partition postings enumerate candidates, everything else
//     refines them;
//   - AttrIntersect: attribute postings bitsets are ANDed with the
//     columnar kernels' survivor bitset before exact refinement.
//
// Every compiled attribute predicate counts its evaluations, so
// Explain can attach actual selectivities to the AttrScan/AttrIndex
// nodes after execution.
func compile[V any](rec *engine.Recorder, st state[V]) (compiled[V], error) {
	if len(st.pending) == 0 {
		if st.enumerateViaIndex() {
			return compiled[V]{ds: st.idx.Flat(), visit: engine.AllPartitions(st.idx.NumPartitions()), root: st.base}, nil
		}
		return compiled[V]{ds: st.sds.Dataset(), visit: st.prunedVisit(rec), root: st.base}, nil
	}

	// Split the pendings: spatial predicates feed the planner's
	// spatio-temporal cost model, typed attribute predicates its
	// attribute access-path choice.
	var spatial []pendingPred
	var preds []plan.Pred
	var attrPreds []attr.Pred
	for _, p := range st.pending {
		if p.attr != nil {
			attrPreds = append(attrPreds, *p.attr)
		} else {
			spatial = append(spatial, p)
			preds = append(preds, p.info)
		}
	}

	if st.noOpt {
		// Optimizer off: fold in caller order; pruning falls back to
		// partitioner extents (the pre-planner behaviour).
		fl, err := st.flush()
		if err != nil {
			return compiled[V]{}, err
		}
		node := plan.NaiveFilterNode(preds, st.base)
		if len(attrPreds) > 0 {
			node.Add(plan.NaiveAttrNodes(attrPreds)...)
			if len(preds) == 0 {
				node.Detail = attrDetail(attrPreds)
			}
		}
		fl.base = node
		return compile(rec, fl)
	}

	// Compile the attribute predicates against the schema.
	acts := make([]*attrActual, len(attrPreds))
	matchers := make([]func(V) bool, len(attrPreds))
	if len(attrPreds) > 0 {
		if st.schema == nil {
			return compiled[V]{}, fmt.Errorf("stark: plan: attribute filter without a schema (WithSchema must precede it)")
		}
		// Hand the schema to the dataset instance so Stats collects
		// per-field statistics (memoised: one extra sweep per base at
		// most) and the postings sidecar can build.
		st.sds.SetSchema(st.schema)
	}
	for i, ap := range attrPreds {
		fld, ok := st.schema.Field(ap.Field)
		if !ok {
			return compiled[V]{}, fmt.Errorf("stark: plan: no field %q in schema", ap.Field)
		}
		act := &attrActual{detail: ap.String()}
		acts[i] = act
		p, get := ap, fld.Get
		matchers[i] = func(v V) bool {
			act.tested.Add(1)
			if p.Matches(get(v)) {
				act.passed.Add(1)
				return true
			}
			return false
		}
	}

	sum, err := st.sds.Stats(st.visit)
	if err != nil {
		return compiled[V]{}, fmt.Errorf("stark: plan: stats: %w", err)
	}
	src := st.source(rec)
	// Existing trees — persistent ones or the concurrent trees of a
	// mutable-dataset snapshot — are free of build cost.
	indexed := src.trees != nil
	attrIndexed := len(attrPreds) > 0
	for _, ap := range attrPreds {
		attrIndexed = attrIndexed && src.hasPostings(ap.Field)
	}
	dec := plan.PlanFilter(sum, preds, plan.FilterOptions{
		AlreadyIndexed: indexed,
		IndexOrder:     st.autoIndexOrder(),
		Columnar:       st.sds.HasColumnar(),
		Attr:           attrPreds,
		AttrIndexed:    attrIndexed,
	})

	// Partitioner-extent pruning composes with stats pruning: both
	// are safe over-approximations of where matches can live, so the
	// visit list is their intersection.
	visit := dec.Visit
	if sp := st.sds.Partitioner(); sp != nil {
		envs := make([]geom.Envelope, 0, len(preds)+len(st.pruneEnvs))
		for _, p := range preds {
			envs = append(envs, p.PruneEnv())
		}
		visit = touching(sp, visit, append(envs, st.pruneEnvs...))
	}
	dec.Visit = visit
	dec.Pruned = st.sds.NumPartitions() - len(visit)
	dec.InputRows = sum.RowsIn(visit)
	if dec.Pruned > 0 {
		rec.TasksSkipped(int64(dec.Pruned))
	}

	// attrAll evaluates every attribute predicate in planned order
	// (most selective first, so later checks see fewer records).
	attrAll := func(v V) bool {
		for _, i := range dec.AttrOrder {
			if !matchers[i](v) {
				return false
			}
		}
		return true
	}
	// refineSpatial evaluates every spatial predicate exactly, planned
	// order.
	refineSpatial := func(key STObject) bool {
		for _, pi := range dec.Order {
			p := spatial[pi]
			if !p.pred(key, p.q) {
				return false
			}
		}
		return true
	}
	// done wraps the chosen stream with the filter node and its
	// attribute annotations: the access-path prop plus one
	// AttrIndex/AttrScan child per predicate.
	done := func(ds *engine.Dataset[Tuple[V]], child *plan.Node, alreadyIndexed bool) (compiled[V], error) {
		root := plan.FilterNode(dec, preds, alreadyIndexed, child)
		if len(preds) == 0 {
			root.Detail = attrDetail(attrPreds)
		}
		if p := dec.AttrProp(); p != "" {
			root.Prop("%s", p)
		}
		root.Add(plan.AttrNodes(dec, attrPreds)...)
		return compiled[V]{ds: ds, visit: visit, root: root, attrActs: acts}, nil
	}
	// columnar compiles the spatial predicates into their kernel form,
	// planned order, under the columnar scan node.
	columnar := func() ([]core.KernelPred, *plan.Node) {
		kps := make([]core.KernelPred, len(dec.Order))
		for i, pi := range dec.Order {
			kps[i] = kernelPred(spatial[pi])
		}
		return kps, plan.ColumnarScanNode(st.sds.NumPartitions(), dec.InputRows, st.base)
	}

	switch {
	case dec.AttrStrategy == plan.AttrIndexProbe:
		// Attribute-first: the most selective attribute predicate's
		// postings enumerate candidates, everything else refines them.
		driver := acts[dec.AttrFirst]
		driver.probe = true
		ds, err := src.postings(attrPreds[dec.AttrFirst], func(kv Tuple[V]) bool {
			driver.passed.Add(1)
			for _, i := range dec.AttrOrder {
				if i != dec.AttrFirst && !matchers[i](kv.Value) {
					return false
				}
			}
			return refineSpatial(kv.Key)
		})
		if err != nil {
			return compiled[V]{}, fmt.Errorf("stark: plan: attr index: %w", err)
		}
		return done(ds, st.base, false)

	case dec.AttrStrategy == plan.AttrIntersect:
		kps, scan := columnar()
		ds, err := st.sds.ColumnarFilterIntersect(kps, attrPreds)
		if err != nil {
			return compiled[V]{}, fmt.Errorf("stark: plan: attr intersect: %w", err)
		}
		return done(ds, scan, false)

	case dec.UseColumnar:
		// Columnar kernel scan: the coarse envelope/interval kernels
		// sweep the sidecar columns in planned predicate order, and only
		// the surviving rows are refined with the exact predicates.
		kps, scan := columnar()
		ds := st.sds.ColumnarFilter(kps)
		if ds == nil {
			return compiled[V]{}, fmt.Errorf("stark: plan: columnar sidecar vanished")
		}
		if len(attrPreds) > 0 {
			ds = ds.Filter(func(kv Tuple[V]) bool { return attrAll(kv.Value) })
		}
		return done(ds, scan, false)

	case len(spatial) > 0 && (indexed || dec.UseIndex):
		// Tree probe: existing trees are reused; otherwise a live R-tree
		// is built inside each partition task because the cost model
		// priced build+probe below the scan. The trees are probed with
		// the most selective predicate's envelope and candidates are
		// refined with every predicate, cheapest-surviving order.
		probe := src.trees
		if probe == nil {
			live, err := st.sds.LiveIndex(dec.IndexOrder, nil)
			if err != nil {
				return compiled[V]{}, fmt.Errorf("stark: plan: live index: %w", err)
			}
			probe = live.Probe
		}
		ds := probe(spatial[dec.Order[0]].info.PruneEnv(), func(kv Tuple[V]) bool {
			return attrAll(kv.Value) && refineSpatial(kv.Key)
		})
		return done(ds, st.base, indexed)
	}

	// Fused scan in planned predicate order: the cheap typed attribute
	// compares run first, the spatial cascade on their survivors, each
	// predicate behind its prune envelope.
	cur := st.sds
	if len(attrPreds) > 0 {
		cur = cur.WhereRows(func(_ STObject, v V) bool { return attrAll(v) })
	}
	for _, pi := range dec.Order {
		p := spatial[pi]
		cur = cur.Where(p.q, p.info.PruneEnv(), p.pred)
	}
	return done(cur.Dataset(), st.base, false)
}

// attrDetail joins attribute predicates into a Filter node detail for
// plans with no spatial predicate at all.
func attrDetail(preds []attr.Pred) string {
	details := make([]string, len(preds))
	for i, p := range preds {
		details[i] = p.String()
	}
	return strings.Join(details, " AND ")
}

// kernelPred compiles one pending predicate into its columnar form:
// the coarse kernel query plus the exact predicate for refinement.
// Built-in predicates map to their envelope necessary condition and
// the combined-semantics temporal mode; opaque ones fall back to the
// pruning-envelope sweep (an opaque distance function keeps the
// temporal overlap mode — WithinDistance always combines with
// interval intersection — but its spatial test is only the prune
// contract, because the envelope-gap bound is unsound under a custom
// metric; a fully custom predicate gets no temporal kernel at all).
func kernelPred(p pendingPred) core.KernelPred {
	kp := core.KernelPred{Q: p.q, Pred: p.pred}
	switch {
	case p.info.Kind == plan.Intersects && !p.opaque:
		kp.Query = core.KernelQueryFor(colstore.OpIntersects, colstore.TimeOverlap, p.q, 0)
	case p.info.Kind == plan.Contains && !p.opaque:
		kp.Query = core.KernelQueryFor(colstore.OpContains, colstore.TimeContains, p.q, 0)
	case (p.info.Kind == plan.ContainedBy || p.info.Kind == plan.CoveredBy) && !p.opaque:
		kp.Query = core.KernelQueryFor(colstore.OpContainedBy, colstore.TimeWithin, p.q, 0)
	case p.info.Kind == plan.WithinDistance && !p.opaque:
		kp.Query = core.KernelQueryFor(colstore.OpWithinDistance, colstore.TimeOverlap, p.q, p.info.Expand)
	case p.info.Kind == plan.WithinDistance:
		env := p.info.PruneEnv()
		kp.Query = core.KernelPrune(env.MinX, env.MinY, env.MaxX, env.MaxY, colstore.TimeOverlap, p.q)
	default:
		env := p.info.PruneEnv()
		kp.Query = core.KernelPrune(env.MinX, env.MinY, env.MaxX, env.MaxY, colstore.TimeNone, p.q)
	}
	return kp
}

// autoIndexOrder returns the R-tree order an auto-built live index
// would use: the configured mode's order, or the default.
func (st *state[V]) autoIndexOrder() int {
	if st.mode.kind != modeNone {
		return st.mode.order
	}
	return index.DefaultOrder
}

// Optimize enables (true, the default) or disables (false) the
// cost-based planner for this chain. With the planner off, filters
// run in caller order as fused scans, partitions are pruned from
// partitioner extents only, and no statistics pass runs — the
// behaviour before the planner existed, kept as an opt-out and for
// A/B measurements (the optimizer bench uses it).
func (d *Dataset[V]) Optimize(enabled bool) *Dataset[V] {
	return d.chain("optimize", func(st state[V]) (state[V], error) {
		st.noOpt = !enabled
		return st, nil
	})
}

// Explain compiles the chain, executes it, and returns the rendered
// plan tree: one line per operator with estimated cost/cardinality,
// the decisions taken (chosen index mode, pruned partitions,
// predicate order), actual cardinality, and the engine metrics the
// execution generated.
func (d *Dataset[V]) Explain() (string, error) {
	n, err := d.ExplainNode()
	if err != nil {
		return "", err
	}
	return n.Render(), nil
}

// ExplainNode is Explain returning the plan tree itself (the
// /api/v1/explain endpoint serialises it as JSON).
func (d *Dataset[V]) ExplainNode() (*PlanNode, error) {
	c, err := d.compiled()
	if err != nil {
		return nil, err
	}
	rec := d.jobRecorder()
	before := rec.Snapshot()
	n, err := c.ds.CountPartitions(c.visit)
	if err != nil {
		return nil, fmt.Errorf("stark: explain: %w", err)
	}
	after := rec.Snapshot()
	root := c.root.Clone()
	if root == nil {
		root = plan.NewNode("Scan", "dataset")
	}
	if root.ActRows < 0 {
		root.ActRows = n
	}
	root.Prop("actual: rows=%d elements_scanned=%d index_probes=%d candidates_refined=%d",
		n,
		after.ElementsScanned-before.ElementsScanned,
		after.IndexProbes-before.IndexProbes,
		after.CandidatesRefined-before.CandidatesRefined)
	if kb := after.KernelBatches - before.KernelBatches; kb > 0 {
		// Kernel actuals only when a columnar sweep actually ran, so
		// non-columnar plans (and their golden files) are unchanged.
		attachColumnarActuals(root,
			after.ElementsScanned-before.ElementsScanned,
			kb,
			after.KernelSurvivors-before.KernelSurvivors)
	}
	if len(c.attrActs) > 0 {
		attachAttrActuals(root, c.attrActs)
	}
	return root, nil
}

// attachAttrActuals annotates the AttrScan/AttrIndex nodes of the tree
// with the counters their compiled predicates accumulated during
// execution: actual selectivity for evaluated predicates, enumerated
// candidate count for the postings-probe driver.
func attachAttrActuals(n *PlanNode, acts []*attrActual) {
	if n == nil {
		return
	}
	if n.Op == "AttrScan" || n.Op == "AttrIndex" {
		for _, act := range acts {
			if act.detail != n.Detail {
				continue
			}
			passed := act.passed.Load()
			if act.probe {
				n.ActRows = passed
				n.Prop("actual: postings_candidates=%d", passed)
			} else if tested := act.tested.Load(); tested > 0 {
				n.ActRows = passed
				n.Prop("actual: sel=%.4f tested=%d passed=%d",
					float64(passed)/float64(tested), tested, passed)
			}
			break
		}
	}
	for _, c := range n.Children {
		attachAttrActuals(c, acts)
	}
}

// attachColumnarActuals annotates every ColumnarScan node of the tree
// with the executed kernel counters.
func attachColumnarActuals(n *PlanNode, scanned, batches, survivors int64) {
	if n == nil {
		return
	}
	if n.Op == "ColumnarScan" {
		n.Prop("actual: elements_scanned=%d kernel_batches=%d kernel_survivors=%d",
			scanned, batches, survivors)
	}
	for _, c := range n.Children {
		attachColumnarActuals(c, scanned, batches, survivors)
	}
}

// Stats resolves the chain (folding any pending filters) and returns
// the planner statistics of the resulting dataset, collected in one
// streaming pass and cached per dataset instance.
func (d *Dataset[V]) Stats() (*DatasetStats, error) {
	st, err := d.forceFlushed()
	if err != nil {
		return nil, err
	}
	return st.sds.Stats(st.prunedVisit(d.jobRecorder()))
}
