// Package plan implements the cost-based query planner: a small
// logical algebra over spatio-temporal datasets (Scan, Filter, Join,
// KNN, Cluster) plus rule-based, cost-estimated rewrites driven by the
// statistics of internal/stats.
//
// The planner does not execute anything. It takes predicate
// descriptions and dataset summaries and returns *decisions* — which
// partitions to visit, in which order to evaluate predicates, whether
// to build a live R-tree or scan, which join side to index — together
// with the cost estimates behind them. The execution layers (the
// public DSL, the Piglet executor) interpret those decisions with
// their concrete record types, and render the decision tree as
// EXPLAIN output via Node.
//
// The rewrites:
//
//   - Predicate reordering: conjunctive filters are evaluated most
//     selective first (selectivity estimated from the grid histogram),
//     so later, more expensive predicates see fewer records.
//   - Partition pruning: the partitions to visit are derived from the
//     collected per-partition MBRs and temporal extents instead of
//     caller hints, so pruning applies even to data that was never
//     spatially partitioned by a recipe.
//   - Index-mode selection: a scan-cost vs build+probe cost model
//     decides between the plain fused scan and a transient live
//     R-tree per partition (the paper's live indexing), and always
//     probes an index the dataset already carries.
//   - Join build-side selection: the smaller input is indexed (put on
//     the build side), the larger streamed against it.
package plan

import (
	"fmt"
	"math"
	"sort"

	"stark/internal/attr"
	"stark/internal/geom"
	"stark/internal/stats"
)

// PredKind names a spatio-temporal predicate.
type PredKind int

const (
	Intersects PredKind = iota
	Contains
	ContainedBy
	CoveredBy
	WithinDistance
	// Custom marks a caller-supplied predicate the planner cannot
	// name; costing falls back to the base scan cost, and pruning
	// relies on the caller's prune-expansion contract.
	Custom
)

// String returns the lower-case predicate name.
func (k PredKind) String() string {
	switch k {
	case Intersects:
		return "intersects"
	case Contains:
		return "contains"
	case ContainedBy:
		return "containedby"
	case CoveredBy:
		return "coveredby"
	case WithinDistance:
		return "withindistance"
	case Custom:
		return "custom"
	default:
		return fmt.Sprintf("pred(%d)", int(k))
	}
}

// Pred describes one spatio-temporal predicate for planning purposes:
// the query envelope, the pruning expansion (how far a matching
// record's envelope may lie outside the query's — the distance for
// WithinDistance, 0 otherwise), the optional temporal window, and the
// query geometry's vertex count as a refinement-cost proxy.
type Pred struct {
	Kind       PredKind
	Env        geom.Envelope
	Expand     float64
	HasTime    bool
	Begin, End int64
	Vertices   int
}

// PruneEnv returns the envelope a matching record must intersect —
// the partition-pruning and index-probe rectangle.
func (p Pred) PruneEnv() geom.Envelope { return p.Env.ExpandBy(p.Expand) }

// String renders the predicate for EXPLAIN output.
func (p Pred) String() string {
	s := fmt.Sprintf("%s env=%s", p.Kind, envString(p.Env))
	if p.Expand > 0 {
		s += fmt.Sprintf(" dist=%s", trimFloat(p.Expand))
	}
	if p.HasTime {
		s += fmt.Sprintf(" time=[%d,%d]", p.Begin, p.End)
	}
	return s
}

// ---- Cost model ----
//
// Costs are in abstract per-record units, calibrated so that an exact
// predicate check on a trivial geometry costs 1. The constants only
// need to order alternatives correctly, not predict wall time.
const (
	// CostScan is the base cost of one exact predicate evaluation.
	CostScan = 1.0
	// CostVertex is the extra refinement cost per query-geometry
	// vertex (point-in-polygon and distance walks scale with it).
	CostVertex = 0.08
	// CostDistance is the surcharge of an exact distance computation
	// (WithinDistance refinement).
	CostDistance = 4.0
	// CostBuild is the cost of inserting one record into a live
	// R-tree (envelope copy + sort/pack amortised).
	CostBuild = 2.5
	// CostProbe is the fixed cost of one per-partition tree descent.
	CostProbe = 16.0
	// CostProbeRecord is the per-record cost of one join-side tree
	// descent (cheaper than CostProbe because the descent is amortised
	// over a streaming probe loop with a reused candidate buffer).
	CostProbeRecord = 4.0
	// CostShuffle is the per-record cost of replicating a record onto
	// another partitioner during a co-partitioned join (extent overlap
	// scan + bucket append).
	CostShuffle = 3.0
	// CostKernel is the per-record cost of one coarse columnar kernel
	// sweep: a handful of float compares over cache-resident columns,
	// far below an exact predicate call through interface dispatch.
	CostKernel = 0.05
	// CostAttrEval is the per-record cost of one typed attribute
	// comparison: an extractor call plus a tag-switched compare —
	// cheaper than an exact geometry check, pricier than a kernel.
	CostAttrEval = 0.02
	// CostAttrProbe is the fixed cost of one per-partition postings
	// lookup (a couple of binary-search descents over the sorted
	// column).
	CostAttrProbe = 8.0
	// CostAttrBuild is the per-record cost of building one partition's
	// attribute postings index (extractor call + sort amortised).
	CostAttrBuild = 1.5
)

// evalCost returns the cost of one exact evaluation of p.
func evalCost(p Pred) float64 {
	c := CostScan + float64(p.Vertices)*CostVertex
	if p.Kind == WithinDistance {
		c += CostDistance
	}
	return c
}

// ---- Filter planning ----

// FilterOptions configures PlanFilter.
type FilterOptions struct {
	// AlreadyIndexed marks a dataset that carries materialised (or
	// live-mode) partition R-trees: probing is free of build cost.
	AlreadyIndexed bool
	// IndexOrder is the R-tree order an auto-built live index would
	// use.
	IndexOrder int
	// Columnar marks a dataset carrying a built columnar sidecar, so
	// the batched-kernel scan is a physical alternative.
	Columnar bool
	// Attr lists the typed attribute predicates conjoined with the
	// spatio-temporal ones; their selectivities come from the
	// summary's per-field statistics.
	Attr []attr.Pred
	// AttrIndexed marks a dataset instance that already carries built
	// attribute postings sidecars, so an attribute-first probe pays no
	// build cost.
	AttrIndexed bool
}

// AttrStrategy names the attribute access path of a planned filter.
type AttrStrategy int

const (
	// AttrNone: the filter has no typed attribute predicates.
	AttrNone AttrStrategy = iota
	// AttrInline: attribute predicates are evaluated inline (cheap
	// typed compares) on the rows the spatial access path yields.
	AttrInline
	// AttrIndexProbe: the most selective attribute predicate drives a
	// per-partition postings probe; the remaining attribute and all
	// spatial predicates refine the candidates.
	AttrIndexProbe
	// AttrIntersect: attribute postings are materialised as bitsets
	// and ANDed with the columnar kernels' survivor bitset before
	// exact refinement.
	AttrIntersect
)

// String returns the lower-case strategy name used in EXPLAIN output.
func (s AttrStrategy) String() string {
	switch s {
	case AttrNone:
		return "none"
	case AttrInline:
		return "scan"
	case AttrIndexProbe:
		return "index"
	case AttrIntersect:
		return "intersect"
	default:
		return fmt.Sprintf("attr(%d)", int(s))
	}
}

// FilterDecision is the planner's verdict for a conjunctive
// spatio-temporal filter.
type FilterDecision struct {
	// Order lists the input predicate indexes in evaluation order,
	// most selective first.
	Order []int
	// Sel holds the estimated selectivity of each input predicate
	// (indexed like the input, not like Order).
	Sel []float64
	// Visit lists the partitions to visit, pruned via the collected
	// per-partition MBRs and temporal extents.
	Visit []int
	// Pruned is the number of partitions skipped.
	Pruned int
	// InputRows counts the records in the visited partitions.
	InputRows int64
	// EstRows is the estimated result cardinality.
	EstRows float64
	// UseIndex selects the index probe (live build when not already
	// indexed) over the fused scan; IndexOrder is the order to build
	// with. ScanCost and IndexCost are the compared estimates.
	UseIndex   bool
	IndexOrder int
	ScanCost   float64
	IndexCost  float64
	// UseColumnar selects the batched-kernel columnar scan over both
	// the row scan and the index probe; ColumnarCost is its estimate
	// (+Inf when no sidecar is available).
	UseColumnar  bool
	ColumnarCost float64
	// AttrStrategy is the chosen attribute access path (AttrNone when
	// the filter has no typed attribute predicates). AttrSel holds the
	// per-attribute-predicate selectivity estimates (input order),
	// AttrOrder the evaluation order (most selective first), AttrFirst
	// the index of the probe-driving predicate. AttrIndexCost and
	// AttrIntersectCost are the compared estimates of the two
	// postings-backed paths (+Inf when inapplicable).
	AttrStrategy      AttrStrategy
	AttrSel           []float64
	AttrOrder         []int
	AttrFirst         int
	AttrIndexCost     float64
	AttrIntersectCost float64
}

// PlanFilter plans a conjunctive filter (every predicate must hold)
// over a dataset summarised by sum.
func PlanFilter(sum *stats.Summary, preds []Pred, opt FilterOptions) FilterDecision {
	d := FilterDecision{IndexOrder: opt.IndexOrder}

	// Partition pruning from stats: a partition can contribute only
	// when its MBR intersects every predicate's prune envelope and its
	// temporal extent can overlap every temporal window.
	envs := make([]geom.Envelope, 0, len(preds))
	var times []stats.TimeFilter
	for _, p := range preds {
		envs = append(envs, p.PruneEnv())
		if p.HasTime {
			times = append(times, stats.TimeFilter{Begin: p.Begin, End: p.End})
		}
	}
	d.Visit = sum.Visit(envs, times)
	d.Pruned = len(sum.Parts) - len(d.Visit)
	d.InputRows = sum.RowsIn(d.Visit)

	// Per-predicate selectivity: spatial from the histogram, temporal
	// from the timed-record extent, multiplied under independence.
	d.Sel = make([]float64, len(preds))
	for i, p := range preds {
		sel := sum.Selectivity(p.PruneEnv())
		if p.HasTime {
			sel *= sum.TemporalSelectivity(p.Begin, p.End)
		}
		d.Sel[i] = sel
	}

	// Reorder: most selective first; ties broken by cheaper
	// evaluation, then input order for determinism.
	d.Order = make([]int, len(preds))
	for i := range d.Order {
		d.Order[i] = i
	}
	sort.SliceStable(d.Order, func(a, b int) bool {
		ia, ib := d.Order[a], d.Order[b]
		if d.Sel[ia] != d.Sel[ib] {
			return d.Sel[ia] < d.Sel[ib]
		}
		return evalCost(preds[ia]) < evalCost(preds[ib])
	})

	// Cost the two physical alternatives over the visited rows.
	rows := float64(d.InputRows)
	d.EstRows = rows
	d.ScanCost = 0
	for _, i := range d.Order {
		d.ScanCost += d.EstRows * evalCost(preds[i])
		d.EstRows *= d.Sel[i]
	}

	// Index alternative: probe the trees with the most selective
	// predicate's envelope, refine candidates with every predicate.
	d.IndexCost = 0
	if !opt.AlreadyIndexed {
		d.IndexCost += rows * CostBuild
	}
	d.IndexCost += float64(len(d.Visit)) * CostProbe
	if len(preds) > 0 {
		first := d.Order[0]
		candidates := rows * d.Sel[first]
		refine := 0.0
		for _, i := range d.Order {
			refine += evalCost(preds[i])
		}
		d.IndexCost += candidates * refine
	}
	d.UseIndex = len(preds) > 0 && rows > 0 &&
		(opt.AlreadyIndexed || d.IndexCost < d.ScanCost)

	// Columnar alternative: every kernel sweeps all visited rows at
	// CostKernel each, then the survivors of the conjunction — bounded
	// by the most selective predicate — are refined exactly. Only
	// offered when a sidecar is built; when it wins it also displaces
	// an AlreadyIndexed probe (the cheapest access path should win,
	// pre-built or not).
	d.ColumnarCost = math.Inf(1)
	if opt.Columnar && len(preds) > 0 {
		d.ColumnarCost = rows * CostKernel * float64(len(preds))
		first := d.Order[0]
		refine := 0.0
		for _, i := range d.Order {
			refine += evalCost(preds[i])
		}
		d.ColumnarCost += rows * d.Sel[first] * refine
		if rows > 0 {
			best := d.ScanCost
			if d.UseIndex {
				best = math.Min(best, d.IndexCost)
			}
			if d.ColumnarCost < best {
				d.UseColumnar = true
				d.UseIndex = false
			}
		}
	}
	if len(opt.Attr) > 0 {
		planAttr(&d, sum, preds, opt)
	}
	return d
}

// planAttr re-costs the physical alternatives with typed attribute
// predicates folded in and picks the attribute access path. It runs
// only when attribute predicates exist, so plans without them are
// bit-identical to the pre-attribute planner.
func planAttr(d *FilterDecision, sum *stats.Summary, preds []Pred, opt FilterOptions) {
	rows := float64(d.InputRows)
	n := len(opt.Attr)

	// Per-predicate selectivity from the per-field statistics
	// (attr.DefaultSelectivity when the sweep had no schema), combined
	// under independence.
	d.AttrSel = make([]float64, n)
	attrAll := 1.0
	for i, p := range opt.Attr {
		s := sum.FieldStats(p.Field).Selectivity(p)
		d.AttrSel[i] = s
		attrAll *= s
	}
	d.AttrOrder = make([]int, n)
	for i := range d.AttrOrder {
		d.AttrOrder[i] = i
	}
	sort.SliceStable(d.AttrOrder, func(a, b int) bool {
		return d.AttrSel[d.AttrOrder[a]] < d.AttrSel[d.AttrOrder[b]]
	})
	d.AttrFirst = d.AttrOrder[0]

	spatialRefine := 0.0
	for _, i := range d.Order {
		spatialRefine += evalCost(preds[i])
	}
	attrEvalAll := CostAttrEval * float64(n)

	// Fused scan, attribute predicates evaluated first (they are the
	// cheap checks), spatial cascade on the survivors.
	d.ScanCost = rows * attrEvalAll
	est := rows * attrAll
	for _, i := range d.Order {
		d.ScanCost += est * evalCost(preds[i])
		est *= d.Sel[i]
	}
	d.EstRows = est

	// Spatial index probe, attributes refined inline on candidates.
	d.IndexCost = math.Inf(1)
	if len(preds) > 0 {
		d.IndexCost = 0
		if !opt.AlreadyIndexed {
			d.IndexCost = rows * CostBuild
		}
		d.IndexCost += float64(len(d.Visit)) * CostProbe
		cand := rows * d.Sel[d.Order[0]]
		d.IndexCost += cand * (spatialRefine + attrEvalAll)
	}

	// Attribute-first postings probe: the most selective attribute
	// predicate yields candidates, everything else refines them.
	d.AttrIndexCost = 0
	if !opt.AttrIndexed {
		d.AttrIndexCost = rows * CostAttrBuild
	}
	d.AttrIndexCost += float64(len(d.Visit)) * CostAttrProbe
	cand := rows * d.AttrSel[d.AttrFirst]
	d.AttrIndexCost += cand * (CostAttrEval*float64(n-1) + spatialRefine)

	// Columnar alternatives: kernels over the spatial predicates with
	// inline attribute refinement, or a candidate-set intersection —
	// attribute postings materialised as bitsets and ANDed with the
	// kernel survivors, shrinking the exact-refinement set by the
	// combined attribute selectivity.
	d.ColumnarCost = math.Inf(1)
	d.AttrIntersectCost = math.Inf(1)
	if opt.Columnar && len(preds) > 0 {
		kernels := rows * CostKernel * float64(len(preds))
		surv := rows * d.Sel[d.Order[0]]
		d.ColumnarCost = kernels + surv*(spatialRefine+attrEvalAll)
		inter := kernels
		if !opt.AttrIndexed {
			inter += rows * CostAttrBuild
		}
		inter += float64(len(d.Visit))*CostAttrProbe*float64(n) + rows*CostKernel*float64(n)
		inter += rows * d.Sel[d.Order[0]] * attrAll * spatialRefine
		d.AttrIntersectCost = inter
	}

	// Pick the cheapest applicable plan. Ties keep the earlier (and
	// simpler) alternative.
	d.UseIndex, d.UseColumnar = false, false
	d.AttrStrategy = AttrInline
	best := d.ScanCost
	if rows > 0 {
		if d.IndexCost < best {
			best = d.IndexCost
			d.UseIndex, d.UseColumnar, d.AttrStrategy = true, false, AttrInline
		}
		if d.ColumnarCost < best {
			best = d.ColumnarCost
			d.UseIndex, d.UseColumnar, d.AttrStrategy = false, true, AttrInline
		}
		if d.AttrIndexCost < best {
			best = d.AttrIndexCost
			d.UseIndex, d.UseColumnar, d.AttrStrategy = false, false, AttrIndexProbe
		}
		if d.AttrIntersectCost < best {
			d.UseIndex, d.UseColumnar, d.AttrStrategy = false, true, AttrIntersect
		}
	}
}

// ---- Join planning ----

// JoinStrategy names a physical join execution strategy.
type JoinStrategy int

const (
	// JoinAuto defers the choice to the cost model (the default of
	// the public DSL join builder).
	JoinAuto JoinStrategy = iota
	// JoinPairs enumerates (left, right) partition pairs, prunes the
	// disjoint ones and indexes the right partition of each surviving
	// pair — the paper's partitioned join.
	JoinPairs
	// JoinBroadcast materialises the build side once into a single
	// R-tree (the smaller side, when the cost model chose; the right
	// input, when forced) and streams the other side's partitions
	// against it; no pair enumeration at all.
	JoinBroadcast
	// JoinCoPartition replicates the build side onto the other
	// side's spatial partitioner so every task joins exactly one
	// aligned partition pair.
	JoinCoPartition
)

// String returns the lower-case strategy name used in EXPLAIN output.
func (s JoinStrategy) String() string {
	switch s {
	case JoinAuto:
		return "auto"
	case JoinPairs:
		return "pairs"
	case JoinBroadcast:
		return "broadcast"
	case JoinCoPartition:
		return "copartition"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// DefaultBroadcastRows is the default broadcast row budget: a side
// whose estimated cardinality is at or below it may be materialised
// whole on every simulated executor.
const DefaultBroadcastRows = 100_000

// JoinPlanInput feeds PlanJoinStrategy: the statistics of both
// inputs plus the physical layout facts the cost model needs.
type JoinPlanInput struct {
	Left, Right *stats.Summary
	// Expand is the probe expansion of the join predicate (the
	// distance for withinDistance joins, 0 otherwise).
	Expand float64
	// LeftPartitioned/RightPartitioned report whether the side
	// carries a spatial partitioner; SamePartitioner reports that
	// both sides share the identical partitioner instance (already
	// aligned).
	LeftPartitioned, RightPartitioned bool
	SamePartitioner                   bool
	// BroadcastBudget caps the rows of a broadcast side; <= 0 selects
	// DefaultBroadcastRows.
	BroadcastBudget int64
}

// JoinDecision is the planner's verdict for a spatio-temporal join.
type JoinDecision struct {
	// Strategy is the chosen physical strategy (never JoinAuto).
	Strategy JoinStrategy
	// BuildRight is true when the right input should be the build
	// side (indexed / broadcast / shuffled); when false the executor
	// swaps the inputs internally and swaps result rows back.
	BuildRight bool
	// LeftRows/RightRows are the input cardinalities the choice was
	// made from.
	LeftRows, RightRows int64
	// EstRows estimates the join cardinality from the overlap of the
	// two datasets' envelopes.
	EstRows float64
	// TotalPairs is the size of the naive L×R partition-pair
	// enumeration; EstPairs the pairs surviving MBR pruning (the task
	// count of the pairs strategy); EstTasks the task count of the
	// chosen strategy.
	TotalPairs int
	EstPairs   int
	EstTasks   int
	// Budget is the broadcast row budget the decision used.
	Budget int64
	// PairsCost/BroadcastCost/CoPartCost are the compared cost
	// estimates; +Inf marks an inapplicable strategy.
	PairsCost, BroadcastCost, CoPartCost float64
}

// estJoinRows estimates the join cardinality from the envelope
// overlap of the two summaries: records outside the overlap cannot
// match; within it, assume the larger population dominates the result
// (each record of the smaller side matches a handful of nearby
// records), bounded by the cross product of the overlap populations.
func estJoinRows(left, right *stats.Summary, expand float64) float64 {
	overlap := left.MBR.Intersection(right.MBR.ExpandBy(expand))
	if overlap.IsEmpty() || left.Count == 0 || right.Count == 0 {
		return 0
	}
	lin := float64(left.Count) * left.Selectivity(overlap)
	rin := float64(right.Count) * right.Selectivity(overlap)
	return math.Min(lin*rin, math.Max(lin, rin))
}

// estSurvivingPairs counts the partition pairs whose MBRs (expanded
// by the probe expansion) intersect — the tasks the pairs strategy
// would actually schedule after pruning. Empty partitions never pair.
func estSurvivingPairs(left, right *stats.Summary, expand float64) int {
	pairs := 0
	for _, lp := range left.Parts {
		if lp.Count == 0 {
			continue
		}
		le := lp.MBR.ExpandBy(expand)
		for _, rp := range right.Parts {
			if rp.Count == 0 {
				continue
			}
			if le.Intersects(rp.MBR) {
				pairs++
			}
		}
	}
	return pairs
}

// PlanJoinStrategy selects the cheapest physical join strategy:
//
//   - broadcast, when the smaller side's estimated cardinality fits
//     the row budget — one R-tree build, one task per stream-side
//     partition, no pair enumeration;
//   - co-partition, when at least one side is spatially partitioned
//     and the sides are not already aligned — the smaller side is
//     replicated onto the larger side's partitioner so each task
//     joins exactly one aligned pair;
//   - pairs, the pruned partition-pair enumeration, always
//     applicable.
//
// Costs are in the package's abstract per-record units; the decision
// records all three estimates for EXPLAIN.
func PlanJoinStrategy(in JoinPlanInput) JoinDecision {
	left, right := in.Left, in.Right
	budget := in.BroadcastBudget
	if budget <= 0 {
		budget = DefaultBroadcastRows
	}
	lParts, rParts := len(left.Parts), len(right.Parts)
	d := JoinDecision{
		Strategy:   JoinPairs,
		BuildRight: right.Count <= left.Count,
		LeftRows:   left.Count,
		RightRows:  right.Count,
		EstRows:    estJoinRows(left, right, in.Expand),
		TotalPairs: lParts * rParts,
		EstPairs:   estSurvivingPairs(left, right, in.Expand),
		Budget:     budget,
	}
	smallRows := math.Min(float64(left.Count), float64(right.Count))
	bigRows := math.Max(float64(left.Count), float64(right.Count))
	lAvg, rAvg := 0.0, 0.0
	if lParts > 0 {
		lAvg = float64(left.Count) / float64(lParts)
	}
	if rParts > 0 {
		rAvg = float64(right.Count) / float64(rParts)
	}

	// Pairs: every surviving pair streams an average left partition
	// against the right partition's tree; trees are built (and right
	// partitions materialised) once per distinct right partition.
	distinctRight := math.Min(float64(rParts), float64(d.EstPairs))
	if !d.BuildRight {
		distinctRight = math.Min(float64(lParts), float64(d.EstPairs))
		lAvg, rAvg = rAvg, lAvg
	}
	d.PairsCost = distinctRight*rAvg*CostBuild +
		float64(d.EstPairs)*lAvg*CostProbeRecord

	// Broadcast: build the smaller side once, stream every partition
	// of the larger side against it. Only within the row budget.
	d.BroadcastCost = math.Inf(1)
	if int64(smallRows) <= budget {
		d.BroadcastCost = smallRows*CostBuild + bigRows*CostProbeRecord
	}

	// Co-partition: replicate the moving side onto the staying side's
	// partitioner (shuffle + per-target build), then stream each
	// target partition against its aligned bucket. Needs a
	// partitioner to align onto, and is pointless when the sides
	// already share one. The moving side is the smaller one — except
	// when only one side is partitioned, where the executor has no
	// choice but to move the unpartitioned side, whatever its size;
	// the cost must describe the plan that actually runs.
	d.CoPartCost = math.Inf(1)
	if (in.LeftPartitioned || in.RightPartitioned) && !in.SamePartitioner {
		moveRows, stayRows := smallRows, bigRows
		if in.LeftPartitioned != in.RightPartitioned {
			if in.LeftPartitioned {
				moveRows, stayRows = float64(right.Count), float64(left.Count)
			} else {
				moveRows, stayRows = float64(left.Count), float64(right.Count)
			}
		}
		const replication = 1.2 // extent-overlap duplication estimate
		d.CoPartCost = moveRows*replication*(CostShuffle+CostBuild) +
			stayRows*CostProbeRecord
	}

	// Pick the cheapest; ties resolve broadcast < copartition < pairs
	// (fewer tasks, simpler schedule).
	d.Strategy = JoinPairs
	best := d.PairsCost
	if d.CoPartCost <= best {
		d.Strategy, best = JoinCoPartition, d.CoPartCost
	}
	if d.BroadcastCost <= best {
		d.Strategy, best = JoinBroadcast, d.BroadcastCost
	}

	// Build-side and task-count bookkeeping per strategy.
	switch d.Strategy {
	case JoinBroadcast:
		d.BuildRight = float64(right.Count) <= smallRows
		streamParts := lParts
		if !d.BuildRight {
			streamParts = rParts
		}
		d.EstTasks = streamParts
	case JoinCoPartition:
		// The moving (build) side is the smaller one, unless only one
		// side carries a partitioner — then the partitioned side must
		// stay put and the other moves.
		d.BuildRight = float64(right.Count) <= smallRows
		if in.LeftPartitioned && !in.RightPartitioned {
			d.BuildRight = true
		} else if in.RightPartitioned && !in.LeftPartitioned {
			d.BuildRight = false
		}
		if d.BuildRight {
			d.EstTasks = lParts
		} else {
			d.EstTasks = rParts
		}
	default:
		d.EstTasks = d.EstPairs
	}
	return d
}
