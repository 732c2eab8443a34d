package stark

// This file provides the join operators of the DSL. Because Go
// methods cannot introduce type parameters, joins are package
// functions over two Datasets; the spatio-temporal join is itself
// chainable (it returns a Dataset keyed by the left record), so
// load → partition → filter → join → collect reads as one pipeline.

import (
	"fmt"

	"stark/internal/core"
	"stark/internal/plan"
)

// JoinOptions configures a spatial join: the predicate (nil selects
// Intersects), the build-side R-tree order (0 = nested loop,
// negative = default order), the probe expansion for distance
// predicates, the physical Strategy hint (JoinAuto, the zero value,
// lets the cost model choose) and an optional Report out-parameter.
type JoinOptions = core.JoinOptions

// JoinStrategy selects the physical join execution strategy; the
// cost model chooses one on JoinAuto (the default).
type JoinStrategy = core.JoinStrategy

// Join strategy values: JoinAuto defers to the cost model;
// JoinBroadcast materialises the smaller side into one R-tree and
// streams the other side against it; JoinCoPartition replicates the
// smaller side onto the other side's spatial partitioner so each
// task joins one aligned pair; JoinPairs is the pruned
// partition-pair enumeration of the paper's Figure 4.
const (
	JoinAuto        = core.JoinAuto
	JoinPairs       = core.JoinPairs
	JoinBroadcast   = core.JoinBroadcast
	JoinCoPartition = core.JoinCoPartition
)

// JoinReport describes how a join executes: the chosen strategy, the
// cost-model decision behind it and the planned task and pair counts
// are settled when the chain resolves (Run is enough); the tree, shuffle
// and build-row counters grow while actions run. EXPLAIN renders all of
// it.
type JoinReport = core.JoinReport

// JoinRow is one result row of Join: the right record folded into the
// left record's payload. The row's key is the left key.
type JoinRow[V, W any] = core.JoinRow[V, W]

// Join computes the spatio-temporal join of l and r: every pair of
// records whose keys satisfy the predicate. The physical strategy —
// broadcast, co-partitioned, or the pruned partition-pair join of
// the paper's Figure 4 — is chosen by the cost model from dataset
// statistics unless opts.Strategy forces one; Explain() on the
// result renders the decision as Join[broadcast|copartition|pairs]
// with estimated vs actual pair counts. The join is a transformation
// like the filters: resolving the chain plans it (over the partitions
// the inputs' own filters leave to visit), and an action streams one
// input's partitions against R-trees built over the other's, yielding
// pairs as they are found — Take and a cancelled stream stop probing,
// and only the build side is ever materialised. The result is a
// Dataset keyed by the left record's STObject, so further operators
// chain; errors from either input surface at the action (the left
// input's error wins when both failed).
func Join[V, W any](l *Dataset[V], r *Dataset[W], opts JoinOptions) *Dataset[JoinRow[V, W]] {
	var d *Dataset[JoinRow[V, W]]
	d = newDataset(l.ctx, func() (state[JoinRow[V, W]], error) {
		ls, err := l.forceFlushed()
		if err != nil {
			return state[JoinRow[V, W]]{}, err
		}
		rs, err := r.forceFlushed()
		if err != nil {
			return state[JoinRow[V, W]]{}, err
		}
		if opts.Report == nil {
			opts.Report = &JoinReport{}
		}
		// The probes are charged to the joined Dataset, whose actions
		// run them.
		rec := d.jobRecorder()
		ds, visit, err := core.JoinStream(ls.sds.WithRecorder(rec), ls.prunedVisit(rec),
			rs.sds.WithRecorder(rec), rs.prunedVisit(rec), opts)
		if err != nil {
			return state[JoinRow[V, W]]{}, fmt.Errorf("stark: join: %w", err)
		}
		pred := plan.Pred{Kind: plan.Custom, Expand: opts.ProbeExpansion}
		return state[JoinRow[V, W]]{
			sds:   core.Wrap(ds),
			visit: visit,
			base:  opts.Report.PlanNode(pred, ls.base, rs.base),
		}, nil
	})
	return d
}

// SelfJoin joins the dataset with itself (identity pairs included,
// matching rdd.join(rdd)). Under the pairs strategy it runs
// symmetrically: a task per unordered pair of partitions, each
// unordered pair of records refined once and tested both ways round.
func SelfJoin[V any](d *Dataset[V], opts JoinOptions) *Dataset[JoinRow[V, V]] {
	return Join(d, d, opts)
}
