package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/index"
	"stark/internal/partition"
	"stark/internal/plan"
	"stark/internal/stobject"
)

// This file implements the spatio-temporal join. STARK's join takes
// two datasets of (STObject, V) records and a predicate; the result
// holds every pair of records whose keys satisfy it.
//
// The join is a transformation like the filters: JoinStream plans it —
// strategy, orientation, the probe partitions worth visiting and the
// build slots each of them probes — and returns a lazy dataset whose
// partitions are the probe side's. Nothing is joined until an action
// drives that stream. A task streams its probe partition once off the
// fused pipeline and tests every record against its build slots; a
// slot holds rows of the build side plus an R-tree over them and is
// loaded by the first task that needs it, on that task's executor, so
// an action that stops early builds only what it touched. The
// strategy, chosen by the cost model in internal/plan from
// internal/stats statistics (JoinAuto, the default) or forced via
// JoinOptions.Strategy, decides what a slot holds:
//
//   - broadcast: one slot, the whole build side, shared by every probe
//     partition the build envelope can reach;
//   - copartition: the build side is replicated onto the probe side's
//     SpatialPartitioner via extent overlap (the Replicating
//     assignment) and each probe partition probes its aligned bucket;
//   - pairs: the paper's partitioned join — one slot per build
//     partition, probed by the probe partitions whose extent reaches
//     it; pairs with disjoint extents are pruned (the strategy Figure
//     4 measures).
//
// The pairs are never materialised by the join; the build side of
// broadcast and copartition is (that is the join's build phase).
// Setting IndexOrder to 0 disables the trees and falls back to nested
// loops (the behaviour of the SpatialSpark baseline).

// JoinStrategy selects the physical join execution strategy; see
// plan.JoinStrategy for the semantics of each value.
type JoinStrategy = plan.JoinStrategy

// Join strategy values, re-exported from the planner.
const (
	JoinAuto        = plan.JoinAuto
	JoinPairs       = plan.JoinPairs
	JoinBroadcast   = plan.JoinBroadcast
	JoinCoPartition = plan.JoinCoPartition
)

// JoinRow is one join result row: the right record folded into the
// left record's payload. The row's key is the left key.
type JoinRow[V, W any] struct {
	Left     V
	RightKey stobject.STObject
	Right    W
}

// JoinOptions configures a spatial join.
type JoinOptions struct {
	// Predicate is the spatio-temporal join predicate; nil selects
	// Intersects.
	Predicate stobject.Predicate
	// IndexOrder is the order of the live R-trees built on the join's
	// build side; 0 disables indexing (nested loop), negative selects
	// the default order.
	IndexOrder int
	// ProbeExpansion expands the probe record's envelope before
	// probing — required for withinDistance joins, where matching
	// records can lie outside the probe envelope.
	ProbeExpansion float64
	// Strategy forces a physical strategy; JoinAuto (the zero value)
	// lets the cost model choose from dataset statistics. Only auto
	// consults sizes: a forced strategy builds the RIGHT input as
	// given (force JoinBroadcast with the side to materialise on the
	// right), and a forced JoinCoPartition without any spatial
	// partitioner on either side falls back to JoinPairs.
	Strategy JoinStrategy
	// Report, when non-nil, receives the execution report: the chosen
	// strategy, the cost-model decision, and actual task/pair/tree
	// counters — the numbers EXPLAIN renders.
	Report *JoinReport
}

// JoinReport describes how a join executes. Strategy, Decision,
// Swapped, Tasks, TotalPairs and PairsPruned are settled when the join
// is planned; TreesBuilt, Shuffled and BuildRows grow (atomically)
// while actions load build slots, each slot once however many actions
// run, so read them after the action of interest. They stay plain
// int64s (updated through sync/atomic) so that a report remains a value
// callers can copy and compare.
type JoinReport struct {
	// Strategy is the strategy that runs (never JoinAuto).
	Strategy JoinStrategy
	// Decision is the cost model's verdict; nil when the strategy was
	// forced and no planning ran.
	Decision *plan.JoinDecision
	// Swapped reports that the build side is the left input (every
	// result row is still left-keyed).
	Swapped bool
	// Tasks is the number of (probe partition, build slot) probes
	// planned — surviving partition pairs under pairs, visited probe
	// partitions otherwise; TotalPairs the size of the naive L×R
	// enumeration the strategy avoids or prunes.
	Tasks      int
	TotalPairs int
	// PairsPruned counts the partition pairs of that enumeration the
	// inputs' own pruning and the extent test skip (pairs strategy
	// only).
	PairsPruned int
	// TreesBuilt counts live R-tree builds: at most one per build
	// slot.
	TreesBuilt int64
	// Shuffled counts records replicated by the copartition shuffle.
	Shuffled int64
	// BuildRows is the number of rows materialised on the build side
	// (broadcast and copartition).
	BuildRows int64
}

// PlanNode builds the EXPLAIN node of the join the report describes:
// the cost-model decision (when the strategy was chosen automatically)
// and, rendered when the tree is cloned for display, the actual
// execution counters.
func (r *JoinReport) PlanNode(pred plan.Pred, left, right *plan.Node) *plan.Node {
	dec := r.Decision
	if dec == nil {
		// Forced strategy: no cost-model verdict to render.
		dec = &plan.JoinDecision{Strategy: r.Strategy, BuildRight: !r.Swapped, EstRows: -1}
	}
	node := plan.JoinNode(*dec, pred, r.Swapped, left, right)
	node.Actual = func() string {
		return fmt.Sprintf("strategy=%s tasks=%d of %d enumerable pairs, pairs_pruned=%d trees_built=%d shuffled=%d build_rows=%d",
			r.Strategy, r.Tasks, r.TotalPairs, r.PairsPruned, atomic.LoadInt64(&r.TreesBuilt),
			atomic.LoadInt64(&r.Shuffled), atomic.LoadInt64(&r.BuildRows))
	}
	return node
}

// JoinStream plans the spatio-temporal join of l and r and returns it
// as a lazy dataset of left-keyed rows plus the partitions of it worth
// visiting; no pair is computed until an action drives the stream.
// lvisit and rvisit list the input partitions that can hold records
// (nil: all) — the pruning the inputs' own filters left behind — and
// neither the statistics pass nor the join touches any other. The
// strategy comes from the cost model on JoinAuto, the orientation is
// normalised so one input is the build side, and opts.Report is filled
// as described on JoinReport.
func JoinStream[V, W any](l *SpatialDataset[V], lvisit []int, r *SpatialDataset[W], rvisit []int,
	opts JoinOptions) (*engine.Dataset[Tuple[JoinRow[V, W]]], []int, error) {
	if opts.Predicate == nil {
		opts.Predicate = stobject.Intersects
	}
	if opts.IndexOrder < 0 {
		opts.IndexOrder = index.DefaultOrder
	}
	if opts.Report == nil {
		opts.Report = &JoinReport{}
	}
	rep := opts.Report
	*rep = JoinReport{TotalPairs: l.ds.NumPartitions() * r.ds.NumPartitions()}
	if lvisit == nil {
		lvisit = engine.AllPartitions(l.ds.NumPartitions())
	}
	if rvisit == nil {
		rvisit = engine.AllPartitions(r.ds.NumPartitions())
	}

	strategy := opts.Strategy
	buildRight := true
	if strategy == JoinAuto {
		ls, err := l.Stats(lvisit)
		if err != nil {
			return nil, nil, fmt.Errorf("core: join stats (left): %w", err)
		}
		rs, err := r.Stats(rvisit)
		if err != nil {
			return nil, nil, fmt.Errorf("core: join stats (right): %w", err)
		}
		dec := plan.PlanJoinStrategy(plan.JoinPlanInput{
			Left:             ls,
			Right:            rs,
			Expand:           opts.ProbeExpansion,
			LeftPartitioned:  l.sp != nil,
			RightPartitioned: r.sp != nil,
			SamePartitioner:  l.sp != nil && l.sp == r.sp,
		})
		rep.Decision = &dec
		strategy = dec.Strategy
		buildRight = dec.BuildRight
	}
	// Co-partitioning needs a stationary partitioner on the probe
	// side; reorient towards one, or fall back to pairs.
	if strategy == JoinCoPartition {
		switch {
		case buildRight && l.sp == nil && r.sp != nil:
			buildRight = false
		case !buildRight && r.sp == nil && l.sp != nil:
			buildRight = true
		case l.sp == nil && r.sp == nil:
			strategy = JoinPairs
		}
	}
	rep.Strategy = strategy

	row := func(lkv Tuple[V], rkv Tuple[W]) Tuple[JoinRow[V, W]] {
		return engine.NewPair(lkv.Key, JoinRow[V, W]{Left: lkv.Value, RightKey: rkv.Key, Right: rkv.Value})
	}
	if buildRight {
		return joinStream(l, lvisit, r, rvisit, opts, row)
	}
	// The build side is the left input: probe with the right one under
	// the converse predicate, and put every row back in the caller's
	// orientation.
	rep.Swapped = true
	pred := opts.Predicate
	opts.Predicate = func(a, b stobject.STObject) bool { return pred(b, a) }
	return joinStream(r, rvisit, l, lvisit, opts,
		func(rkv Tuple[W], lkv Tuple[V]) Tuple[JoinRow[V, W]] { return row(lkv, rkv) })
}

// buildSlot is the loader of one unit of the build side: rows plus,
// when the join indexes and there are any, an R-tree over them. The
// load runs once, in the first task that calls the slot; the others
// wait for it and share the result.
type buildSlot[B any] func() (IndexedPartition[B], error)

// newBuildSlot returns the slot over the rows fetch returns; a tree is
// built when order > 0 and counted in built.
func newBuildSlot[B any](order int, built *int64, fetch func() ([]Tuple[B], error)) buildSlot[B] {
	return sync.OnceValues(func() (IndexedPartition[B], error) {
		items, err := fetch()
		if err != nil || len(items) == 0 || order == 0 {
			return IndexedPartition[B]{Items: items}, err
		}
		atomic.AddInt64(built, 1)
		return buildIndexedPartition(items, order), nil
	})
}

// joinStream is the join operator proper, with the build side settled
// (strategy and orientation are in opts.Report): it assigns every
// visited probe partition the build slots its strategy gives it, keeps
// the probe partitions that have any, and returns the stream whose
// partition p probes slotsOf[p] with the records of probe partition p.
// row makes the result row of a matching (probe, build) record pair.
func joinStream[P, B, R any](probe *SpatialDataset[P], pvisit []int, build *SpatialDataset[B], bvisit []int,
	opts JoinOptions, row func(Tuple[P], Tuple[B]) R) (*engine.Dataset[R], []int, error) {
	pred, order, expand, rep := opts.Predicate, opts.IndexOrder, opts.ProbeExpansion, opts.Report
	rec := probe.recorder()
	slotsOf := make([][]buildSlot[B], probe.ds.NumPartitions())
	visit := make([]int, 0, len(pvisit))
	perProbe := 1 // build slots a probe partition has before pruning

	if rep.Strategy == JoinPairs {
		// One slot per build partition, shared by the probe partitions
		// whose extent reaches it.
		perProbe = len(bvisit)
		prune := probe.sp != nil && build.sp != nil
		slots := make([]buildSlot[B], build.ds.NumPartitions())
		for _, p := range pvisit {
			var reach geom.Envelope
			if prune {
				reach = probe.sp.Extent(p).ExpandBy(expand)
			}
			for _, b := range bvisit {
				if prune && !reach.Intersects(build.sp.Extent(b)) {
					continue
				}
				if slots[b] == nil {
					slots[b] = newBuildSlot(order, &rep.TreesBuilt, func() ([]Tuple[B], error) { return build.ds.ComputePartition(b) })
				}
				slotsOf[p] = append(slotsOf[p], slots[b])
			}
		}
	} else {
		// Broadcast and copartition materialise the visited build
		// partitions once — one after the other: a slot loads inside a
		// task, and a nested job would wait for the executors the tasks
		// waiting for the slot hold.
		collect := func() ([]Tuple[B], error) {
			var rows []Tuple[B]
			for _, b := range bvisit {
				part, err := build.ds.ComputePartition(b)
				if err != nil {
					return nil, err
				}
				rows = append(rows, part...)
			}
			atomic.AddInt64(&rep.BuildRows, int64(len(rows)))
			return rows, nil
		}
		var slotFor func(p int) buildSlot[B]
		if rep.Strategy == JoinBroadcast {
			whole := newBuildSlot(order, &rep.TreesBuilt, collect)
			slotFor = func(int) buildSlot[B] { return whole }
		} else {
			// The copartition shuffle: every build row goes to each probe
			// partition whose extent its expanded envelope overlaps.
			shuffle := sync.OnceValues(func() ([][]Tuple[B], error) {
				rows, err := collect()
				if err != nil {
					return nil, err
				}
				assigner := partition.OverlapAssigner{SP: probe.sp, Expand: expand}
				buckets := make([][]Tuple[B], len(slotsOf))
				var moved int64
				for _, kv := range rows {
					for _, p := range assigner.PartitionsFor(kv.Key) {
						buckets[p] = append(buckets[p], kv)
						moved++
					}
				}
				rec.ShuffledRecords(moved)
				atomic.AddInt64(&rep.Shuffled, moved)
				return buckets, nil
			})
			slotFor = func(p int) buildSlot[B] {
				return newBuildSlot(order, &rep.TreesBuilt, func() ([]Tuple[B], error) {
					buckets, err := shuffle()
					if err != nil {
						return nil, err
					}
					return buckets[p], nil
				})
			}
		}
		// A probe partition the build envelope cannot reach has nothing
		// to probe.
		sum, err := build.Stats(bvisit)
		if err != nil {
			return nil, nil, fmt.Errorf("core: join stats (build side): %w", err)
		}
		reach := sum.MBR.ExpandBy(expand)
		for _, p := range pvisit {
			if sum.Count > 0 && (probe.sp == nil || probe.sp.Extent(p).Intersects(reach)) {
				slotsOf[p] = []buildSlot[B]{slotFor(p)}
			}
		}
	}
	for _, p := range pvisit {
		if len(slotsOf[p]) > 0 {
			visit = append(visit, p)
			rep.Tasks += len(slotsOf[p])
		}
	}
	if rep.Strategy == JoinPairs {
		rep.PairsPruned = rep.TotalPairs - rep.Tasks
	}
	rec.TasksSkipped(int64(len(pvisit)*perProbe - rep.Tasks))

	out := engine.NewStream(probe.Context(), probe.ds.Name()+".join", len(slotsOf),
		func(p int, yield func(R) bool) error {
			slots := slotsOf[p]
			if len(slots) == 0 {
				return nil // pruned: the probe partition is not even streamed
			}
			var (
				cand                     []int32
				scanned, probes, refined int64
				loadErr                  error
			)
			err := probe.ds.EachPartition(p, func(pkv Tuple[P]) bool {
				// Slots load on the first probe record, so a task whose
				// probe stream turns out empty pays for no build; one
				// whose slots all turn out empty stops streaming.
				live := false
				for _, load := range slots {
					s, err := load()
					if err != nil {
						loadErr = err
						return false
					}
					if len(s.Items) == 0 {
						continue
					}
					live = true
					if s.Tree == nil {
						// Nested loop: every pair is checked exactly.
						scanned += int64(len(s.Items))
						for _, bkv := range s.Items {
							if pred(pkv.Key, bkv.Key) && !yield(row(pkv, bkv)) {
								return false
							}
						}
						continue
					}
					probes++
					cand = s.Tree.Query(pkv.Key.Envelope().ExpandBy(expand), cand[:0])
					refined += int64(len(cand))
					for _, id := range cand {
						if bkv := s.Items[id]; pred(pkv.Key, bkv.Key) && !yield(row(pkv, bkv)) {
							return false
						}
					}
				}
				return live
			})
			rec.ElementsScanned(scanned)
			rec.IndexProbes(probes)
			rec.CandidatesRefined(refined)
			if loadErr != nil {
				return loadErr
			}
			return err
		})
	return out.WithRecorder(probe.rec), visit, nil
}

// Join computes the spatio-temporal join of l and r: Collect over
// JoinStream.
func Join[V, W any](l *SpatialDataset[V], r *SpatialDataset[W], opts JoinOptions) ([]Tuple[JoinRow[V, W]], error) {
	ds, visit, err := JoinStream(l, nil, r, nil, opts)
	if err != nil {
		return nil, err
	}
	return ds.CollectPartitions(visit)
}

// JoinCount is Join restricted to counting: matching pairs stream into
// a counter and no result row outlives its yield — the benchmark
// action pays the probe and refinement cost only.
func JoinCount[V, W any](l *SpatialDataset[V], r *SpatialDataset[W], opts JoinOptions) (int64, error) {
	ds, visit, err := JoinStream(l, nil, r, nil, opts)
	if err != nil {
		return 0, err
	}
	return ds.CountPartitions(visit)
}

// SelfJoinWithinDistanceCount counts the unordered within-eps pairs
// (including self pairs) of the dataset — the exact workload and
// result convention of the paper's Figure 4 micro-benchmark. Compared
// to Join(s, s) it exploits the symmetry of the self join (only
// partition pairs li <= ri are processed), streams counts instead of
// result rows, shares one build slot per partition, and prunes
// partition pairs by extent when the dataset is spatially
// partitioned. order <= 0 selects the default R-tree order.
func SelfJoinWithinDistanceCount[V any](s *SpatialDataset[V], eps float64, order int) (int64, error) {
	if order <= 0 {
		order = index.DefaultOrder
	}
	n := s.ds.NumPartitions()
	type task struct{ li, ri int }
	var tasks []task
	pruned := 0
	for li := 0; li < n; li++ {
		for ri := li; ri < n; ri++ {
			if s.sp != nil {
				le := s.sp.Extent(li).ExpandBy(eps)
				if !le.Intersects(s.sp.Extent(ri)) {
					pruned++
					continue
				}
			}
			tasks = append(tasks, task{li, ri})
		}
	}
	ctx := s.Context()
	rec := s.recorder()
	rec.TasksSkipped(int64(pruned))

	slots := make([]buildSlot[V], n)
	for ri := range slots {
		slots[ri] = newBuildSlot(order, new(int64), func() ([]Tuple[V], error) { return s.ds.ComputePartition(ri) })
	}

	var total atomic.Int64
	err := ctx.RunJobRecorder(nil, rec, engine.AllPartitions(len(tasks)), func(t int) error {
		li, ri := tasks[t].li, tasks[t].ri
		same := li == ri
		var (
			right           IndexedPartition[V]
			loadErr         error
			local           int64
			buf             []int32
			probes, refined int64
		)
		probe := func(i int, lkv Tuple[V]) bool {
			if right.Tree == nil {
				// Lazy load: a cross-partition task whose left stream is
				// empty never pays materialisation or build.
				if right, loadErr = slots[ri](); right.Tree == nil {
					return false
				}
			}
			probes++
			buf = right.Tree.Query(lkv.Key.Envelope().ExpandBy(eps), buf[:0])
			refined += int64(len(buf))
			for _, j := range buf {
				if same && int(j) < i {
					continue // count unordered pairs once
				}
				if lkv.Key.WithinDistance(right.Items[j].Key, eps, nil) {
					local++
				}
			}
			return true
		}
		var err error
		if same {
			// The left partition is the slot's own rows.
			if right, loadErr = slots[ri](); right.Tree != nil {
				for i, lkv := range right.Items {
					probe(i, lkv)
				}
			}
		} else {
			i := 0
			err = s.ds.EachPartition(li, func(lkv Tuple[V]) bool {
				i++
				return probe(i-1, lkv)
			})
		}
		if err == nil {
			err = loadErr
		}
		rec.IndexProbes(probes)
		rec.CandidatesRefined(refined)
		total.Add(local)
		return err
	})
	return total.Load(), err
}
