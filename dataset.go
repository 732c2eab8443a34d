package stark

// This file implements the fluent query builder of the public DSL:
// Dataset[V], the Go equivalent of STARK's implicit conversion from
// RDD[(STObject, V)] to the spatial operator surface.
//
// Every transformation returns a new *Dataset[V] immediately and
// defers its work (and its errors) into a resolve thunk; nothing runs
// until a terminal action (Collect, Count, KNN, Run, ...). The first
// step that fails is the error the action reports, annotated with the
// step name — so chains read exactly like the Scala DSL without
// per-step error plumbing:
//
//	hits, err := stark.Parallelize(ctx, pairs).
//		PartitionBy(stark.BSP(1024)).
//		Index(stark.Live(5)).
//		Intersects(q).
//		Collect()
//
// Resolution is memoised: a Dataset resolves at most once, so a
// shared upstream (a partitioned, indexed base serving many queries)
// pays its shuffle and index build a single time.

import (
	"context"
	"fmt"
	"sync"

	"stark/internal/attr"
	"stark/internal/core"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/plan"
)

// state is the resolved form of a Dataset: the engine-level spatial
// dataset (its partitions under their trees when the mode is
// persistent), the configured index mode, the scan filters still
// awaiting compilation, and the pruning envelopes of filters already
// folded into the lineage.
type state[V any] struct {
	sds  *core.SpatialDataset[V] // always set on success
	mode IndexMode
	// pruneEnvs are the envelopes of folded scan filters; a partition
	// whose extent misses any of them cannot contribute to the
	// result, so actions skip it (the paper's partition pruning).
	pruneEnvs []geom.Envelope
	// visit, when non-nil, lists the only partitions that can hold
	// records (a join's probe partitions the build side can reach);
	// pruneEnvs prune it further. nil means all of them.
	visit []int
	// pending are the scan filters not yet folded into the lineage.
	// Record-enumerating actions hand them to the cost-based planner
	// (predicate reordering, stats-based pruning, index-mode choice);
	// every other consumer folds them in caller order via flush.
	pending []pendingPred
	// noOpt disables the planner (the tests' Optimize(false), the
	// naive side of planned==naive): pending filters fold in caller
	// order with partitioner-extent pruning only.
	noOpt bool
	// schema is the registered attribute schema (WithSchema): the typed
	// field extractors attribute filters compile against.
	schema *attr.Schema[V]
	// base is the EXPLAIN lineage of everything below the pending
	// filters.
	base *plan.Node
	// live, when set, fills in the probe source from the packed bases
	// and deltas of a mutable-dataset snapshot (see
	// MutableDataset.Snapshot) instead of from sds; sds keeps
	// the postings of the fields the snapshot does not maintain. It
	// describes the UNFILTERED snapshot, so flush drops it as soon as a
	// predicate is folded into the lineage.
	live func(rec *engine.Recorder) probeSource[V]
}

// probeSource is the index side of a chain as compile sees it,
// whatever holds it: per-partition trees to probe with an envelope and
// per-partition postings to enumerate by attribute value. Both probes
// are lazy streams over the dataset's own partitions; keep sees the
// whole record, so the exact spatial predicates and the typed
// attribute checks refine candidates in one pass.
type probeSource[V any] struct {
	// trees is nil while no partition trees exist; the planner then
	// prices building them.
	trees func(env geom.Envelope, keep func(Tuple[V]) bool) *engine.Dataset[Tuple[V]]
	// hasPostings reports whether postings over the field exist
	// already; the planner prices building the others, which postings
	// does in the dataset's sidecar on first use.
	hasPostings func(field string) bool
	postings    func(first attr.Pred, keep func(Tuple[V]) bool) (*engine.Dataset[Tuple[V]], error)
}

// source returns the chain's probe source, charging probes to rec: the
// partition trees and the postings of sds (already a recorder view, see
// withRecorder) — kept trees under a persistent index, transient ones
// under a live index —, or, on a live snapshot, its trees and the
// postings of its maintained fields, sds serving the others.
func (st *state[V]) source(rec *engine.Recorder) probeSource[V] {
	sds, order := st.sds, st.mode.order
	src := probeSource[V]{hasPostings: sds.HasAttrIndex, postings: sds.AttrFilter}
	if st.mode.kind != modeNone {
		src.trees = func(env geom.Envelope, keep func(Tuple[V]) bool) *engine.Dataset[Tuple[V]] {
			return sds.Probe(order, env, keep)
		}
	}
	if st.live == nil {
		return src
	}
	live, own := st.live(rec), src.postings
	src.trees, src.hasPostings = live.trees, live.hasPostings
	src.postings = func(first attr.Pred, keep func(Tuple[V]) bool) (*engine.Dataset[Tuple[V]], error) {
		if !live.hasPostings(first.Field) {
			// Not a maintained field: the sidecar postings of the
			// chain's rows, built on first use.
			return own(first, keep)
		}
		return live.postings(first, keep)
	}
	return src
}

// withRecorder returns the state with a recorder view of its spatial
// dataset, so every metric the chain's operators charge lands on rec
// (in addition to the context totals). The view shares partitions,
// trees, caches, statistics and columns with the original.
func (st state[V]) withRecorder(rec *engine.Recorder) state[V] {
	if st.sds != nil {
		st.sds = st.sds.WithRecorder(rec)
	}
	return st
}

// pendingPred is one deferred scan filter: the execution closure plus
// the planner's description of it. opaque marks predicates whose
// behaviour is not fully described by (kind, query object) — a custom
// predicate or distance function — which therefore cannot be
// fingerprinted for result caching. attr, when non-nil, marks a typed
// attribute predicate instead of a spatial one: q/pred/info are unset
// and the predicate is fully described by its canonical text form.
type pendingPred struct {
	name   string
	q      STObject
	pred   Predicate
	info   plan.Pred
	opaque bool
	attr   *attr.Pred
}

// Dataset is a lazily evaluated spatio-temporal query over records of
// (STObject, V). Build one with Parallelize, derive new ones with the
// transformation methods, and execute with an action.
//
// A Dataset carries any error produced while building the chain and
// surfaces it at the action; transformations on a failed Dataset are
// no-ops that preserve the first error.
type Dataset[V any] struct {
	ctx     *Context
	resolve func() (state[V], error)

	// compileOnce memoises the planner's compilation of the resolved
	// state, so repeated actions on one Dataset plan (and count
	// pruned partitions) once.
	compileOnce sync.Once
	comp        compiled[V]
	compErr     error

	// flushOnce memoises the caller-order fold of pending filters, so
	// the consumers that need the concrete filtered dataset (joins, kNN,
	// Stats) all see one instance and share its statistics cache.
	flushOnce sync.Once
	flushed   state[V]
	flushErr  error

	// recOnce memoises the per-job recorder: every metric an action on
	// this Dataset generates is attributed to it (and rolled into the
	// context totals), so Explain actuals, execution traces and the
	// query service report per-query counters that are exact even when
	// many queries share the context. See Context.NewJobRecorder.
	recOnce sync.Once
	jobRec  *engine.Recorder

	// phases are the recorded execution phases of this Dataset (plan
	// compilation plus every action run), assembled by Trace().
	traceMu sync.Mutex
	phases  []tracePhase
}

// jobRecorder returns the Dataset's per-job metrics recorder,
// creating it on first use.
func (d *Dataset[V]) jobRecorder() *engine.Recorder {
	d.recOnce.Do(func() { d.jobRec = d.ctx.NewJobRecorder() })
	return d.jobRec
}

// newDataset wraps a resolve step with memoisation. A resolved Dataset
// keeps its state and no longer pins its parent: upstream Datasets the
// caller does not hold, and the rows only they referenced, are then
// garbage.
func newDataset[V any](ctx *Context, step func() (state[V], error)) *Dataset[V] {
	var (
		once sync.Once
		st   state[V]
		err  error
	)
	return &Dataset[V]{ctx: ctx, resolve: func() (state[V], error) {
		once.Do(func() {
			st, err = step()
			// The memoised state is all a resolved chain needs: dropping
			// the step drops the parent chain and whatever it captured (a
			// Parallelize'd slice, the rows a shuffle has since copied).
			step = nil
		})
		return st, err
	}}
}

// chain derives a Dataset whose resolution applies step to the
// receiver's resolved state. Errors from upstream pass through
// untouched (they already carry their own step annotation); errors
// from this step are annotated with name.
func (d *Dataset[V]) chain(name string, step func(st state[V]) (state[V], error)) *Dataset[V] {
	parent := d.resolve
	return newDataset(d.ctx, func() (state[V], error) {
		st, err := parent()
		if err != nil {
			return state[V]{}, err
		}
		out, err := step(st)
		if err != nil {
			return state[V]{}, fmt.Errorf("stark: %s: %w", name, err)
		}
		return out, nil
	})
}

// Parallelize lifts in-memory records into a Dataset — the DSL's
// entry point, standing in for the Scala implicit conversion. The
// optional numPartitions overrides the context parallelism. The slice
// is not copied; do not mutate it while queries run.
func Parallelize[V any](ctx *Context, records []Tuple[V], numPartitions ...int) *Dataset[V] {
	n := 0
	if len(numPartitions) > 0 {
		n = numPartitions[0]
	}
	return newDataset(ctx, func() (state[V], error) {
		sds := core.Wrap(engine.Parallelize(ctx, records, n))
		scan := plan.NewNode("Scan", "parallelize")
		scan.EstRows = float64(len(records))
		scan.ActRows = int64(len(records))
		scan.Prop("partitions=%d", sds.NumPartitions())
		return state[V]{sds: sds, base: scan}, nil
	})
}

// ---- Transformations ----

// PartitionBy shuffles the dataset with a spatial partitioner built
// by the given constructor (Grid, BSP or Voronoi). The configured
// index mode, if any, is re-applied after the shuffle so PartitionBy
// and Index compose in either order.
//
// The shuffle is the layout step. Inside a partition the rows keep
// source order (upstream partition, then position), so shuffling the
// same rows twice gives the same partitions row for row and an index
// saved from one (SaveIndex) fits the other (LoadIndex); point keys are
// laid out in that order too. The shuffled dataset owns its rows: once
// this Dataset has resolved it no longer pins its parent, so the slice
// handed to Parallelize is garbage as soon as the caller drops it.
func (d *Dataset[V]) PartitionBy(p Partitioner) *Dataset[V] {
	return d.chain("partitionBy", func(st state[V]) (state[V], error) {
		st, err := st.flush()
		if err != nil {
			return state[V]{}, err
		}
		// Materialise the upstream once, honouring pending partition
		// pruning (zero-copy when it already holds its partitions): a
		// data-driven recipe (Grid, BSP, Voronoi) reads its keys from the
		// slices the shuffle then scatters, so the lineage runs once.
		parts, err := st.sds.Dataset().ComputePartitions(nil, st.prunedVisit(d.ctx.Recorder()))
		if err != nil {
			return state[V]{}, err
		}
		n := 0
		for _, rows := range parts {
			n += len(rows)
		}
		keys := make([]STObject, 0, n)
		for _, rows := range parts {
			for i := range rows {
				keys = append(keys, rows[i].Key)
			}
		}
		sp, err := p.Build(keys)
		if err != nil {
			return state[V]{}, err
		}
		parted, err := core.Wrap(engine.FromPartitions(d.ctx, parts)).PartitionBy(sp)
		if err != nil {
			return state[V]{}, err
		}
		node := plan.NewNode("Partition", p.String()).
			Prop("partitions=%d", parted.NumPartitions()).
			Add(st.base)
		return applyMode(state[V]{sds: parted, mode: st.mode, noOpt: st.noOpt, schema: st.schema, base: node})
	})
}

// Index configures the dataset's indexing mode — the paper's three
// modes behind one call: NoIndexing scans, Live(order) builds
// per-partition R-trees on every query, Persistent(order)
// materialises them once and reuses them across queries. Subsequent
// filter and kNN operators use whatever mode is configured.
func (d *Dataset[V]) Index(m IndexMode) *Dataset[V] {
	return d.chain("index", func(st state[V]) (state[V], error) {
		if err := m.validate(); err != nil {
			return state[V]{}, err
		}
		st, err := st.flush()
		if err != nil {
			return state[V]{}, err
		}
		st.mode = m
		st.base = plan.NewNode("Index", m.String()).Add(st.base)
		return applyMode(st)
	})
}

// applyMode builds the partition trees a persistent st.mode keeps: the
// rows laid out under them become the chain's dataset (its columns, if
// it had them, in leaf order), so the rows they were copied from are
// garbage once the chain resolves. A live index keeps nothing: each job
// lays out a copy of what it visits.
func applyMode[V any](st state[V]) (state[V], error) {
	if st.mode.kind != modePersistent {
		return st, nil
	}
	sds, err := st.sds.Index(st.mode.order)
	if err != nil {
		return state[V]{}, err
	}
	st.sds = sds
	return st, nil
}

// Cache marks the underlying data for in-memory materialisation, so
// repeated actions on the same chain compute each partition once.
func (d *Dataset[V]) Cache() *Dataset[V] {
	return d.chain("cache", func(st state[V]) (state[V], error) {
		st, err := st.flush()
		if err != nil {
			return state[V]{}, err
		}
		st.sds.Cache()
		return st, nil
	})
}

// Columnar extracts per-partition SoA envelope/interval columns so
// subsequent filters can run as batched coarse kernels with exact
// refinement of survivors only — the ColumnarScan access path in
// EXPLAIN, chosen by cost. The columns follow the rows: rows a
// persistent index laid out keep its leaf order, and any other rows are
// laid out once along a Hilbert curve of their envelope centres, a copy
// the chain adopts in place of the rows it had (as Index(Persistent)
// adopts its leaf order), so survivors of small-window queries are
// contiguous in memory.
//
// Like Cache, the sidecar describes the dataset at this point in the
// chain: pending filters are folded first, and later transformations
// return fresh datasets without a sidecar. For mutable datasets build
// it per snapshot — each generation is a new Dataset (the server
// catalog does this lazily per generation).
func (d *Dataset[V]) Columnar() *Dataset[V] {
	return d.chain("columnar", func(st state[V]) (state[V], error) {
		st, err := st.flush()
		if err != nil {
			return state[V]{}, err
		}
		if st.sds, err = st.sds.Columnar(); err != nil {
			return state[V]{}, err
		}
		return st, nil
	})
}

// Where keeps the records whose key satisfies pred against q. The
// filter is deferred: at the action the cost-based planner orders
// pending predicates by estimated selectivity, prunes partitions from
// collected statistics, and picks scan vs index probe (see
// ExplainNode). pruneExpand must cover how far a matching record's
// envelope can lie outside q's (pass the distance for distance
// predicates, 0 otherwise).
func (d *Dataset[V]) Where(q STObject, pred Predicate, pruneExpand float64) *Dataset[V] {
	return d.where("where", plan.Custom, q, pred, pruneExpand, true)
}

func (d *Dataset[V]) where(name string, kind plan.PredKind, q STObject, pred Predicate, pruneExpand float64, opaque bool) *Dataset[V] {
	return d.chain(name, func(st state[V]) (state[V], error) {
		if q.IsEmpty() {
			return state[V]{}, fmt.Errorf("empty query object")
		}
		if pred == nil {
			return state[V]{}, fmt.Errorf("nil predicate")
		}
		pp := pendingPred{name: name, q: q, pred: pred, info: planPred(kind, q, pruneExpand), opaque: opaque}
		st.pending = append(st.pending[:len(st.pending):len(st.pending)], pp)
		return st, nil
	})
}

// planPred builds the planner's description of a predicate.
func planPred(kind plan.PredKind, q STObject, pruneExpand float64) plan.Pred {
	p := plan.Pred{
		Kind:     kind,
		Env:      q.Envelope(),
		Expand:   pruneExpand,
		Vertices: vertexCount(q.Geo()),
	}
	if iv, ok := q.Time(); ok {
		p.HasTime = true
		p.Begin, p.End = int64(iv.Start), int64(iv.End)
	}
	return p
}

// vertexCount returns the vertex count of a geometry — the planner's
// refinement-cost proxy.
func vertexCount(g Geometry) int {
	switch t := g.(type) {
	case Point:
		return 1
	case geom.MultiPoint:
		return t.NumPoints()
	case LineString:
		return t.NumPoints()
	case geom.Polygon:
		n := t.Shell().NumPoints()
		for h := 0; h < t.NumHoles(); h++ {
			n += t.HoleAt(h).NumPoints()
		}
		return n
	default:
		return 1
	}
}

// flush folds the pending scan filters into the lineage in caller
// order — the pre-planner execution strategy, used by every consumer
// that needs the concrete filtered dataset (repartitioning, re-keying,
// joins, clustering) rather than a plannable scan. It only
// extends the lineage and runs no job: a filter becomes a fused scan
// stage, or a lazy probe of the partition trees when the chain holds
// an index, and either way the dataset keeps its partitions and
// partitioner and the filter's envelope joins pruneEnvs.
func (st state[V]) flush() (state[V], error) {
	pending := st.pending
	st.pending = nil
	if len(pending) > 0 {
		// The live probe source describes the unfiltered snapshot; once
		// a predicate folds into the lineage it would answer with too
		// many rows.
		st.live = nil
	}
	for _, p := range pending {
		if p.attr != nil {
			// A typed attribute filter never moves a record between
			// partitions, but it invalidates any partition trees; fold it
			// as a fused payload-aware scan stage. The plan node keeps the
			// predicate's canonical text, so flushed attribute filters
			// stay fingerprintable.
			if st.schema == nil {
				return state[V]{}, fmt.Errorf("stark: %s: no attribute schema registered", p.name)
			}
			fld, ok := st.schema.Field(p.attr.Field)
			if !ok {
				return state[V]{}, fmt.Errorf("stark: %s: no field %q in schema", p.name, p.attr.Field)
			}
			ap := *p.attr
			st.sds = st.sds.WhereRows(func(key STObject, v V) bool { return ap.Matches(fld.Get(key, v)) })
			st.mode = NoIndexing
			st.base = plan.NewNode("AttrFilter", ap.String()).Add(st.base)
			continue
		}
		pruneEnv := p.info.PruneEnv()
		node := plan.NewNode("Filter", p.info.String()).Add(st.base)
		if st.mode.kind != modeNone {
			// Indexed probe + exact refinement. Like the Scala DSL, an
			// indexed operator yields an unindexed RDD.
			probed, err := core.WrapPartitioned(st.sds.Probe(st.mode.order, pruneEnv, func(kv Tuple[V]) bool {
				return p.pred(kv.Key, p.q)
			}), st.sds.Partitioner())
			if err != nil {
				return state[V]{}, fmt.Errorf("stark: %s: %w", p.name, err)
			}
			st.sds = probed
			node.Prop("index=probe (existing partition trees)")
		} else {
			st.sds = st.sds.Where(p.q, pruneEnv, p.pred)
		}
		st.pruneEnvs = append(st.pruneEnvs[:len(st.pruneEnvs):len(st.pruneEnvs)], pruneEnv)
		st.mode = NoIndexing
		st.base = node
	}
	return st, nil
}

// Intersects keeps the records whose key intersects q in the combined
// spatio-temporal semantics.
func (d *Dataset[V]) Intersects(q STObject) *Dataset[V] {
	return d.where("intersects", plan.Intersects, q, Intersects, 0, false)
}

// Contains keeps the records whose key completely contains q.
func (d *Dataset[V]) Contains(q STObject) *Dataset[V] {
	return d.where("contains", plan.Contains, q, Contains, 0, false)
}

// ContainedBy keeps the records whose key is completely contained by
// q — the paper's events.containedBy(qry).
func (d *Dataset[V]) ContainedBy(q STObject) *Dataset[V] {
	return d.where("containedBy", plan.ContainedBy, q, ContainedBy, 0, false)
}

// CoveredBy is ContainedBy with boundary tolerance.
func (d *Dataset[V]) CoveredBy(q STObject) *Dataset[V] {
	return d.where("coveredBy", plan.CoveredBy, q, CoveredBy, 0, false)
}

// WithinDistance keeps the records whose key lies within maxDist of q
// under df (nil selects the exact planar distance). A custom df is an
// opaque closure: the chain still plans and executes normally, but it
// refuses to fingerprint, so results under a custom metric are never
// result-cached.
func (d *Dataset[V]) WithinDistance(q STObject, maxDist float64, df DistanceFunc) *Dataset[V] {
	return d.where("withinDistance", plan.WithinDistance, q, WithinDistancePredicate(maxDist, df), maxDist, df != nil)
}

// Sample keeps each record with the given probability,
// deterministically derived from seed. Partitioning and pending
// pruning survive: sampling never moves a record.
func (d *Dataset[V]) Sample(fraction float64, seed int64) *Dataset[V] {
	return d.chain("sample", func(st state[V]) (state[V], error) {
		if fraction < 0 || fraction > 1 {
			return state[V]{}, fmt.Errorf("fraction %v outside [0, 1]", fraction)
		}
		st, err := st.flush()
		if err != nil {
			return state[V]{}, err
		}
		sampled, err := core.WrapPartitioned(st.sds.Dataset().Sample(fraction, seed), st.sds.Partitioner())
		if err != nil {
			return state[V]{}, err
		}
		st.sds = sampled
		st.mode = NoIndexing
		st.base = plan.NewNode("Sample", fmt.Sprintf("fraction=%g seed=%d", fraction, seed)).Add(st.base)
		return st, nil
	})
}

// ReKey replaces the spatio-temporal key of every record. The
// partitioner, indexes and pending pruning are dropped: new keys need
// not respect the old layout. Repartition afterwards if needed.
func ReKey[V any](d *Dataset[V], f func(key STObject, v V) STObject) *Dataset[V] {
	return d.chain("reKey", func(st state[V]) (state[V], error) {
		st, err := st.flush()
		if err != nil {
			return state[V]{}, err
		}
		return state[V]{
			sds:    core.ReKey(st.sds, f),
			visit:  st.visit,
			noOpt:  st.noOpt,
			schema: st.schema,
			base:   plan.NewNode("ReKey", "").Add(st.base),
		}, nil
	})
}

// ---- Actions ----

// forceFlushed resolves the chain and folds any pending scan filters
// into the lineage in caller order — for consumers that need the
// concrete filtered dataset rather than a plannable scan. The fold
// runs no job (see flush) and is memoised, so the flushed dataset
// instance is stable and its statistics cache can hit.
func (d *Dataset[V]) forceFlushed() (state[V], error) {
	d.flushOnce.Do(func() {
		st, err := d.resolve()
		if err != nil {
			d.flushErr = err
			return
		}
		rec := d.jobRecorder()
		d.flushed, d.flushErr = st.withRecorder(rec).flush()
		if d.flushErr == nil {
			d.flushed = d.flushed.withRecorder(rec)
		}
	})
	return d.flushed, d.flushErr
}

// Run executes the chain for its side effects (shuffles, index
// builds, caching, plan compilation) and reports the first deferred
// error. Useful to warm a shared base dataset or to surface chain and
// planning errors eagerly, before a streaming consumer commits to a
// response.
func (d *Dataset[V]) Run() error {
	_, err := d.compiled()
	return err
}

// prunedVisit returns the partitions an action must visit: st.visit
// (all of them when unset) less those a folded filter envelope rules
// out.
func (st *state[V]) prunedVisit(rec *engine.Recorder) []int {
	visit := st.visit
	if visit == nil {
		visit = engine.AllPartitions(st.sds.NumPartitions())
	}
	if sp := st.sds.Partitioner(); sp != nil && len(st.pruneEnvs) > 0 {
		kept := touching(sp, visit, st.pruneEnvs)
		rec.Add(engine.TasksSkipped, int64(len(visit)-len(kept)))
		visit = kept
	}
	return visit
}

// touching returns the partitions of visit whose extent intersects
// every one of envs: a partition whose extent misses a filter's
// pruning envelope cannot contribute to the result.
func touching(sp SpatialPartitioner, visit []int, envs []geom.Envelope) []int {
	kept := make([]int, 0, len(visit))
	for _, p := range visit {
		ext := sp.Extent(p)
		hit := true
		for _, env := range envs {
			if !ext.Intersects(env) {
				hit = false
				break
			}
		}
		if hit {
			kept = append(kept, p)
		}
	}
	return kept
}

// runPhase is the one way an action executes: it compiles the chain
// (once per Dataset), hands the engine dataset and the partitions to
// visit to run, and records the phase under name with the rows run
// reports.
func (d *Dataset[V]) runPhase(name string, run func(ds *engine.Dataset[Tuple[V]], visit []int) (int64, error)) error {
	c, err := d.compiled()
	if err != nil {
		return err
	}
	m := d.beginPhase()
	rows, err := run(c.ds, c.visit)
	d.endPhase(name, m, rows)
	return err
}

// Collect materialises the query result.
func (d *Dataset[V]) Collect() ([]Tuple[V], error) {
	var out []Tuple[V]
	err := d.runPhase("collect", func(ds *engine.Dataset[Tuple[V]], visit []int) (_ int64, err error) {
		out, err = ds.CollectPartitions(visit)
		return int64(len(out)), err
	})
	return out, err
}

// Count returns the number of result records.
func (d *Dataset[V]) Count() (int64, error) {
	var n int64
	err := d.runPhase("count", func(ds *engine.Dataset[Tuple[V]], visit []int) (_ int64, err error) {
		n, err = ds.CountPartitions(visit)
		return n, err
	})
	return n, err
}

// Take returns up to n result records, scanning partitions in order.
// The scan is fused and short-circuiting: partition pipelines — index
// probes included — stop mid-stream once n records are gathered,
// partitions pruned by pending filters are never touched, and later
// partitions are not scheduled at all.
func (d *Dataset[V]) Take(n int) ([]Tuple[V], error) {
	var out []Tuple[V]
	err := d.runPhase("take", func(ds *engine.Dataset[Tuple[V]], visit []int) (_ int64, err error) {
		out, err = ds.TakePartitions(visit, n)
		return int64(len(out)), err
	})
	return out, err
}

// StreamEncodedContext streams the result to a consumer that
// serialises it. The partitions are cut into morsels that run as one
// ordered job on all executors: every morsel task appends the encoding
// of its rows (enc: append kv to dst, return the grown slice) to one
// buffer as they leave the plan, and sink receives each morsel's bytes
// and row count sequentially, in partition order, then row order. The
// rows are never materialised and enc is called from several
// goroutines at once. A chunk is only valid until sink returns; sink
// returning false stops the stream and an enc error fails it, and at
// most 2 × parallelism chunks are encoded beyond the one sink holds.
// Cancellation is cooperative: once ctx is done no further morsel is
// started and the stream returns ctx.Err(). This is the action behind
// the query service's NDJSON endpoint, which writes each chunk to the
// socket with one Write and aborts the scan when the client hangs up or
// the request deadline fires.
func (d *Dataset[V]) StreamEncodedContext(ctx context.Context,
	enc func(dst []byte, kv Tuple[V]) ([]byte, error), sink func(chunk []byte, rows int64) bool) error {
	if enc == nil || sink == nil {
		return fmt.Errorf("stark: streamEncodedContext: nil encoder or consumer")
	}
	return d.runPhase("stream", func(ds *engine.Dataset[Tuple[V]], visit []int) (rows int64, err error) {
		err = ds.StreamPartitionsEncodedContext(ctx, visit, enc, func(chunk []byte, n int) bool {
			rows += int64(n)
			return sink(chunk, int64(n))
		})
		return rows, err
	})
}

// NumPartitions resolves the chain and returns the partition count. A
// filter never changes it: a chain filtered through an index reports
// the dataset's own layout, like one filtered by a scan.
func (d *Dataset[V]) NumPartitions() (int, error) {
	st, err := d.forceFlushed()
	if err != nil {
		return 0, err
	}
	return st.sds.NumPartitions(), nil
}

// Partitioner resolves the chain and returns the spatial partitioner,
// or nil when the data is not spatially partitioned. Filters keep it,
// whether they scan or probe an index.
func (d *Dataset[V]) Partitioner() (SpatialPartitioner, error) {
	st, err := d.forceFlushed()
	if err != nil {
		return nil, err
	}
	return st.sds.Partitioner(), nil
}

// CountBy counts the result records per key derived by key —
// partition-parallel, the DSL's GROUP ... COUNT.
func CountBy[V any, K comparable](d *Dataset[V], key func(Tuple[V]) K) (map[K]int64, error) {
	st, err := d.forceFlushed()
	if err != nil {
		return nil, err
	}
	pairs := engine.Map(st.sds.Dataset(), func(kv Tuple[V]) engine.Pair[K, int64] {
		return engine.NewPair(key(kv), int64(1))
	})
	counts, err := engine.CountByKey(pairs)
	if err != nil {
		return nil, fmt.Errorf("stark: countBy: %w", err)
	}
	return counts, nil
}

// Neighbor is one kNN result record with its distance to the query.
type Neighbor[V any] = core.NeighborResult[V]

// KNN returns the k records nearest to q, sorted by ascending
// distance, under the optional df (omitted = exact planar distance).
// With an index configured the partition trees answer the search;
// either way partitions provably farther than the current k-th
// neighbour are pruned.
func (d *Dataset[V]) KNN(q STObject, k int, df ...DistanceFunc) ([]Neighbor[V], error) {
	return d.KNNContext(context.Background(), q, k, df...)
}

// KNNContext is KNN with cooperative cancellation: per-partition
// scans (or index probes) run through the task pool in bounded
// rounds, and once ctx is done no further partition is scheduled and
// running scans abort mid-stream — the action behind the query
// service's knn clause, which stops the search when the client hangs
// up.
func (d *Dataset[V]) KNNContext(ctx context.Context, q STObject, k int, df ...DistanceFunc) ([]Neighbor[V], error) {
	var dist DistanceFunc
	if len(df) > 0 {
		dist = df[0]
	}
	st, err := d.forceFlushed()
	if err != nil {
		return nil, err
	}
	m := d.beginPhase()
	nbrs, err := st.sds.KNNContext(ctx, q, k, dist, st.mode.order)
	d.endPhase("knn", m, int64(len(nbrs)))
	if err != nil {
		return nil, fmt.Errorf("stark: kNN: %w", err)
	}
	return nbrs, nil
}

// ClusterOptions configures the Cluster action.
type ClusterOptions = core.ClusterOptions

// ClusteredRecord pairs an input record with its DBSCAN label
// (ClusterNoise for noise points).
type ClusteredRecord[V any] = core.ClusteredRecord[V]

// Cluster runs DBSCAN over the query result, as one partitioned self
// join within Eps of the key centroids, and returns one labelled record
// per input record plus the number of clusters. Once ctx is done no
// further task of the collect or the join is scheduled, and Cluster
// returns ctx's error.
func (d *Dataset[V]) Cluster(ctx context.Context, opts ClusterOptions) ([]ClusteredRecord[V], int, error) {
	st, err := d.forceFlushed()
	if err != nil {
		return nil, 0, err
	}
	m := d.beginPhase()
	recs, n, err := st.sds.Cluster(ctx, opts)
	d.endPhase("cluster", m, int64(len(recs)))
	if err != nil {
		return nil, 0, fmt.Errorf("stark: cluster: %w", err)
	}
	return recs, n, nil
}
