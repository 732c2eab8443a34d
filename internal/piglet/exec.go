package piglet

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"stark"
	"stark/internal/geom"
	"stark/internal/plan"
	"stark/internal/workload"
)

// The executor compiles piglet statements onto the public stark DSL.
// Every relation carries a fluent Dataset; FILTER, PARTITION and
// INDEX chain *lazily*, so a script's consecutive filters accumulate
// on one chain and the DSL's cost-based planner compiles them
// together — cross-statement predicate pushdown, selectivity-ordered
// evaluation and stats-based partition pruning fall out of the
// deferral. Rows materialise when a statement needs them (DUMP,
// STORE, DESCRIBE, LIMIT, ...) or, at the latest, when the script
// finishes. EXPLAIN renders the compiled plan of a relation, its
// script-level lineage (LOAD, JOIN, KNN, ...) grafted under the plan
// the DSL built for the deferred stages.

// Row is a piglet tuple: the source event plus fields produced by
// operators downstream (cluster label, kNN distance, group counts).
type Row struct {
	Event    workload.Event
	Cluster  int     // NotClustered when not clustered yet
	Distance float64 // kNN distance; 0 unless produced by KNN
	Group    string  // GROUPCOUNT key
	Count    int64   // GROUPCOUNT value
}

// NotClustered marks rows that never passed a CLUSTER operator.
const NotClustered = stark.ClusterNoise - 1

// rowSchema names the Row fields FILTER field comparisons compile
// against.
var rowSchema = stark.NewAttrSchema[Row]().
	Int64("id", func(_ stark.STObject, r Row) int64 { return int64(r.Event.ID) }).
	String("category", func(_ stark.STObject, r Row) string { return r.Event.Category }).
	Int64("time", func(_ stark.STObject, r Row) int64 { return r.Event.Time }).
	Int64("cluster", func(_ stark.STObject, r Row) int64 { return int64(r.Cluster) })

// rowsCell is the materialisation state of a relation, shared between
// relations that are guaranteed to hold the same rows (a partitioned
// relation shares its input's cell, as repartitioning moves no row in
// or out).
type rowsCell struct {
	done bool
	rows []stark.Tuple[Row]
	err  error
	src  *stark.Dataset[Row]
}

// Relation is a named intermediate result: the Dataset the next
// operator chains from (spatially partitioned and/or indexed when
// PARTITION/INDEX produced it), its lazily materialised rows, and the
// script-level lineage node EXPLAIN grafts under the DSL's plan.
type Relation struct {
	ds   *stark.Dataset[Row]
	cell *rowsCell
	base *plan.Node
	line int // statement line that defined the relation
}

// materialise collects the relation's rows once.
func (r *Relation) materialise() ([]stark.Tuple[Row], error) {
	if !r.cell.done {
		r.cell.rows, r.cell.err = r.cell.src.Collect()
		r.cell.done = true
	}
	return r.cell.rows, r.cell.err
}

// Rows returns the relation's tuples. Execute materialises every
// relation before returning, so the rows of a successful run are
// always present.
func (r *Relation) Rows() []stark.Tuple[Row] { return r.cell.rows }

// Env is the execution environment of a script.
type Env struct {
	Ctx *stark.Context
	// Root is the directory LOAD and STORE paths resolve under. A
	// script is outside input: a path that leaves Root is rejected.
	Root string
	// DefaultParallelism is the partition count for freshly loaded
	// relations; 0 selects Ctx.Parallelism().
	DefaultParallelism int
}

// Output collects the effects of a script run.
type Output struct {
	// Relations maps every assigned name to its final value.
	Relations map[string]*Relation
	// Dumped holds the lines produced by DUMP statements, in order.
	Dumped []string
	// Stored lists the paths written by STORE statements.
	Stored []string
	// Explained holds the plan renderings produced by EXPLAIN
	// statements, in order.
	Explained []string
}

// Run parses and executes a script.
func Run(src string, env *Env) (*Output, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Execute(stmts, env)
}

// Execute runs parsed statements. Relations stay lazy while the
// script runs (so filter chains compile through the cost-based
// planner as one unit); every relation still unmaterialised when the
// script ends is materialised before returning, with errors
// attributed to the statement that defined it.
func Execute(stmts []Statement, env *Env) (*Output, error) {
	if env == nil || env.Ctx == nil || env.Root == "" {
		return nil, fmt.Errorf("piglet: Env needs Ctx and Root")
	}
	ex := &executor{
		env:  env,
		rels: make(map[string]*Relation),
		out:  &Output{Relations: make(map[string]*Relation)},
	}
	for _, s := range stmts {
		if err := ex.exec(s); err != nil {
			return nil, err
		}
	}
	// Materialising intermediates here costs one standalone run per
	// still-lazy relation — the same work the previous eager executor
	// did per statement — while relations the script consumed pay
	// nothing extra and got the fused, planned execution.
	names := make([]string, 0, len(ex.rels))
	for name := range ex.rels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := ex.rels[name]
		if _, err := r.materialise(); err != nil {
			return nil, fmt.Errorf("piglet: line %d: materialising %q: %w", r.line, name, err)
		}
	}
	ex.out.Relations = ex.rels
	return ex.out, nil
}

type executor struct {
	env  *Env
	rels map[string]*Relation
	out  *Output
}

func (ex *executor) parallelism() int {
	if ex.env.DefaultParallelism > 0 {
		return ex.env.DefaultParallelism
	}
	return ex.env.Ctx.Parallelism()
}

func (ex *executor) relation(name string, line int) (*Relation, error) {
	r, ok := ex.rels[name]
	if !ok {
		return nil, fmt.Errorf("piglet: line %d: unknown relation %q", line, name)
	}
	return r, nil
}

// fresh wraps materialised rows into a Relation whose script-level
// lineage is origin (nil for an anonymous in-memory stage).
func (ex *executor) fresh(rows []stark.Tuple[Row], origin *plan.Node, line int) *Relation {
	if origin != nil && origin.ActRows < 0 {
		origin.ActRows = int64(len(rows))
	}
	return &Relation{
		ds:   stark.Parallelize(ex.env.Ctx, rows, ex.parallelism()),
		cell: &rowsCell{done: true, rows: rows},
		base: origin,
		line: line,
	}
}

// lazy derives a Relation that chains on ds without materialising.
func lazy(parent *Relation, ds *stark.Dataset[Row], line int) *Relation {
	return &Relation{ds: ds, cell: &rowsCell{src: ds}, base: parent.base, line: line}
}

func (ex *executor) exec(s Statement) error {
	switch st := s.(type) {
	case Assign:
		rel, err := ex.evalOp(st)
		if err != nil {
			return err
		}
		ex.rels[st.Target] = rel
		return nil
	case Dump:
		rel, err := ex.relation(st.Name, st.Line)
		if err != nil {
			return err
		}
		rows, err := rel.materialise()
		if err != nil {
			return fmt.Errorf("piglet: line %d: %w", st.Line, err)
		}
		for _, kv := range rows {
			ex.out.Dumped = append(ex.out.Dumped, formatRow(st.Name, kv))
		}
		return nil
	case Explain:
		rel, err := ex.relation(st.Name, st.Line)
		if err != nil {
			return err
		}
		node, err := rel.ds.ExplainNode()
		if err != nil {
			return fmt.Errorf("piglet: line %d: explaining %q: %w", st.Line, st.Name, err)
		}
		node = plan.Graft(node, rel.base.Clone())
		ex.out.Explained = append(ex.out.Explained,
			fmt.Sprintf("%s:\n%s", st.Name, node.Render()))
		return nil
	case Describe:
		rel, err := ex.relation(st.Name, st.Line)
		if err != nil {
			return err
		}
		rows, err := rel.materialise()
		if err != nil {
			return fmt.Errorf("piglet: line %d: %w", st.Line, err)
		}
		timed, clustered := 0, 0
		env := geom.EmptyEnvelope()
		for _, kv := range rows {
			if kv.Key.HasTime() {
				timed++
			}
			if kv.Value.Cluster > NotClustered {
				clustered++
			}
			env = env.ExpandToInclude(kv.Key.Envelope())
		}
		parts := "unpartitioned"
		if sp, err := rel.ds.Partitioner(); err == nil && sp != nil {
			parts = fmt.Sprintf("%d spatial partitions", sp.NumPartitions())
		}
		ex.out.Dumped = append(ex.out.Dumped, fmt.Sprintf(
			"%s: %d rows, %d timed, %d clustered, extent %s, %s",
			st.Name, len(rows), timed, clustered, env, parts))
		return nil
	case Store:
		rel, err := ex.relation(st.Name, st.Line)
		if err != nil {
			return err
		}
		rows, err := rel.materialise()
		if err != nil {
			return fmt.Errorf("piglet: line %d: %w", st.Line, err)
		}
		path, err := ex.resolve(st.Path, st.Line)
		if err != nil {
			return err
		}
		events := make([]workload.Event, len(rows))
		for i, kv := range rows {
			events[i] = kv.Value.Event
		}
		if err := workload.WriteEventsCSV(path, events); err != nil {
			return fmt.Errorf("piglet: line %d: storing %q: %w", st.Line, st.Path, err)
		}
		ex.out.Stored = append(ex.out.Stored, st.Path)
		return nil
	default:
		return fmt.Errorf("piglet: unsupported statement %T", s)
	}
}

// resolve maps a LOAD/STORE path to a file under the environment's
// root. One leading slash is dropped ('/data/x.csv' and 'data/x.csv'
// name the same file); what remains must be local to the root, so
// '../x', '/../x' and '//etc/passwd' are refused. The check is
// lexical: symbolic links inside the root are the operator's own.
func (ex *executor) resolve(path string, line int) (string, error) {
	rel := strings.TrimPrefix(path, "/")
	if !filepath.IsLocal(filepath.FromSlash(rel)) {
		return "", fmt.Errorf("piglet: line %d: path %q leaves the script's root directory", line, path)
	}
	return filepath.Join(ex.env.Root, rel), nil
}

func formatRow(rel string, kv stark.Tuple[Row]) string {
	r := kv.Value
	if r.Group != "" {
		return fmt.Sprintf("%s: (%s, %d)", rel, r.Group, r.Count)
	}
	base := fmt.Sprintf("%s: (%d, %s, %d, %s)", rel, r.Event.ID, r.Event.Category, r.Event.Time, r.Event.WKT)
	if r.Cluster > NotClustered {
		base += fmt.Sprintf(" cluster=%d", r.Cluster)
	}
	if r.Distance > 0 {
		base += fmt.Sprintf(" dist=%.3f", r.Distance)
	}
	return base
}

func (ex *executor) evalOp(st Assign) (*Relation, error) {
	switch op := st.Op.(type) {
	case Load:
		path, err := ex.resolve(op.Path, st.Line)
		if err != nil {
			return nil, err
		}
		events, err := workload.ReadEventsCSV(path)
		if err != nil {
			return nil, fmt.Errorf("piglet: line %d: %w", st.Line, err)
		}
		rows := make([]stark.Tuple[Row], 0, len(events))
		for _, e := range events {
			obj, err := e.ToSTObject()
			if err != nil {
				return nil, fmt.Errorf("piglet: line %d: event %d: %w", st.Line, e.ID, err)
			}
			rows = append(rows, stark.NewTuple(obj, Row{Event: e, Cluster: NotClustered}))
		}
		return ex.fresh(rows, plan.NewNode("Load", op.Path), st.Line), nil

	case Filter:
		rel, err := ex.relation(op.Input, st.Line)
		if err != nil {
			return nil, err
		}
		q, pred, expand, err := compilePredicate(op.Pred, st.Line)
		if err != nil {
			return nil, err
		}
		// The filter defers: the predicate joins the chain's pending
		// set and the cost-based planner compiles consecutive FILTER
		// statements together at the first materialising action. The
		// named DSL operators carry the predicate kind into the plan.
		var nds *stark.Dataset[Row]
		switch op.Pred.Kind {
		case "intersects":
			nds = rel.ds.Intersects(q)
		case "contains":
			nds = rel.ds.Contains(q)
		case "containedby":
			nds = rel.ds.ContainedBy(q)
		case "coveredby":
			nds = rel.ds.CoveredBy(q)
		case "withindistance":
			nds = rel.ds.WithinDistance(q, op.Pred.Distance, nil)
		default:
			nds = rel.ds.Where(q, pred, expand)
		}
		return lazy(rel, nds, st.Line), nil

	case AttrFilter:
		rel, err := ex.relation(op.Input, st.Line)
		if err != nil {
			return nil, err
		}
		// The typed comparison defers like the spatial filters: it
		// joins the chain's pending set and compiles through the
		// planner's attribute access-path choice.
		nds := rel.ds.WithSchema(rowSchema).FilterOp(op.Field, op.Op, op.Value)
		return lazy(rel, nds, st.Line), nil

	case PartitionOp:
		rel, err := ex.relation(op.Input, st.Line)
		if err != nil {
			return nil, err
		}
		var p stark.Partitioner
		switch op.Kind {
		case "grid":
			p = stark.Grid(op.Param)
		case "bsp":
			p = stark.BSP(op.Param)
		default:
			return nil, fmt.Errorf("piglet: line %d: unknown partitioner %q", st.Line, op.Kind)
		}
		parted := rel.ds.PartitionBy(p)
		if err := parted.Run(); err != nil {
			return nil, fmt.Errorf("piglet: line %d: %w", st.Line, err)
		}
		// Repartitioning moves no row in or out: share the input's
		// materialisation cell so DUMP order stays the input order.
		return &Relation{ds: parted, cell: rel.cell, base: rel.base, line: st.Line}, nil

	case IndexOp:
		rel, err := ex.relation(op.Input, st.Line)
		if err != nil {
			return nil, err
		}
		indexed := rel.ds.Index(stark.Live(op.Order))
		if err := indexed.Run(); err != nil {
			return nil, fmt.Errorf("piglet: line %d: %w", st.Line, err)
		}
		return &Relation{ds: indexed, cell: rel.cell, base: rel.base, line: st.Line}, nil

	case KNNOp:
		rel, err := ex.relation(op.Input, st.Line)
		if err != nil {
			return nil, err
		}
		q, err := stark.FromWKT(op.WKT)
		if err != nil {
			return nil, fmt.Errorf("piglet: line %d: %w", st.Line, err)
		}
		nbrs, err := rel.ds.KNN(q, op.K)
		if err != nil {
			return nil, fmt.Errorf("piglet: line %d: %w", st.Line, err)
		}
		rows := make([]stark.Tuple[Row], len(nbrs))
		for i, nb := range nbrs {
			row := nb.Value
			row.Distance = nb.Distance
			rows[i] = stark.NewTuple(nb.Key, row)
		}
		node := plan.NewNode("KNN", fmt.Sprintf("input=%s k=%d query=%s", op.Input, op.K, op.WKT)).
			Add(rel.base)
		return ex.fresh(rows, node, st.Line), nil

	case ClusterOp:
		rel, err := ex.relation(op.Input, st.Line)
		if err != nil {
			return nil, err
		}
		recs, _, err := rel.ds.Cluster(stark.ClusterOptions{Eps: op.Eps, MinPts: op.MinPts})
		if err != nil {
			return nil, fmt.Errorf("piglet: line %d: %w", st.Line, err)
		}
		rows := make([]stark.Tuple[Row], len(recs))
		for i, rec := range recs {
			row := rec.Value
			row.Cluster = rec.Cluster
			rows[i] = stark.NewTuple(rec.Key, row)
		}
		node := plan.NewNode("Cluster",
			fmt.Sprintf("input=%s eps=%g minPts=%d", op.Input, op.Eps, op.MinPts)).
			Add(rel.base)
		return ex.fresh(rows, node, st.Line), nil

	case JoinOp:
		return ex.evalJoin(st, op)

	case Limit:
		rel, err := ex.relation(op.Input, st.Line)
		if err != nil {
			return nil, err
		}
		n := op.N
		if n < 0 {
			n = 0
		}
		// Take short-circuits through the planned pipeline: pruned
		// partitions are never touched and the scan stops at n rows.
		rows, err := rel.ds.Take(n)
		if err != nil {
			return nil, fmt.Errorf("piglet: line %d: %w", st.Line, err)
		}
		node := plan.NewNode("Limit", fmt.Sprintf("input=%s n=%d", op.Input, op.N)).
			Add(rel.base)
		return ex.fresh(rows, node, st.Line), nil

	case SampleOp:
		rel, err := ex.relation(op.Input, st.Line)
		if err != nil {
			return nil, err
		}
		sampled, err := rel.ds.Sample(op.Fraction, op.Seed).Collect()
		if err != nil {
			return nil, fmt.Errorf("piglet: line %d: %w", st.Line, err)
		}
		node := plan.NewNode("Sample", fmt.Sprintf("input=%s fraction=%g", op.Input, op.Fraction)).
			Add(rel.base)
		return ex.fresh(sampled, node, st.Line), nil

	case DistinctOp:
		rel, err := ex.relation(op.Input, st.Line)
		if err != nil {
			return nil, err
		}
		in, err := rel.materialise()
		if err != nil {
			return nil, fmt.Errorf("piglet: line %d: %w", st.Line, err)
		}
		seen := make(map[int]bool, len(in))
		var rows []stark.Tuple[Row]
		for _, kv := range in {
			if !seen[kv.Value.Event.ID] {
				seen[kv.Value.Event.ID] = true
				rows = append(rows, kv)
			}
		}
		node := plan.NewNode("Distinct", "input="+op.Input).Add(rel.base)
		return ex.fresh(rows, node, st.Line), nil

	case UnionOp:
		left, err := ex.relation(op.Left, st.Line)
		if err != nil {
			return nil, err
		}
		right, err := ex.relation(op.Right, st.Line)
		if err != nil {
			return nil, err
		}
		lrows, err := left.materialise()
		if err != nil {
			return nil, fmt.Errorf("piglet: line %d: %w", st.Line, err)
		}
		rrows, err := right.materialise()
		if err != nil {
			return nil, fmt.Errorf("piglet: line %d: %w", st.Line, err)
		}
		rows := make([]stark.Tuple[Row], 0, len(lrows)+len(rrows))
		rows = append(rows, lrows...)
		rows = append(rows, rrows...)
		node := plan.NewNode("Union", fmt.Sprintf("%s, %s", op.Left, op.Right)).
			Add(left.base, right.base)
		return ex.fresh(rows, node, st.Line), nil

	case BufferOp:
		rel, err := ex.relation(op.Input, st.Line)
		if err != nil {
			return nil, err
		}
		if op.Radius <= 0 {
			return nil, fmt.Errorf("piglet: line %d: buffer radius must be > 0, got %v", st.Line, op.Radius)
		}
		in, err := rel.materialise()
		if err != nil {
			return nil, fmt.Errorf("piglet: line %d: %w", st.Line, err)
		}
		rows := make([]stark.Tuple[Row], 0, len(in))
		for _, kv := range in {
			disc, ok := geom.BufferPoint(kv.Key.Centroid(), op.Radius, 32)
			if !ok {
				return nil, fmt.Errorf("piglet: line %d: buffering failed", st.Line)
			}
			key := stark.NewSTObject(stark.Geometry(disc))
			if iv, has := kv.Key.Time(); has {
				key = stark.NewSTObjectWithInterval(disc, iv)
			}
			rows = append(rows, stark.NewTuple(key, kv.Value))
		}
		node := plan.NewNode("Buffer", fmt.Sprintf("input=%s radius=%g", op.Input, op.Radius)).
			Add(rel.base)
		return ex.fresh(rows, node, st.Line), nil

	case GroupCount:
		rel, err := ex.relation(op.Input, st.Line)
		if err != nil {
			return nil, err
		}
		keyOf := func(kv stark.Tuple[Row]) string { return kv.Value.Event.Category }
		if op.Field == "cluster" {
			keyOf = func(kv stark.Tuple[Row]) string { return fmt.Sprintf("cluster-%d", kv.Value.Cluster) }
		}
		counts, err := stark.CountBy(rel.ds, keyOf)
		if err != nil {
			return nil, fmt.Errorf("piglet: line %d: %w", st.Line, err)
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		rows := make([]stark.Tuple[Row], 0, len(keys))
		for _, k := range keys {
			rows = append(rows, stark.NewTuple(stark.STObject{},
				Row{Group: k, Count: counts[k], Cluster: NotClustered}))
		}
		node := plan.NewNode("GroupCount", fmt.Sprintf("input=%s by=%s", op.Input, op.Field)).
			Add(rel.base)
		return ex.fresh(rows, node, st.Line), nil

	default:
		return nil, fmt.Errorf("piglet: line %d: unsupported operator %T", st.Line, st.Op)
	}
}

// evalJoin executes a JOIN through the cost-selected join engine:
// the executor picks broadcast, co-partitioned or pruned pair-wise
// execution (and the build side, swapping internally as needed) from
// dataset statistics; the EXPLAIN node renders the decision and the
// actual task/pair counters.
func (ex *executor) evalJoin(st Assign, op JoinOp) (*Relation, error) {
	left, err := ex.relation(op.Left, st.Line)
	if err != nil {
		return nil, err
	}
	right, err := ex.relation(op.Right, st.Line)
	if err != nil {
		return nil, err
	}
	pred, expand, err := compileJoinPredicate(op.Pred, st.Line)
	if err != nil {
		return nil, err
	}
	var rep stark.JoinReport
	joined, err := stark.Join(left.ds, right.ds, stark.JoinOptions{
		Predicate:      pred,
		IndexOrder:     -1,
		ProbeExpansion: expand,
		Report:         &rep,
	}).Collect()
	if err != nil {
		return nil, fmt.Errorf("piglet: line %d: %w", st.Line, err)
	}
	// The joined relation keeps the script-level left row; the event
	// ID pair is recorded in the group field for inspection.
	rows := make([]stark.Tuple[Row], len(joined))
	for i, kv := range joined {
		row := kv.Value.Left
		row.Group = fmt.Sprintf("%d/%d", kv.Value.Left.Event.ID, kv.Value.Right.Event.ID)
		rows[i] = stark.NewTuple(kv.Key, row)
	}
	node := rep.PlanNode(plan.Pred{Kind: predKind(op.Pred.Kind), Expand: expand}, left.base, right.base)
	return ex.fresh(rows, node, st.Line), nil
}

// predKind maps a parsed predicate kind to the planner's algebra.
func predKind(kind string) plan.PredKind {
	switch kind {
	case "intersects":
		return plan.Intersects
	case "contains":
		return plan.Contains
	case "containedby":
		return plan.ContainedBy
	case "coveredby":
		return plan.CoveredBy
	case "withindistance":
		return plan.WithinDistance
	default:
		return plan.Custom
	}
}

// compilePredicate turns a filter predicate literal into a query
// object, a predicate and a pruning expansion. Errors carry the
// statement's line number, like relation lookups do.
func compilePredicate(p Predicate, line int) (stark.STObject, stark.Predicate, float64, error) {
	g, err := stark.ParseWKT(p.WKT)
	if err != nil {
		return stark.STObject{}, nil, 0, fmt.Errorf("piglet: line %d: filter geometry: %w", line, err)
	}
	var q stark.STObject
	if p.HasTime {
		iv, err := stark.NewInterval(stark.Instant(p.Begin), stark.Instant(p.End))
		if err != nil {
			return stark.STObject{}, nil, 0, fmt.Errorf("piglet: line %d: filter interval: %w", line, err)
		}
		q = stark.NewSTObjectWithInterval(g, iv)
	} else {
		q = stark.NewSTObject(g)
	}
	pred, expand, err := compileJoinPredicate(p, line)
	if err != nil {
		return stark.STObject{}, nil, 0, err
	}
	return q, pred, expand, nil
}

// compileJoinPredicate resolves a predicate kind; errors carry the
// statement's line number.
func compileJoinPredicate(p Predicate, line int) (stark.Predicate, float64, error) {
	switch p.Kind {
	case "intersects":
		return stark.Intersects, 0, nil
	case "contains":
		return stark.Contains, 0, nil
	case "containedby":
		return stark.ContainedBy, 0, nil
	case "coveredby":
		return stark.CoveredBy, 0, nil
	case "withindistance":
		return stark.WithinDistancePredicate(p.Distance, nil), p.Distance, nil
	default:
		return nil, 0, fmt.Errorf("piglet: line %d: unknown predicate %q", line, p.Kind)
	}
}
