package main

// Layer replays: after the traced pass, the same pool inputs are run
// against each layer's exported functions on the same generated data,
// timed from here. This file is the only one that reaches below the
// service; no layer gains instrumentation for it. Each workload's
// spec names the replay of the layers on its own path; the other
// layers report 0 there.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"stark"
	"stark/internal/attr"
	"stark/internal/colstore"
	"stark/internal/core"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/index"
	"stark/internal/plan"
	"stark/internal/stats"
	"stark/internal/stobject"
	"stark/internal/wal"
	"stark/internal/workload"
)

// replayJoinOps is the number of pool windows the join replays cover:
// each costs a few hundred milliseconds across the strategies.
const replayJoinOps = 12

type tuple = stark.Tuple[workload.Event]

// tuplesOf rebuilds the (key, event) pairs the server stages for d.
func tuplesOf(d dataset) ([]tuple, error) {
	tuples, dropped := workload.EventTuples(workload.Events(d.generator()))
	if dropped > 0 {
		return nil, fmt.Errorf("%d generated events of %s have invalid WKT", dropped, d.name)
	}
	return tuples, nil
}

func keysOf(tuples []tuple) []stark.STObject {
	keys := make([]stark.STObject, len(tuples))
	for i, kv := range tuples {
		keys[i] = kv.Key
	}
	return keys
}

// queryObject is the STObject the server builds for the op's query.
func queryObject(o *op) (stark.STObject, error) {
	return stark.FromWKTWithInterval(o.win.wkt(), 0, stark.Instant(o.end))
}

func sinceMS(start time.Time) float64 { return ms(time.Since(start)) }

// readLayers is what both read replays start from: the dataset's
// tuples cut into the partitions registration builds, its statistics,
// and the replayed inputs.
type readLayers struct {
	ctx     *engine.Context
	tuples  []tuple
	parts   [][]tuple
	sum     *stats.Summary
	queries []stark.STObject // one per replayed pool op
	home    []int            // the partition each op's window is centred in
}

// replayRead times what both read workloads pay at set-up,
// partitioning and the statistics sweep, and prepares the inputs of
// the per-workload replays.
func (r *runner) replayRead() (*readLayers, error) {
	v := r.res.values
	tuples, err := tuplesOf(r.w.datasets[0])
	if err != nil {
		return nil, err
	}
	l := &readLayers{ctx: engine.NewContext(2), tuples: tuples}

	start := time.Now()
	sp, err := stark.BSP(20000).Build(keysOf(tuples))
	if err != nil {
		return nil, err
	}
	v["partition.build_ms"] = sinceMS(start)
	l.parts = make([][]tuple, sp.NumPartitions())
	for _, kv := range tuples {
		p := sp.PartitionFor(kv.Key)
		l.parts[p] = append(l.parts[p], kv)
	}

	// The sweep runs over the partitioned dataset, as at registration;
	// the shuffle is materialised first so only the sweep is timed.
	partitioned, err := core.Wrap(engine.Parallelize(l.ctx, tuples, 2)).PartitionBy(sp)
	if err != nil {
		return nil, err
	}
	partitioned = partitioned.Cache()
	if _, err := partitioned.Count(); err != nil {
		return nil, err
	}
	start = time.Now()
	if l.sum, err = stats.Collect(partitioned.Dataset(), 0); err != nil {
		return nil, err
	}
	v["stats.sweep_ms"] = sinceMS(start)

	n := min(r.w.traced, len(r.pool))
	l.queries = make([]stark.STObject, n)
	l.home = make([]int, n)
	for i := range l.queries {
		o := &r.pool[i]
		if l.queries[i], err = queryObject(o); err != nil {
			return nil, err
		}
		centre := stark.NewSTObject(stark.NewPoint((o.win.minX+o.win.maxX)/2, (o.win.minY+o.win.maxY)/2))
		l.home[i] = sp.PartitionFor(centre)
	}
	return l, nil
}

// replayScan covers read_scan's path below the stream: the row scan of
// one unindexed partition and the exact refinement inside it.
func (r *runner) replayScan() error {
	l, err := r.replayRead()
	if err != nil {
		return err
	}
	scans := make([]*core.SpatialDataset[workload.Event], len(l.parts))
	var scanNS, refineNS []float64
	for i, q := range l.queries {
		p := l.home[i]
		rows := l.parts[p]
		if len(rows) == 0 {
			continue
		}
		if scans[p] == nil {
			scans[p] = core.Wrap(engine.Parallelize(l.ctx, rows, 1))
		}
		start := time.Now()
		if _, err := scans[p].Filter(q, q.Envelope(), stobject.Intersects); err != nil {
			return err
		}
		scanNS = append(scanNS, float64(time.Since(start))/float64(len(rows)))

		hits := 0
		start = time.Now()
		for _, kv := range rows {
			if geom.Intersects(q.Geo(), kv.Key.Geo()) {
				hits++
			}
		}
		refineNS = append(refineNS, float64(time.Since(start))/float64(len(rows)))
	}
	r.res.values["core.scan_ns_per_row"] = median(scanNS)
	r.res.values["geom.intersects_ns"] = median(refineNS)
	return nil
}

// replaySelective covers read_selective's path: the three sidecars,
// built for every partition as registration does and probed by the
// pool, the planner and the fingerprint.
func (r *runner) replaySelective() error {
	l, err := r.replayRead()
	if err != nil {
		return err
	}
	v := r.res.values
	parts := l.parts

	trees := make([]*index.RTree, len(parts))
	start := time.Now()
	for p, rows := range parts {
		envs := make([]geom.Envelope, len(rows))
		for i, kv := range rows {
			envs[i] = kv.Key.Envelope()
		}
		trees[p] = index.BuildFromEnvelopes(0, envs)
	}
	v["index.build_ms"] = sinceMS(start)

	cols := make([]*colstore.Partition, len(parts))
	start = time.Now()
	for p, rows := range parts {
		b := colstore.NewBuilder(len(rows))
		for _, kv := range rows {
			iv, timed := kv.Key.Time()
			b.Add(kv.Key.Envelope(), int64(iv.Start), int64(iv.End), timed)
		}
		cols[p], _ = b.Finish(true)
	}
	v["colstore.build_ms"] = sinceMS(start)

	postings := make([]*attr.Index, len(parts))
	start = time.Now()
	for p, rows := range parts {
		column := make([]attr.Value, len(rows))
		for i, kv := range rows {
			column[i] = attr.String(kv.Value.Category)
		}
		postings[p] = attr.BuildIndex("category", attr.KindString, column)
	}
	v["attr.build_ms"] = sinceMS(start)

	// A small chain of the served dataset's shape: a fingerprint hashes
	// the lineage and the query, not the rows.
	chain := stark.Parallelize(l.ctx, l.tuples[:min(len(l.tuples), 1000)]).
		PartitionBy(stark.BSP(20000)).Index(stark.Persistent(0)).Columnar().WithSchema(workload.EventSchema())
	if err := chain.Run(); err != nil {
		return err
	}

	var probeUS, filterNS, postUS, planUS, fpUS []float64
	var ids []int32
	for i, q := range l.queries {
		o := &r.pool[i]
		p := l.home[i]
		env := q.Envelope()

		start := time.Now()
		ids = trees[p].Query(env, ids[:0])
		probeUS = append(probeUS, float64(time.Since(start))/1e3)

		if rows := cols[p].Len(); rows > 0 {
			bs := colstore.GetBitset(rows)
			kq := core.KernelQueryFor(colstore.OpIntersects, colstore.TimeOverlap, q, 0)
			start = time.Now()
			colstore.Filter(cols[p], kq, bs)
			filterNS = append(filterNS, float64(time.Since(start))/float64(rows))
			colstore.PutBitset(bs)
		}

		pred := plan.Pred{Kind: plan.Intersects, Env: env, HasTime: true, Begin: 0, End: o.end, Vertices: 5}
		opt := plan.FilterOptions{AlreadyIndexed: true, IndexOrder: index.DefaultOrder, Columnar: true}
		filtered := chain
		if o.cat >= 0 {
			eq := attr.Pred{Field: "category", Op: attr.OpEq, Lo: attr.String(workload.Categories[o.cat])}
			matched := 0
			start = time.Now()
			postings[p].Postings(eq, func(int32) { matched++ })
			postUS = append(postUS, float64(time.Since(start))/1e3)
			opt.Attr = []attr.Pred{eq}
			filtered = filtered.FilterEq("category", workload.Categories[o.cat])
		}

		start = time.Now()
		plan.PlanFilter(l.sum, []plan.Pred{pred}, opt)
		planUS = append(planUS, float64(time.Since(start))/1e3)

		filtered = filtered.Intersects(q)
		start = time.Now()
		if _, err := filtered.Fingerprint(); err != nil {
			return err
		}
		fpUS = append(fpUS, float64(time.Since(start))/1e3)
	}
	v["index.probe_us"] = median(probeUS)
	v["colstore.filter_ns_per_row"] = median(filterNS)
	v["attr.probe_us"] = median(postUS)
	v["plan.filter_us"] = median(planUS)
	v["stark.fingerprint_us"] = median(fpUS)
	return nil
}

// replayJoin times core's three join strategies on the first pool
// windows, the per-query tree build, and the planner's regret over
// HTTP: the auto strategy's time over the best forced one's.
func (r *runner) replayJoin() error {
	v := r.res.values
	ctx := engine.NewContext(2)
	var sides [2]*core.SpatialDataset[workload.Event]
	var leftTuples []tuple
	for i, d := range r.w.datasets {
		tuples, err := tuplesOf(d)
		if err != nil {
			return err
		}
		sp, err := stark.Grid(8).Build(keysOf(tuples))
		if err != nil {
			return err
		}
		if sides[i], err = core.Wrap(engine.Parallelize(ctx, tuples, 2)).PartitionBy(sp); err != nil {
			return err
		}
		sides[i] = sides[i].Cache()
		if i == 0 {
			leftTuples = tuples
		}
	}

	n := min(replayJoinOps, len(r.pool))
	strategies := []struct {
		name string
		s    core.JoinStrategy
	}{{"pairs", core.JoinPairs}, {"broadcast", core.JoinBroadcast}, {"copartition", core.JoinCoPartition}}
	times := make(map[string][]float64)
	var buildMS []float64
	for i := 0; i < n; i++ {
		o := &r.pool[i]
		q, err := queryObject(o)
		if err != nil {
			return err
		}
		want := joinPairs(r.tabs[0], r.tabs[1], o.win, o.end, 1)
		for _, st := range strategies {
			start := time.Now()
			got, err := core.JoinCount(sides[0].WhereIntersects(q), sides[1], core.JoinOptions{
				Predicate: stobject.WithinDistancePredicate(1, nil), IndexOrder: -1, ProbeExpansion: 1, Strategy: st.s,
			})
			if err != nil {
				return err
			}
			times[st.name] = append(times[st.name], sinceMS(start))
			if got != want {
				r.res.problem("core join (%s) of window %d finds %d pairs, brute force %d", st.name, i, got, want)
			}
		}
		// The trees a join builds per query: one over the window's rows.
		var envs []geom.Envelope
		for _, kv := range leftTuples {
			if env := kv.Key.Envelope(); o.win.contains(env.MinX, env.MinY) {
				envs = append(envs, env)
			}
		}
		start := time.Now()
		index.BuildFromEnvelopes(0, envs)
		buildMS = append(buildMS, sinceMS(start))
	}
	for _, st := range strategies {
		v["core.join_"+st.name+"_ms"] = median(times[st.name])
	}
	v["index.build_ms"] = median(buildMS)

	// Regret through the service: the same windows with the strategy
	// forced in the request, interleaved so drift hits all alike.
	c := r.client
	served := make(map[string][]float64)
	for i := 0; i < n; i++ {
		for _, name := range []string{"auto", "pairs", "broadcast", "copartition"} {
			forced := r.pool[i]
			forced.head = queryHead(r.w.datasets[0].name, forced.win, "", joinClause(name))
			start := time.Now()
			if _, err := c.query(&forced, 0, false, ""); err != nil {
				return err
			}
			served[name] = append(served[name], sinceMS(start))
		}
	}
	best := min(median(served["pairs"]), median(served["broadcast"]), median(served["copartition"]))
	v["plan.join_regret"] = median(served["auto"]) / best
	return nil
}

// mutation is one line of an ingest batch.
type mutation struct {
	ID       int64  `json:"id"`
	Category string `json:"category"`
	Time     int64  `json:"time"`
	WKT      string `json:"wkt"`
}

// replayIngest covers the write path below the handler: WKT parsing,
// a batch applied to a live dataset with no commit hook and the first
// snapshot read after it, and a log append of a batch-sized record.
func (r *runner) replayIngest() error {
	d := r.w.datasets[0]
	v := r.res.values
	tuples, err := tuplesOf(d)
	if err != nil {
		return err
	}
	sp, err := stark.Grid(8).Build(keysOf(tuples))
	if err != nil {
		return err
	}
	mds := stark.NewMutableDataset[workload.Event](engine.NewContext(2), d.name, sp, 0)
	mds.SetAttrFields(workload.EventSchema())
	seed := make([]stark.LiveRecord[workload.Event], len(tuples))
	for i, kv := range tuples {
		seed[i] = stark.LiveRecord[workload.Event]{ID: int64(kv.Value.ID), Key: kv.Key, Value: kv.Value}
	}
	if _, err := mds.Insert(seed...); err != nil {
		return err
	}

	n := min(r.w.traced, len(r.pool))
	var parseNS, applyMS, probeUS []float64
	for i := 0; i < n; i++ {
		o := &r.pool[i]
		var ops []stark.LiveOp[workload.Event]
		sc := bufio.NewScanner(bytes.NewReader(o.batch))
		for sc.Scan() {
			var m mutation
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				return err
			}
			start := time.Now()
			g, err := geom.ParseWKT(m.WKT)
			parseNS = append(parseNS, float64(time.Since(start)))
			if err != nil {
				return err
			}
			ev := workload.Event{ID: int(m.ID), Category: m.Category, Time: m.Time, WKT: m.WKT}
			ops = append(ops, stark.LiveUpsert(m.ID, stark.NewSTObjectWithTime(g, stark.Instant(m.Time)), ev))
		}
		start := time.Now()
		if _, err := mds.Apply(ops); err != nil {
			return err
		}
		applyMS = append(applyMS, sinceMS(start))

		q, err := queryObject(o)
		if err != nil {
			return err
		}
		start = time.Now()
		if _, err := mds.Snapshot().Intersects(q).Count(); err != nil {
			return err
		}
		probeUS = append(probeUS, float64(time.Since(start))/1e3)
	}
	v["geom.parse_wkt_ns"] = median(parseNS)
	v["live.apply_ms"] = median(applyMS)
	v["live.probe_us"] = median(probeUS)

	dir := filepath.Join(r.cfg.dir, fmt.Sprintf("wal-append-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir)
	if err != nil {
		return err
	}
	var appendMS []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := log.Append(wal.Record{Type: 3, Payload: r.pool[i].batch}); err != nil {
			log.Close()
			return err
		}
		appendMS = append(appendMS, sinceMS(start))
	}
	v["wal.append_ms"] = median(appendMS)
	return log.Close()
}

// replayWAL times the log layer's own replay (read, checksum, decode)
// of what the run left in dir.
func (r *runner) replayWAL(dir string) {
	records := 0
	start := time.Now()
	err := wal.Replay(dir, 0, func(int, wal.Record) error {
		records++
		return nil
	})
	if err != nil {
		r.res.problem("replaying the WAL: %v", err)
		return
	}
	if records > 0 {
		r.res.values["wal.replay_ms_per_batch"] = sinceMS(start) / float64(records)
	}
}
