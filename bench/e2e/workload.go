package main

// The four workloads: their datasets (fixed seeds, so every run and
// both sides of a comparison serve the same data) and their operation
// pools (seeded by -seed, cycled in order so every run measures the
// same mix whatever its speed).

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"stark/internal/server"
	"stark/internal/workload"
)

// dataset is one catalog dataset a workload registers from a generator
// spec.
type dataset struct {
	name        string
	n           int
	seed        int64
	dist        workload.Distribution
	timeRange   int64
	partitioner string
	index       string
	columnar    bool
	mutable     bool
}

func (d dataset) spec() server.DatasetSpec {
	return server.DatasetSpec{
		Name: d.name, N: d.n, Seed: d.seed, Dist: d.dist.String(), TimeRange: d.timeRange,
		Partitioner: d.partitioner, Index: d.index, Columnar: d.columnar, Mutable: d.mutable,
	}
}

func (d dataset) generator() workload.Config {
	return workload.Config{N: d.n, Seed: d.seed, Dist: d.dist, TimeRange: d.timeRange}
}

// event is the benchmark's own copy of one generated event: what the
// oracles and the pool builders need, without pointers, so a million
// of them add nothing to the collector's mark work.
type event struct {
	x, y float64
	t    int64
	cat  uint8
}

// table is a dataset's generated content.
type table struct {
	ds     dataset
	events []event
}

// generate reproduces the events the server builds from d's spec.
// Coordinates come from workload.Points, which workload.Events renders
// as WKT with round-trip precision, so they equal what the server
// parses.
func generate(d dataset) table {
	cfg := d.generator()
	pts := workload.Points(cfg)
	evs := workload.Events(cfg)
	catIndex := make(map[string]uint8, len(workload.Categories))
	for i, c := range workload.Categories {
		catIndex[c] = uint8(i)
	}
	out := make([]event, len(evs))
	for i, ev := range evs {
		out[i] = event{x: pts[i].X, y: pts[i].Y, t: ev.Time, cat: catIndex[ev.Category]}
	}
	return table{ds: d, events: out}
}

// rect is an axis-aligned query window.
type rect struct{ minX, minY, maxX, maxY float64 }

func (r rect) contains(x, y float64) bool {
	return x >= r.minX && x <= r.maxX && y >= r.minY && y <= r.maxY
}

func num(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func (r rect) wkt() string {
	x0, y0, x1, y1 := num(r.minX), num(r.minY), num(r.maxX), num(r.maxY)
	return "POLYGON ((" + x0 + " " + y0 + ", " + x1 + " " + y0 + ", " + x1 + " " + y1 + ", " + x0 + " " + y1 + ", " + x0 + " " + y0 + "))"
}

// centres picks n events of t to centre query windows on. With the
// skewed generator a uniformly placed window is mostly empty sea, so
// windows sit on events; and because an operation's cost follows the
// number of events around its centre, the choice is stratified: the
// events are ordered by key, cut into n equal strata, and the seed
// picks one event from each. Every seed therefore draws the same cost
// distribution, and two seeds differ by which events they hit, not by
// how heavy their operations are. The picks are then arranged by a
// golden-ratio stride, so that any run of consecutive pool entries
// spreads evenly over the strata and a partly completed cycle still
// measures the whole mix.
func centres(rng *rand.Rand, t table, n int, key func(event) float64) []event {
	keys := make([]float64, len(t.events))
	order := make([]int32, len(t.events))
	for i, e := range t.events {
		keys[i] = key(e)
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	picks := make([]event, n)
	for s := range picks {
		lo := s * len(order) / n
		hi := max(lo+1, (s+1)*len(order)/n)
		picks[s] = t.events[order[lo+rng.Intn(hi-lo)]]
	}
	stride := int(float64(n) * 0.6180339887)
	for gcd(stride, n) != 1 {
		stride--
	}
	out := make([]event, n)
	for j := range out {
		out[j] = picks[j*stride%n]
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// density returns a key for centres: the number of events in the
// side×side grid cell an event lies in, a stand-in for the size of a
// side×side window's result.
func density(t table, side float64) func(event) float64 {
	type cell struct{ x, y int32 }
	at := func(e event) cell { return cell{int32(e.x / side), int32(e.y / side)} }
	count := make(map[cell]int32)
	for _, e := range t.events {
		count[at(e)]++
	}
	return func(e event) float64 { return float64(count[at(e)]) }
}

func windowOn(e event, side float64) rect {
	return rect{e.x - side/2, e.y - side/2, e.x + side/2, e.y + side/2}
}

// op is one pool entry: a query, preceded by an ingest batch on the
// ingest workload.
type op struct {
	// head is the query's JSON up to the value of "end". end is the
	// query's upper time bound, at the end of the data's time range; a
	// repeat adds its cycle number to it, which changes the plan
	// fingerprint (a result-cache miss) but not the result. fixed marks
	// a hot entry, re-issued verbatim so the cache can hit.
	head  []byte
	end   int64
	fixed bool
	// win, cat (-1: no where clause) and join restate the query for the
	// oracles and the layer replays.
	win  rect
	cat  int
	join bool
	// batch is the NDJSON mutation batch posted before the query; id is
	// its first record and xy that record's new position as a reply
	// renders it.
	batch []byte
	id    int64
	xy    []byte
}

// body renders the request for one issue of the op.
func (o *op) body(dst []byte, cycle int64, traced bool) []byte {
	dst = append(dst[:0], o.head...)
	end := o.end
	if !o.fixed {
		end += cycle
	}
	dst = strconv.AppendInt(dst, end, 10)
	if traced {
		dst = append(dst, `,"trace":true`...)
	}
	return append(dst, '}')
}

// queryHead renders a query up to the value of "end". where and join
// are raw JSON values or empty.
func queryHead(dataset string, win rect, where, join string) []byte {
	s := `{"dataset":"` + dataset + `","predicate":"intersects","wkt":"` + win.wkt() + `","hasTime":true,"begin":0,`
	if where != "" {
		s += `"where":` + where + `,`
	}
	if join != "" {
		s += `"join":` + join + `,`
	}
	return []byte(s + `"end":`)
}

func whereCategory(cat int) string {
	if cat < 0 {
		return ""
	}
	return `{"field":"category","op":"eq","value":"` + workload.Categories[cat] + `"}`
}

// spec is one workload.
type spec struct {
	durable  bool
	datasets []dataset // datasets[0] is the one queries address
	// warmup is the number of pool operations issued before the window:
	// a fixed count, so every run enters the window in the same state.
	// The first verify of them are checked against the oracle.
	warmup int
	verify int
	// traced is the length of the traced pass, of the untraced pass it
	// is compared with, and of the layer replays.
	traced int
	pool   func(rng *rand.Rand, tabs []table) []op
	// replay runs the layer replays of the traced run.
	replay func(r *runner) error
}

// Sizes of the full-scale workloads.
const (
	readEvents  = 1_000_000 // the paper's Figure-4 cardinality
	joinSites   = 200_000
	fleetEvents = 100_000
	batchOps    = 100 // upserts per ingest batch
	hotEntries  = 64
)

// workloads is the full-scale table; scaled derives the smoke sizes.
var workloads = scaled(0)

// scaled returns the workload table with the primary dataset of each
// workload holding n events (0: full scale).
func scaled(n int) map[string]spec {
	size := func(full int) int {
		if n > 0 {
			return n
		}
		return full
	}
	sites := size(joinSites)
	return map[string]spec{
		"read_selective": {
			warmup: 512, verify: 32, traced: 500,
			datasets: []dataset{{
				name: "events_idx", n: size(readEvents), seed: 11, dist: workload.Skewed, timeRange: 1_000_000,
				partitioner: "bsp:20000", index: "persistent", columnar: true,
			}},
			pool: selectivePool, replay: (*runner).replaySelective,
		},
		"read_scan": {
			warmup: 128, verify: 32, traced: 250,
			datasets: []dataset{{
				name: "events_plain", n: size(readEvents), seed: 11, dist: workload.Skewed, timeRange: 1_000_000,
				partitioner: "bsp:20000",
			}},
			pool: scanPool, replay: (*runner).replayScan,
		},
		"join_filtered": {
			warmup: 32, verify: 4, traced: 64,
			datasets: []dataset{
				{name: "sites", n: sites, seed: 21, dist: workload.Diagonal, timeRange: 8, partitioner: "grid:8", index: "persistent"},
				{name: "alerts", n: sites / 10, seed: 22, dist: workload.Diagonal, timeRange: 8, partitioner: "grid:8", index: "persistent"},
			},
			pool: joinPool, replay: (*runner).replayJoin,
		},
		"ingest_then_query": {
			durable: true, warmup: 256, traced: 250,
			datasets: []dataset{{
				name: "fleet", n: size(fleetEvents), seed: 31, dist: workload.Skewed, timeRange: 1_000_000,
				partitioner: "grid:8", index: "live", mutable: true,
			}},
			pool: ingestPool, replay: (*runner).replayIngest,
		},
	}
}

// selectivePool: 4096 tiny windows, every odd one with a category
// clause; every 5th entry re-issues one of 64 hot entries verbatim.
// The hot set fits the 64 MiB result cache, the distinct stream does
// not and forces evictions.
func selectivePool(rng *rand.Rand, tabs []table) []op {
	t := tabs[0]
	const side = 4
	fresh := func(i int, centre event) op {
		o := op{win: windowOn(centre, side), cat: -1, end: t.ds.timeRange}
		if i%2 == 1 {
			o.cat = rng.Intn(len(workload.Categories))
		}
		o.head = queryHead(t.ds.name, o.win, whereCategory(o.cat), "")
		return o
	}
	cs := centres(rng, t, 4096, density(t, side))
	// The hot entries take the centres of the first slots they fill, a
	// run of the stride arrangement that spans the strata like any other.
	hot := make([]op, hotEntries)
	for k := range hot {
		hot[k] = fresh(k, cs[5*k+4])
		hot[k].fixed = true
	}
	pool := make([]op, len(cs))
	for i, c := range cs {
		if i%5 == 4 {
			pool[i] = hot[(i/5)%len(hot)]
		} else {
			pool[i] = fresh(i, c)
		}
	}
	return pool
}

// scanPool: 1024 larger windows over the unindexed dataset, every
// issue a cache miss.
func scanPool(rng *rand.Rand, tabs []table) []op {
	t := tabs[0]
	const side = 10
	pool := make([]op, 1024)
	for i, c := range centres(rng, t, len(pool), density(t, side)) {
		win := windowOn(c, side)
		pool[i] = op{win: win, cat: -1, end: t.ds.timeRange, head: queryHead(t.ds.name, win, "", "")}
	}
	return pool
}

// joinClause renders the join half of a join_filtered request.
func joinClause(strategy string) string {
	return `{"with":"alerts","predicate":"withindistance","distance":1,"strategy":"` + strategy + `"}`
}

// joinPool: 256 windows on sites, each joined against alerts within
// distance 1 with the planner choosing the strategy.
func joinPool(rng *rand.Rand, tabs []table) []op {
	t := tabs[0]
	// The sites lie along the diagonal; a window's share of them
	// follows its position along it.
	along := func(e event) float64 { return e.x + e.y }
	pool := make([]op, 256)
	for i, c := range centres(rng, t, len(pool), along) {
		win := windowOn(c, 200)
		// The join's temporal half compares instants, so the window's
		// time bound only has to cover the left side's range.
		pool[i] = op{win: win, cat: -1, join: true, end: t.ds.timeRange, head: queryHead(t.ds.name, win, "", joinClause("auto"))}
	}
	return pool
}

// idStride walks the key space so that consecutive batches never share
// an id and every id is rewritten once per len(events)/batchOps
// batches: the dataset keeps its size while tombstones accumulate and
// are vacuumed at a steady rate. It is prime, so coprime to any
// dataset size the benchmark uses.
const idStride = 7919

// ingestPool: batches of 100 upserts that move existing records to new
// positions near generated events, each followed by a query for a
// 20×20 window centred on the batch's first new position; odd entries
// add that record's category as a where clause. The pool rewrites the
// key space exactly twice, so when it cycles every upsert still moves
// its record: an entry's ids were last written by the entry half a
// pool earlier, at other positions.
func ingestPool(rng *rand.Rand, tabs []table) []op {
	t := tabs[0]
	n := len(t.events)
	pool := make([]op, 2*n/batchOps)
	// The query's cost follows the density around the batch's first
	// record, so that record's anchor is stratified; the others land
	// near uniformly drawn events.
	const side = 20
	first := centres(rng, t, len(pool), density(t, side))
	var batch []byte
	for i := range pool {
		batch = batch[:0]
		var o op
		for j := 0; j < batchOps; j++ {
			id := int64((i*batchOps + j) % n * idStride % n)
			near := t.events[rng.Intn(n)]
			if j == 0 {
				near = first[i]
			}
			x := min(max(near.x+rng.NormFloat64()*2, 0), 1000)
			y := min(max(near.y+rng.NormFloat64()*2, 0), 1000)
			cat := rng.Intn(len(workload.Categories))
			batch = fmt.Appendf(batch, `{"op":"upsert","id":%d,"category":%q,"time":%d,"wkt":"POINT (%s %s)"}`+"\n",
				id, workload.Categories[cat], rng.Int63n(t.ds.timeRange), num(x), num(y))
			if j == 0 {
				xy, _ := json.Marshal([2]float64{x, y}) // two finite floats cannot fail to encode
				o = op{
					win: windowOn(event{x: x, y: y}, side), cat: -1, end: t.ds.timeRange,
					id: id, xy: append([]byte(`"coordinates":`), xy...),
				}
				if i%2 == 1 {
					o.cat = cat
				}
			}
		}
		o.batch = append([]byte(nil), batch...)
		o.head = queryHead(t.ds.name, o.win, whereCategory(o.cat), "")
		pool[i] = o
	}
	return pool
}
