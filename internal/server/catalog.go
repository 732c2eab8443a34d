package server

// The dataset catalog turns the server from a single-dataset demo
// into a multi-tenant query service: named datasets are registered,
// listed and dropped over HTTP (or preloaded by cmd/starkd), each
// carrying its own staged data, planner statistics, index mode and
// partitioner recipe. Registration builds the dataset outside the
// catalog lock, so queries against other datasets keep flowing while
// a new one stages; the swap under the write lock is the only
// serialisation point. Queries that already hold an entry keep using
// it after a drop or re-register — entries are immutable once
// published, so there are no torn reads, and the result cache
// invalidates by construction because a re-registered dataset carries
// a fresh engine generation (see stark.Dataset.Fingerprint).

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unique"

	"stark"
	"stark/internal/engine"
	"stark/internal/stobject"
	"stark/internal/workload"
)

// DatasetSpec describes how to build a catalog dataset: either a
// seeded generator configuration (N > 0) or inline events, plus the
// physical layout (partitioner recipe and index mode). A generated
// dataset's keys are made from the generator's points; inline events
// are parsed from their WKT (see DatasetSpec.rows).
type DatasetSpec struct {
	Name string `json:"name"`
	// Generator configuration, used when Events is empty.
	N         int     `json:"n,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	Dist      string  `json:"dist,omitempty"` // uniform|skewed|diagonal
	Width     float64 `json:"width,omitempty"`
	Height    float64 `json:"height,omitempty"`
	TimeRange int64   `json:"timeRange,omitempty"`
	// Events, when non-empty, is the inline payload (small datasets,
	// tests) and takes precedence over the generator.
	Events []eventSpec `json:"events,omitempty"`
	// Index is the index mode recipe: "none" (default), "live[:order]"
	// or "persistent[:order]".
	Index string `json:"index,omitempty"`
	// Partitioner is the partitioner recipe: "" (no spatial
	// partitioning), "grid:ppd", "bsp:maxCost" or "voronoi:seeds".
	Partitioner string `json:"partitioner,omitempty"`
	// Mutable registers a live dataset that accepts mutation batches
	// after registration (POST /api/v1/ingest). A mutable dataset may
	// start empty (N == 0, no events); any generator or inline events
	// are loaded as its generation 1. The "persistent" index recipe is
	// rejected — bulk-loaded STR trees are immutable.
	Mutable bool `json:"mutable,omitempty"`
	// Columnar builds the columnar scan sidecar, its columns in the
	// rows' order (an index's leaf order, a Hilbert layout otherwise):
	// at staging time for immutable datasets, lazily per snapshot
	// generation for mutable ones (the first query after each ingest
	// batch pays the rebuild).
	Columnar bool `json:"columnar,omitempty"`
}

// eventSpec is one inline event of a registration request, and one
// row of a checkpoint's rows file.
type eventSpec = workload.Event

// DatasetInfo is the public summary of a catalog entry.
type DatasetInfo struct {
	Name        string `json:"name"`
	Events      int64  `json:"events"`
	Partitions  int    `json:"partitions"`
	Generation  int64  `json:"generation"`
	Index       string `json:"index"`
	Partitioner string `json:"partitioner"`
	// Mutable marks a live dataset; LiveGeneration is its latest
	// published mutation generation (0 = no batch applied yet).
	Mutable        bool   `json:"mutable,omitempty"`
	LiveGeneration uint64 `json:"liveGeneration,omitempty"`
	// Columnar marks entries carrying the columnar scan sidecar.
	Columnar bool `json:"columnar,omitempty"`
}

// catalogEntry is one published dataset. The identity of an entry is
// immutable after Register returns it — a re-registration publishes a
// new entry value, never mutates an old one — but a mutable entry's
// dataset accepts ingest batches, so its summary is recomputed lazily
// off the live generation rather than frozen at registration.
type catalogEntry struct {
	spec    DatasetSpec
	ds      *stark.Dataset[eventValue]        // immutable entries
	mds     *stark.MutableDataset[eventValue] // mutable entries
	events  int64
	summary *stark.DatasetStats
	gen     int64

	// sumMu guards the lazy summary cache of a mutable entry.
	sumMu     sync.Mutex
	sumGen    uint64
	sumCached *stark.DatasetStats
	sumEvents int64

	// colMu guards the per-generation columnar view of a mutable
	// columnar entry (immutable columnar entries bake the sidecar into
	// ds at staging time).
	colMu  sync.Mutex
	colGen uint64
	colDS  *stark.Dataset[eventValue]
}

// dataset returns the queryable view of the entry: the staged dataset
// for immutable entries, the latest snapshot (pinned generation) for
// mutable ones. Snapshots of an unchanged generation are shared, so
// repeated queries keep identical plan fingerprints and the result
// cache keeps hitting until a mutation batch lands.
func (e *catalogEntry) dataset() *stark.Dataset[eventValue] {
	if e.mds != nil {
		if e.spec.Columnar {
			return e.columnarSnapshot()
		}
		return e.mds.Snapshot()
	}
	return e.ds
}

// columnarSnapshot returns the latest snapshot with the columnar hint
// chained on, memoised per live generation: within a generation every
// query shares one view (so the sidecar is built once, lazily at the
// first action), and a mutation batch invalidates it by moving the
// generation.
func (e *catalogEntry) columnarSnapshot() *stark.Dataset[eventValue] {
	e.colMu.Lock()
	defer e.colMu.Unlock()
	// Read the generation before taking the snapshot: if a batch lands
	// in between, a newer view is cached under an older label and the
	// next call refreshes again — never a stale view under a newer
	// generation (same discipline as the stats cache below).
	g := e.mds.Generation()
	if e.colDS == nil || g != e.colGen {
		e.colDS = e.mds.Snapshot().Columnar()
		e.colGen = g
	}
	return e.colDS
}

// stats returns the planner summary and the event count. Immutable
// entries answer from the values computed at registration; mutable
// entries recompute lazily when the live generation has moved — the
// incrementally maintained summary makes that a copy, not a rescan —
// so the catalog endpoints always reflect mutations.
func (e *catalogEntry) stats() (*stark.DatasetStats, int64) {
	if e.mds == nil {
		return e.summary, e.events
	}
	e.sumMu.Lock()
	defer e.sumMu.Unlock()
	// Read the generation before the summary: if a batch lands in
	// between, a newer summary is cached under an older label and the
	// next call refreshes again — never the other way around, so a
	// stale summary is never pinned under a newer generation.
	if g := e.mds.Generation(); e.sumCached == nil || g != e.sumGen {
		e.sumCached = e.mds.Stats()
		e.sumEvents = e.mds.Count()
		e.sumGen = g
	}
	return e.sumCached, e.sumEvents
}

func (e *catalogEntry) info() DatasetInfo {
	idx := e.spec.Index
	if idx == "" {
		idx = "none"
	}
	sum, events := e.stats()
	info := DatasetInfo{
		Name:        e.spec.Name,
		Events:      events,
		Partitions:  len(sum.Parts),
		Generation:  e.gen,
		Index:       idx,
		Partitioner: e.spec.Partitioner,
	}
	if e.mds != nil {
		info.Mutable = true
		info.LiveGeneration = e.mds.Generation()
	}
	info.Columnar = e.spec.Columnar
	return info
}

// catalog is the concurrent registry of named datasets.
type catalog struct {
	mu      sync.RWMutex
	entries map[string]*catalogEntry
	gen     int64 // registration counter, monotonic under mu

	// dur, when set, write-ahead-logs every catalog mutation and every
	// ingest batch before it becomes visible. Set once at boot (before
	// any registration) by Server.EnableDurability.
	dur *durability
}

// newCatalog returns an empty catalog.
func newCatalog() *catalog {
	return &catalog{entries: make(map[string]*catalogEntry)}
}

// Get returns the published entry for name.
func (c *catalog) Get(name string) (*catalogEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[name]
	return e, ok
}

// List returns the summaries of all entries, sorted by name.
func (c *catalog) List() []DatasetInfo {
	c.mu.RLock()
	infos := make([]DatasetInfo, 0, len(c.entries))
	for _, e := range c.entries {
		infos = append(infos, e.info())
	}
	c.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Drop removes name from the catalog, reporting whether it existed.
// In-flight queries holding the entry finish against it undisturbed.
// Under durability the drop is write-ahead-logged and fsync'd before
// the entry disappears; a logging failure leaves the catalog
// unchanged, so a drop the client saw acknowledged can never
// resurrect on restart.
func (c *catalog) Drop(name string) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; !ok {
		return false, nil
	}
	if c.dur != nil {
		if err := c.dur.logDrop(name); err != nil {
			return true, fmt.Errorf("logging drop of %q: %w", name, err)
		}
	}
	delete(c.entries, name)
	return true, nil
}

// Register builds the dataset described by spec and publishes it
// under spec.Name, replacing any previous registration. The build
// (staging, shuffle, index, statistics) runs outside the catalog
// lock.
func (c *catalog) Register(ctx *stark.Context, spec DatasetSpec) (*catalogEntry, error) {
	rows, err := spec.rows(ctx)
	if err != nil {
		return nil, err
	}
	return c.registerAt(ctx, spec, rows, 0, seedGen(rows))
}

// registerReplayed re-registers a dataset from a WAL register record
// during recovery, publishing at the recorded catalog generation. The
// spec is self-contained (inline events ride in it), so the rebuild
// is deterministic.
func (c *catalog) registerReplayed(ctx *stark.Context, spec DatasetSpec, gen int64) error {
	rows, err := spec.rows(ctx)
	if err != nil {
		return err
	}
	_, err = c.registerAt(ctx, spec, rows, gen, seedGen(rows))
	return err
}

// seedGen is the live generation a mutable dataset's seed rows load
// at: 1, or 0 when it starts empty.
func seedGen(rows []stark.Tuple[eventValue]) uint64 { return uint64(min(len(rows), 1)) }

// registerAt is the shared registration body. gen > 0 forces the
// published catalog generation (recovery replay and checkpoint restore
// keep the recovered history's numbering); gen == 0 takes the next
// one. A mutable dataset loads rows at live generation liveGen: the
// seed generation on registration, the manifest's on checkpoint
// restore. Under durability a live (non-replayed) registration is
// write-ahead-logged and fsync'd inside the lock, before the entry
// becomes visible — a registration the client saw acknowledged
// survives any crash after this returns.
func (c *catalog) registerAt(ctx *stark.Context, spec DatasetSpec, rows []stark.Tuple[eventValue], gen int64, liveGen uint64) (*catalogEntry, error) {
	if strings.TrimSpace(spec.Name) == "" {
		return nil, fmt.Errorf("dataset name must not be empty")
	}
	var e *catalogEntry
	if spec.Mutable {
		mds, err := stageMutable(ctx, rows, spec, liveGen)
		if err != nil {
			return nil, err
		}
		e = &catalogEntry{spec: spec, mds: mds}
	} else {
		ds, err := stageDataset(ctx, rows, spec)
		if err != nil {
			return nil, err
		}
		summary, err := ds.Stats()
		if err != nil {
			return nil, fmt.Errorf("collecting stats: %w", err)
		}
		e = &catalogEntry{spec: spec, ds: ds, events: summary.Count, summary: summary}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen > 0 {
		if gen > c.gen {
			c.gen = gen
		}
		e.gen = gen
	} else {
		c.gen++
		e.gen = c.gen
	}
	if c.dur != nil {
		if gen <= 0 {
			if err := c.dur.logRegister(e.gen, spec); err != nil {
				c.gen--
				return nil, fmt.Errorf("logging registration of %q: %w", spec.Name, err)
			}
		}
		// Post-recovery ingest batches on this dataset must hit the
		// log before they apply: the commit hook runs inside the live
		// dataset's writer lock, after validation and before mutation,
		// so the acknowledged batch is durable or not applied at all.
		// (The records loaded above predate the hook on purpose — they
		// are re-derived from the logged spec or the checkpoint, not
		// from the log.)
		if e.mds != nil {
			d, name, entryGen := c.dur, spec.Name, e.gen
			e.mds.OnCommit(func(g uint64, ops []stark.LiveOp[eventValue]) error {
				return d.logBatch(name, entryGen, g, ops)
			})
		}
	}
	c.entries[spec.Name] = e
	return e, nil
}

// setDurability installs the write-ahead log. Must run before any
// registration the log is supposed to cover.
func (c *catalog) setDurability(d *durability) {
	c.mu.Lock()
	c.dur = d
	c.mu.Unlock()
}

// setGen forces the registration counter — recovery re-establishes
// the counter recorded in the checkpoint manifest before replaying
// the WAL suffix.
func (c *catalog) setGen(g int64) {
	c.mu.Lock()
	if g > c.gen {
		c.gen = g
	}
	c.mu.Unlock()
}

// snapshot returns every entry (sorted by registration generation)
// and the current counter — the consistent catalog view a checkpoint
// serialises.
func (c *catalog) snapshot() ([]*catalogEntry, int64) {
	c.mu.RLock()
	entries := make([]*catalogEntry, 0, len(c.entries))
	for _, e := range c.entries {
		entries = append(entries, e)
	}
	gen := c.gen
	c.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].gen < entries[j].gen })
	return entries, gen
}

// rows builds the spec's catalog rows: inline events through
// catalogRows, which parses their text, or the seeded generator's
// records, whose points become the keys with no text in between (the
// same bits: the WKT writer is shortest-round-trip, see
// geom.TestWKTRoundTripBitExact).
func (spec DatasetSpec) rows(ctx *stark.Context) ([]stark.Tuple[eventValue], error) {
	if len(spec.Events) > 0 {
		return catalogRows(ctx, spec.Events)
	}
	if spec.N <= 0 {
		if spec.Mutable {
			// May start empty: its payload arrives through POST
			// /api/v1/ingest (anything given above is the seed batch).
			return nil, nil
		}
		return nil, fmt.Errorf("dataset %q: need n > 0 or inline events", spec.Name)
	}
	var dist workload.Distribution
	switch strings.ToLower(spec.Dist) {
	case "", "skewed":
		dist = workload.Skewed
	case "uniform":
		dist = workload.Uniform
	case "diagonal":
		dist = workload.Diagonal
	default:
		return nil, fmt.Errorf("dataset %q: unknown distribution %q", spec.Name, spec.Dist)
	}
	cats := make([]unique.Handle[string], len(workload.Categories))
	for i, c := range workload.Categories {
		cats[i] = unique.Make(c)
	}
	rows := make([]stark.Tuple[eventValue], 0, spec.N)
	workload.EventRecords(workload.Config{
		N: spec.N, Seed: spec.Seed, Dist: dist,
		Width: spec.Width, Height: spec.Height, TimeRange: spec.TimeRange,
	}, func(id int, p stark.Point, cat int, t int64) {
		rows = append(rows, stark.NewTuple(stobject.NewPointAt(p.X, p.Y, stobject.Instant(t)), eventValue{ID: int64(id), cat: cats[cat]}))
	})
	return rows, nil
}

// eventValue is the value of a resident catalog row, the paper's
// (id, c). The row's key holds the geometry and the time. The category
// is an interned handle: one pointer per row, and one copy of each
// distinct text for as long as a row holds it.
type eventValue struct {
	ID  int64
	cat unique.Handle[string]
}

// category returns the row's category; the zero value's is "".
func (v eventValue) category() string {
	if v.cat == (unique.Handle[string]{}) {
		return ""
	}
	return v.cat.Value()
}

// eventTime is a catalog row's time, its key's (instant) interval start.
func eventTime(key stark.STObject) int64 {
	iv, _ := key.Time()
	return int64(iv.Start)
}

// catalogRow builds the resident row of a text event, and is the one
// place a text category becomes a handle (a generated dataset's rows
// share one handle per generator category, see DatasetSpec.rows): it
// parses the event's WKT and time into the key and keeps
// (id, category), as the paper's
// raw.map{ case (id,c,t,wkt) => (STObject(wkt,t), (id,c)) } does. The
// WAL and checkpoint writers render the text from the key (keyWKT:
// shortest digits, so it parses back bit for bit, see
// geom.TestWKTRoundTripBitExact) and read the time with eventTime.
func catalogRow(ev workload.Event) (stark.Tuple[eventValue], error) {
	key, err := ev.ToSTObject()
	if err != nil {
		return stark.Tuple[eventValue]{}, err
	}
	return stark.NewTuple(key, eventValue{ID: int64(ev.ID), cat: unique.Make(ev.Category)}), nil
}

// catalogRows builds the rows of events in order, parsing contiguous
// ranges as tasks of the engine's pool. It returns the error of the
// first event that does not parse.
func catalogRows(ctx *stark.Context, events []workload.Event) ([]stark.Tuple[eventValue], error) {
	const chunk = 16384 // events per task
	rows := make([]stark.Tuple[eventValue], len(events))
	err := ctx.RunJob(engine.AllPartitions((len(events)+chunk-1)/chunk), func(t int) error {
		for i, hi := t*chunk, min((t+1)*chunk, len(events)); i < hi; i++ {
			row, err := catalogRow(events[i])
			if err != nil {
				return fmt.Errorf("event %d: invalid WKT: %w", i, err)
			}
			rows[i] = row
		}
		return nil
	})
	return rows, err
}

// stageDataset lifts rows into a Dataset with the spec's
// partitioner recipe and index mode applied, and forces the chain so
// registration errors surface here rather than on the first query.
func stageDataset(ctx *stark.Context, rows []stark.Tuple[eventValue], spec DatasetSpec) (*stark.Dataset[eventValue], error) {
	ds := stark.Parallelize(ctx, rows)
	if spec.Partitioner != "" {
		p, err := parsePartitioner(spec.Partitioner)
		if err != nil {
			return nil, err
		}
		ds = ds.PartitionBy(p)
	}
	mode, err := parseIndexMode(spec.Index)
	if err != nil {
		return nil, err
	}
	if mode != (stark.NoIndexing) {
		ds = ds.Index(mode)
	}
	if spec.Columnar {
		ds = ds.Columnar()
	}
	if err := ds.Run(); err != nil {
		return nil, fmt.Errorf("staging events: %w", err)
	}
	return ds, nil
}

// stageMutable builds a mutable catalog dataset. The spatial layout
// is fixed up front: the spec's partitioner recipe is built over the
// seed rows' keys, or over the corners of the declared data space
// when the dataset starts empty (the generator's default 1000×1000
// when no width/height is given). The rows are loaded at live
// generation gen before any commit hook is attached, each row's ID
// the live record ID, so they can be upserted and deleted over HTTP
// later.
func stageMutable(ctx *stark.Context, rows []stark.Tuple[eventValue], spec DatasetSpec, gen uint64) (*stark.MutableDataset[eventValue], error) {
	order, err := parseLiveOrder(spec)
	if err != nil {
		return nil, err
	}
	recs := make([]stark.LiveRecord[eventValue], len(rows))
	keys := make([]stark.STObject, len(rows))
	for i, kv := range rows {
		recs[i] = stark.LiveRecord[eventValue]{ID: kv.Value.ID, Key: kv.Key, Value: kv.Value}
		keys[i] = kv.Key
	}
	sp, err := buildLiveLayout(spec, keys)
	if err != nil {
		return nil, err
	}
	mds := stark.NewMutableDataset[eventValue](ctx, spec.Name, sp, order)
	mds.SetAttrFields(eventSchema)
	return mds, mds.Restore(gen, recs)
}

// buildLiveLayout fixes a mutable dataset's spatial layout: the
// spec's partitioner recipe built over the given keys, or over the
// corners of the declared data space when there are none (the
// generator's default 1000×1000 when no width/height is given). A
// spec without a partitioner yields nil — a single partition.
func buildLiveLayout(spec DatasetSpec, keys []stark.STObject) (stark.SpatialPartitioner, error) {
	if spec.Partitioner == "" {
		return nil, nil
	}
	p, err := parsePartitioner(spec.Partitioner)
	if err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		w, h := spec.Width, spec.Height
		if w <= 0 {
			w = 1000
		}
		if h <= 0 {
			h = 1000
		}
		keys = []stark.STObject{
			stark.NewSTObject(stark.NewPoint(0, 0)),
			stark.NewSTObject(stark.NewPoint(w, h)),
		}
	}
	sp, err := p.Build(keys)
	if err != nil {
		return nil, fmt.Errorf("building partitioner: %w", err)
	}
	return sp, nil
}

// parseLiveOrder extracts the node order of the partitions' packed
// trees from a mutable dataset's index recipe. Only "" / "none"
// (default order) and "live[:order]" are valid: a mutable dataset's
// partition trees are always its live index, repacked as batches
// land, and "persistent" (saved once, immutable by construction)
// cannot back one.
func parseLiveOrder(spec DatasetSpec) (int, error) {
	kind, arg, _ := strings.Cut(strings.ToLower(strings.TrimSpace(spec.Index)), ":")
	switch kind {
	case "", "none", "live":
	case "persistent":
		return 0, fmt.Errorf("mutable dataset %q: persistent indexes are bulk-loaded and immutable; use live[:order]", spec.Name)
	default:
		return 0, fmt.Errorf("unknown index recipe %q (mutable datasets take none or live[:order])", spec.Index)
	}
	if arg == "" {
		return 0, nil
	}
	order, err := strconv.Atoi(arg)
	if err != nil || order <= 0 {
		return 0, fmt.Errorf("index recipe %q: bad order %q", spec.Index, arg)
	}
	return order, nil
}

// parseIndexMode parses an index recipe: "", "none", "live[:order]",
// "persistent[:order]".
func parseIndexMode(s string) (stark.IndexMode, error) {
	kind, arg, _ := strings.Cut(strings.ToLower(strings.TrimSpace(s)), ":")
	order := 0
	if arg != "" {
		v, err := strconv.Atoi(arg)
		if err != nil {
			return stark.NoIndexing, fmt.Errorf("index recipe %q: bad order %q", s, arg)
		}
		order = v
	}
	switch kind {
	case "", "none":
		return stark.NoIndexing, nil
	case "live":
		return stark.Live(order), nil
	case "persistent":
		return stark.Persistent(order), nil
	default:
		return stark.NoIndexing, fmt.Errorf("unknown index recipe %q (want none, live[:order] or persistent[:order])", s)
	}
}

// parsePartitioner parses a partitioner recipe: "grid:ppd",
// "bsp:maxCost", "voronoi:seeds".
func parsePartitioner(s string) (stark.Partitioner, error) {
	kind, arg, _ := strings.Cut(strings.ToLower(strings.TrimSpace(s)), ":")
	n := 0
	if arg != "" {
		v, err := strconv.Atoi(arg)
		if err != nil {
			return stark.Partitioner{}, fmt.Errorf("partitioner recipe %q: bad argument %q", s, arg)
		}
		n = v
	}
	switch kind {
	case "grid":
		if n <= 0 {
			n = 8
		}
		return stark.Grid(n), nil
	case "bsp":
		if n <= 0 {
			n = 1024
		}
		return stark.BSP(n), nil
	case "voronoi":
		if n <= 0 {
			n = 32
		}
		return stark.Voronoi(n, 42), nil
	default:
		return stark.Partitioner{}, fmt.Errorf("unknown partitioner recipe %q (want grid:ppd, bsp:maxCost or voronoi:seeds)", s)
	}
}

// ParseDatasetFlag parses the cmd/starkd -dataset flag syntax:
//
//	name:key=value,key=value,...
//
// with keys n, seed, dist, width, height, timerange, index, part,
// mutable, columnar. Example:
// "hotels:n=50000,seed=7,dist=uniform,index=live:8,part=grid:8";
// "fleet:mutable=true,part=grid:8" registers an empty mutable dataset
// fed over POST /api/v1/ingest.
func ParseDatasetFlag(s string) (DatasetSpec, error) {
	name, rest, ok := strings.Cut(s, ":")
	if !ok || strings.TrimSpace(name) == "" {
		return DatasetSpec{}, fmt.Errorf("dataset flag %q: want name:key=value,...", s)
	}
	spec := DatasetSpec{Name: strings.TrimSpace(name)}
	for _, kv := range strings.Split(rest, ",") {
		if strings.TrimSpace(kv) == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return DatasetSpec{}, fmt.Errorf("dataset flag %q: bad pair %q", s, kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch strings.ToLower(key) {
		case "n":
			spec.N, err = strconv.Atoi(val)
		case "seed":
			spec.Seed, err = strconv.ParseInt(val, 10, 64)
		case "dist":
			spec.Dist = val
		case "width":
			spec.Width, err = strconv.ParseFloat(val, 64)
		case "height":
			spec.Height, err = strconv.ParseFloat(val, 64)
		case "timerange":
			spec.TimeRange, err = strconv.ParseInt(val, 10, 64)
		case "index":
			spec.Index = val
		case "part", "partitioner":
			spec.Partitioner = val
		case "mutable":
			spec.Mutable, err = strconv.ParseBool(val)
		case "columnar":
			spec.Columnar, err = strconv.ParseBool(val)
		default:
			return DatasetSpec{}, fmt.Errorf("dataset flag %q: unknown key %q", s, key)
		}
		if err != nil {
			return DatasetSpec{}, fmt.Errorf("dataset flag %q: bad value for %s: %v", s, key, err)
		}
	}
	if spec.N <= 0 && !spec.Mutable {
		return DatasetSpec{}, fmt.Errorf("dataset flag %q: need n=<count> (or mutable=true to start empty)", s)
	}
	return spec, nil
}
