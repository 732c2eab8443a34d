package live

import (
	"fmt"
	"sync"
	"sync/atomic"

	"stark/internal/attr"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stats"
	"stark/internal/stobject"
)

// vacuumFloor is the minimum tombstone count before a partition tree
// is considered for rebuilding.
const vacuumFloor = 64

// Record is one mutable-dataset record: a caller-chosen ID, the
// spatio-temporal key, and the payload.
type Record[V any] struct {
	ID    int64
	Key   stobject.STObject
	Value V
}

// OpKind selects what a mutation operation does.
type OpKind uint8

const (
	// OpInsert adds a record; the ID must not be live.
	OpInsert OpKind = iota + 1
	// OpUpsert replaces the record with the same ID, or inserts it.
	OpUpsert
	// OpDelete removes the record by ID; a missing ID is counted, not
	// an error.
	OpDelete
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpUpsert:
		return "upsert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one mutation in a batch.
type Op[V any] struct {
	Kind OpKind
	Rec  Record[V]
}

// Insert builds an insert op.
func Insert[V any](id int64, key stobject.STObject, v V) Op[V] {
	return Op[V]{Kind: OpInsert, Rec: Record[V]{ID: id, Key: key, Value: v}}
}

// Upsert builds an upsert op.
func Upsert[V any](id int64, key stobject.STObject, v V) Op[V] {
	return Op[V]{Kind: OpUpsert, Rec: Record[V]{ID: id, Key: key, Value: v}}
}

// Delete builds a delete op.
func Delete[V any](id int64) Op[V] {
	return Op[V]{Kind: OpDelete, Rec: Record[V]{ID: id}}
}

// BatchResult reports what one Apply did. Gen is the generation the
// batch published; snapshots taken at Gen or later see every effect.
type BatchResult struct {
	Inserted int    `json:"inserted"`
	Replaced int    `json:"replaced"`
	Deleted  int    `json:"deleted"`
	Missing  int    `json:"missing"`
	Gen      uint64 `json:"generation"`
}

// viewState is the published, immutable snapshot state: the
// generation, the partition trees as of that generation, and the
// statistics summary. Swapped atomically as one value so a reader can
// never pair the generation of one batch with the trees or stats of
// another.
type viewState[V any] struct {
	gen   uint64
	trees []*tree[V]
	attrs []*partAttrs[V] // nil slots until SetAttrFields
	stats *stats.Summary
}

// Dataset is a mutable spatio-temporal dataset: records keyed by
// int64 ID, spatially partitioned, each partition indexed by a
// concurrent R-link tree. Mutations arrive in batches; each batch
// publishes a new generation atomically, and Snapshot pins a
// generation so readers stream a consistent view while later batches
// land.
type Dataset[V any] struct {
	name  string
	ctx   *engine.Context
	sp    partition.SpatialPartitioner // nil = single partition
	order int

	mu     sync.Mutex // serialises writer batches and vacuum
	trees  []*tree[V]
	partOf map[int64]int // live ID -> partition; writer-only
	inc    *stats.Incremental

	// attrFields and attrs are the maintained attribute postings (see
	// postings.go); attrs slots stay nil until SetAttrFields.
	attrFields []attr.Field[V]
	attrs      []*partAttrs[V]

	// onCommit, when set, runs inside Apply's critical section after
	// validation and before any mutation — the write-ahead point: an
	// error aborts the batch with nothing applied, so an acknowledged
	// batch is exactly one the hook accepted (and, when the hook is a
	// WAL append + fsync, one that is durable).
	onCommit func(gen uint64, ops []Op[V]) error

	view atomic.Pointer[viewState[V]]
}

// NewDataset returns an empty mutable dataset. sp selects the spatial
// layout (nil = one partition); order is the live-tree node capacity
// (<= 0 selects DefaultOrder).
func NewDataset[V any](ctx *engine.Context, name string, sp partition.SpatialPartitioner, order int) *Dataset[V] {
	if order <= 0 {
		order = DefaultOrder
	}
	n := 1
	if sp != nil {
		n = sp.NumPartitions()
	}
	d := &Dataset[V]{
		name:   name,
		ctx:    ctx,
		sp:     sp,
		order:  order,
		trees:  make([]*tree[V], n),
		attrs:  make([]*partAttrs[V], n),
		partOf: make(map[int64]int),
		inc:    stats.NewIncremental(n, 0),
	}
	for i := range d.trees {
		d.trees[i] = newTree[V](order, nil)
	}
	d.view.Store(&viewState[V]{gen: 0, trees: append([]*tree[V](nil), d.trees...), stats: d.inc.Summary()})
	return d
}

// Name returns the dataset name.
func (d *Dataset[V]) Name() string { return d.name }

// Order returns the live-tree node capacity.
func (d *Dataset[V]) Order() int { return d.order }

// Generation returns the latest published generation.
func (d *Dataset[V]) Generation() uint64 { return d.view.Load().gen }

// Count returns the live record count at the latest generation.
func (d *Dataset[V]) Count() int64 { return d.view.Load().stats.Count }

func (d *Dataset[V]) partitionFor(key stobject.STObject) int {
	if d.sp == nil {
		return 0
	}
	return d.sp.PartitionFor(key)
}

// Apply validates and applies one mutation batch, publishing a new
// generation. The batch is atomic: validation runs BEFORE any
// mutation (so a rejected batch changes nothing), and the generation
// is published after every op landed (so concurrent snapshots see all
// of the batch or none of it). Returns what happened per op kind.
func (d *Dataset[V]) Apply(ops []Op[V]) (BatchResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.applyLocked(ops, true)
}

// OnCommit installs the commit hook (see the field comment). It must
// be set before the dataset takes writes; the hook must not call back
// into the dataset.
func (d *Dataset[V]) OnCommit(fn func(gen uint64, ops []Op[V]) error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onCommit = fn
}

// applyLocked is Apply's body; the caller holds d.mu. hook selects
// whether the onCommit hook runs — replay paths skip it, because the
// batches they apply are by definition already durable.
func (d *Dataset[V]) applyLocked(ops []Op[V], hook bool) (BatchResult, error) {
	gen := d.view.Load().gen + 1
	res := BatchResult{Gen: gen}

	// Validation pass: after this loop the apply loop cannot fail, so
	// a batch can never be half-applied.
	seen := make(map[int64]struct{}, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case OpInsert, OpUpsert:
			if op.Rec.Key.IsEmpty() {
				return BatchResult{}, fmt.Errorf("live: op %d (%s id=%d): empty geometry", i, op.Kind, op.Rec.ID)
			}
		case OpDelete:
		default:
			return BatchResult{}, fmt.Errorf("live: op %d: unknown kind %d", i, op.Kind)
		}
		if _, dup := seen[op.Rec.ID]; dup {
			return BatchResult{}, fmt.Errorf("live: op %d: duplicate id %d in batch", i, op.Rec.ID)
		}
		seen[op.Rec.ID] = struct{}{}
		if op.Kind == OpInsert {
			if _, exists := d.partOf[op.Rec.ID]; exists {
				return BatchResult{}, fmt.Errorf("live: op %d: insert of existing id %d (use upsert)", i, op.Rec.ID)
			}
		}
	}

	if hook && d.onCommit != nil {
		if err := d.onCommit(gen, ops); err != nil {
			return BatchResult{}, fmt.Errorf("live: commit hook for %q generation %d: %w", d.name, gen, err)
		}
	}

	for _, op := range ops {
		switch op.Kind {
		case OpInsert:
			d.applyInsert(op.Rec, gen)
			res.Inserted++
		case OpUpsert:
			if d.applyDelete(op.Rec.ID, gen) {
				res.Replaced++
			} else {
				res.Inserted++
			}
			d.applyInsert(op.Rec, gen)
		case OpDelete:
			if d.applyDelete(op.Rec.ID, gen) {
				res.Deleted++
			} else {
				res.Missing++
			}
		}
	}

	d.vacuum()
	d.publish(gen)

	rec := d.ctx.Recorder()
	rec.Add(engine.LiveBatches, 1)
	rec.Add(engine.LiveMutations, int64(len(ops)))
	return res, nil
}

func (d *Dataset[V]) applyInsert(rec Record[V], gen uint64) {
	p := d.partitionFor(rec.Key)
	d.trees[p].insert(Entry[V]{ID: rec.ID, Key: rec.Key, Value: rec.Value, addGen: gen})
	d.attrInsert(p, rec, gen)
	d.partOf[rec.ID] = p
	d.inc.ApplyInsert(p, rec.Key)
}

func (d *Dataset[V]) applyDelete(id int64, gen uint64) bool {
	p, ok := d.partOf[id]
	if !ok {
		return false
	}
	old, ok := d.trees[p].delete(id, gen)
	if ok {
		d.inc.ApplyDelete(p, old.Key)
	}
	d.attrDelete(p, id, gen)
	delete(d.partOf, id)
	return ok
}

// vacuum reloads each partition whose tombstones outnumber its live
// entries (past a floor) from those entries, addGen kept. The new
// structures reach only the writer's working set and the NEXT view:
// snapshots keep reading what they pinned, and no later one can need a
// dropped tombstone (delGen <= published gen).
func (d *Dataset[V]) vacuum() {
	for p, t := range d.trees {
		if t.dead >= vacuumFloor && t.dead > t.live {
			d.load(p, t.liveEntries())
		}
	}
}

// load builds partition p from es (live, addGen stamped), tree and
// postings together, so the two always count the same tombstones. The
// caller holds d.mu or, in Restore, is partition p's task.
func (d *Dataset[V]) load(p int, es []Entry[V]) {
	d.trees[p] = newTree(d.order, es)
	if len(d.attrFields) > 0 {
		d.attrs[p] = newPartAttrs(d.attrFields, es)
	}
}

// publish swaps in the new view: generation, tree set, attribute
// postings and a deep-copied stats summary, as one atomic pointer
// store.
func (d *Dataset[V]) publish(gen uint64) {
	d.view.Store(&viewState[V]{
		gen:   gen,
		trees: append([]*tree[V](nil), d.trees...),
		attrs: append([]*partAttrs[V](nil), d.attrs...),
		stats: d.inc.Summary(),
	})
}

// ---- Recovery ----

// ReplayBatch re-applies one durably logged batch during recovery.
// gen is the generation the batch originally published. Replay is
// idempotent: a batch at or below the current generation is skipped
// (applied = false, no error) — it is already reflected in the
// checkpoint the dataset was restored from. A batch exactly one ahead
// is applied without invoking the commit hook. Anything further ahead
// is a gap — a missing log record — and returns an error rather than
// silently reconstructing a different history.
func (d *Dataset[V]) ReplayBatch(gen uint64, ops []Op[V]) (applied bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.view.Load().gen
	switch {
	case gen <= cur:
		return false, nil
	case gen == cur+1:
		_, err := d.applyLocked(ops, false)
		return err == nil, err
	default:
		return false, fmt.Errorf("live: replay gap in %q: at generation %d, next log record is for %d", d.name, cur, gen)
	}
}

// Restore loads any record set into an empty dataset and publishes it
// at gen (a checkpoint's, so that ReplayBatch lines up; 1 for seed
// records). It validates the whole set first, then packs each
// partition (see load) as a task of one engine job; the statistics
// equal those of inserting recs in order.
func (d *Dataset[V]) Restore(gen uint64, recs []Record[V]) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if v := d.view.Load(); v.gen != 0 || len(d.partOf) != 0 {
		return fmt.Errorf("live: Restore into non-empty dataset %q (generation %d)", d.name, v.gen)
	}
	partOf, inc := make(map[int64]int, len(recs)), stats.NewIncremental(len(d.trees), 0)
	parts := make([][]Entry[V], len(d.trees))
	for i, rec := range recs {
		if rec.Key.IsEmpty() {
			return fmt.Errorf("live: restore record %d (id=%d): empty geometry", i, rec.ID)
		}
		if _, dup := partOf[rec.ID]; dup {
			return fmt.Errorf("live: restore record %d: duplicate id %d", i, rec.ID)
		}
		p := d.partitionFor(rec.Key)
		partOf[rec.ID] = p
		inc.ApplyInsert(p, rec.Key)
		parts[p] = append(parts[p], Entry[V]{ID: rec.ID, Key: rec.Key, Value: rec.Value, addGen: gen})
	}
	if err := d.ctx.RunJob(engine.AllPartitions(len(parts)), func(p int) error {
		d.load(p, parts[p])
		return nil
	}); err != nil {
		return fmt.Errorf("live: restore %q: %w", d.name, err)
	}
	d.partOf, d.inc = partOf, inc
	d.publish(gen)
	return nil
}

// ---- Snapshots ----

// Snapshot is a pinned, immutable view of the dataset at one
// generation. Reads through a snapshot are repeatable: batches
// published after the pin are invisible, including structural
// replacement by vacuum.
type Snapshot[V any] struct {
	d *Dataset[V]
	v *viewState[V]
}

// Snapshot pins the latest published generation.
func (d *Dataset[V]) Snapshot() *Snapshot[V] {
	return &Snapshot[V]{d: d, v: d.view.Load()}
}

// SnapshotBarrier pins the latest published generation after
// synchronising with the writer: it takes d.mu, so any batch whose
// commit hook already ran — i.e. was write-ahead logged — has
// finished publishing and is visible in the returned snapshot.
// Checkpointing depends on exactly that: after rotating the WAL it
// must not serialise a view that misses a batch logged to a
// pre-rotation segment, because those segments are deleted once the
// checkpoint commits. Plain Snapshot (a lock-free view load) has no
// such guarantee.
func (d *Dataset[V]) SnapshotBarrier() *Snapshot[V] {
	d.mu.Lock()
	defer d.mu.Unlock()
	return &Snapshot[V]{d: d, v: d.view.Load()}
}

// Gen returns the pinned generation.
func (s *Snapshot[V]) Gen() uint64 { return s.v.gen }

// Count returns the live record count at the pinned generation.
func (s *Snapshot[V]) Count() int64 { return s.v.stats.Count }

// NumPartitions returns the partition count.
func (s *Snapshot[V]) NumPartitions() int { return len(s.v.trees) }

// Stats returns the statistics summary as of the pinned generation.
// The summary is immutable once published; callers must not modify
// it.
func (s *Snapshot[V]) Stats() *stats.Summary { return s.v.stats }

// Each streams every record live at the pinned generation — ID, key
// and value — stopping early when fn returns false. Checkpointing
// uses it to serialise a dataset; unlike Tuples it exposes the record
// IDs, without which a restored dataset could not take deletes.
func (s *Snapshot[V]) Each(fn func(Record[V]) bool) {
	v := s.v
	for _, t := range v.trees {
		more := true
		t.search(everything, v.gen, true, func(e Entry[V]) bool {
			more = fn(Record[V]{ID: e.ID, Key: e.Key, Value: e.Value})
			return more
		})
		if !more {
			return
		}
	}
}

// everything is an envelope no finite envelope fails to intersect.
var everything = geom.Envelope{MinX: -1e308, MinY: -1e308, MaxX: 1e308, MaxY: 1e308}

// Tuples materialises the snapshot as a streaming engine dataset: one
// partition per tree, each scanned through the pinned generation
// filter. Every call creates a NEW engine dataset (fresh lineage ID),
// which is what turns generation bumps into plan-fingerprint changes;
// callers that want a stable fingerprint for an unchanged generation
// must memoise the result per generation (the public DSL does).
func (s *Snapshot[V]) Tuples() *engine.Dataset[engine.Pair[stobject.STObject, V]] {
	v := s.v
	name := fmt.Sprintf("%s@g%d", s.d.name, v.gen)
	return engine.NewStream(s.d.ctx, name, len(v.trees), func(p int, yield func(engine.Pair[stobject.STObject, V]) bool) error {
		v.trees[p].search(everything, v.gen, true, func(e Entry[V]) bool {
			return yield(engine.NewPair(e.Key, e.Value))
		})
		return nil
	})
}

// Probe returns the R-link tree probe as a lazy stream shaped like
// Tuples: partition p searches its tree with env under the pinned
// generation and yields the candidates that pass keep. Candidates are
// copied out of a leaf under its read latch and refined and yielded
// after its release, and a consumer that stops early stops the
// search. It is the live counterpart of the persistent index probe
// and charges the same metrics to rec (nil selects the context's root
// recorder): one index probe per partition searched, every candidate
// tested as a candidate refined.
func (s *Snapshot[V]) Probe(
	rec *engine.Recorder,
	env geom.Envelope,
	keep func(kv engine.Pair[stobject.STObject, V]) bool,
) *engine.Dataset[engine.Pair[stobject.STObject, V]] {
	v := s.v
	if rec == nil {
		rec = s.d.ctx.Recorder()
	}
	name := fmt.Sprintf("%s@g%d.probe", s.d.name, v.gen)
	return engine.NewStream(s.d.ctx, name, len(v.trees), func(p int, yield func(engine.Pair[stobject.STObject, V]) bool) error {
		var refined int64
		v.trees[p].search(env, v.gen, false, func(e Entry[V]) bool {
			refined++
			kv := engine.NewPair(e.Key, e.Value)
			return !keep(kv) || yield(kv)
		})
		rec.Add(engine.IndexProbes, 1)
		rec.Add(engine.CandidatesRefined, refined)
		return nil
	}).WithRecorder(rec)
}
