package stark

// This file is the public surface of mutable live datasets
// (internal/live): MutableDataset accepts Insert/Upsert/Delete
// batches while queries run, and Snapshot() pins one published
// generation as an ordinary, fully plannable Dataset. The snapshot
// view is memoised per generation, so:
//
//   - while the data does not change, repeated snapshots share one
//     engine dataset and every query fingerprints identically —
//     result caches keep hitting;
//   - the moment a batch publishes a new generation, the next
//     Snapshot materialises a fresh view with a fresh lineage ID and
//     a LiveScan plan leaf carrying the new generation, so every
//     fingerprint minted against older data can never match again.
//     Cache invalidation is structural, not timed.

import (
	"sync"

	"stark/internal/attr"
	"stark/internal/core"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/live"
	"stark/internal/plan"
)

type (
	// LiveRecord is one mutable-dataset record: a caller-chosen ID,
	// the spatio-temporal key, and the payload.
	LiveRecord[V any] = live.Record[V]
	// LiveOp is one mutation in a batch (build with LiveInsert,
	// LiveUpsert, LiveDelete).
	LiveOp[V any] = live.Op[V]
	// BatchResult reports what one mutation batch did and the
	// generation it published.
	BatchResult = live.BatchResult
)

// LiveInsert builds an insert op; the ID must not be live.
func LiveInsert[V any](id int64, key STObject, v V) LiveOp[V] { return live.Insert(id, key, v) }

// LiveUpsert builds an upsert op: replace the record with the same
// ID, or insert it.
func LiveUpsert[V any](id int64, key STObject, v V) LiveOp[V] { return live.Upsert(id, key, v) }

// LiveDelete builds a delete-by-ID op; a missing ID is counted in the
// batch result, not an error.
func LiveDelete[V any](id int64) LiveOp[V] { return live.Delete[V](id) }

// MutableDataset is a spatio-temporal dataset that accepts mutation
// batches while queries run. Each batch publishes a new generation
// atomically; Snapshot pins the latest generation as an ordinary
// Dataset whose reads are repeatable no matter how many batches land
// afterwards.
type MutableDataset[V any] struct {
	ctx *Context
	d   *live.Dataset[V]

	// view memoises the DSL snapshot per generation, keeping engine
	// lineage IDs — and with them plan fingerprints — stable while
	// the data does not change.
	mu      sync.Mutex
	viewGen uint64
	view    *Dataset[V]
}

// NewMutableDataset returns an empty mutable dataset. sp fixes the
// spatial layout up front (nil = a single partition) — a mutable
// dataset cannot derive its layout from data it does not have yet.
// order is the node capacity of the partitions' packed trees
// (<= 0 selects the default).
func NewMutableDataset[V any](ctx *Context, name string, sp SpatialPartitioner, order int) *MutableDataset[V] {
	return &MutableDataset[V]{ctx: ctx, d: live.NewDataset[V](ctx, name, sp, order)}
}

// Generation returns the latest published generation; 0 means no
// batch has been applied yet.
func (m *MutableDataset[V]) Generation() uint64 { return m.d.Generation() }

// Count returns the live record count at the latest generation,
// maintained incrementally (no scan).
func (m *MutableDataset[V]) Count() int64 { return m.d.Count() }

// Apply validates and applies one mutation batch atomically: a
// rejected batch (duplicate IDs, insert of a live ID, empty
// geometry) changes nothing, and an accepted batch becomes visible
// all at once when its generation publishes.
func (m *MutableDataset[V]) Apply(ops []LiveOp[V]) (BatchResult, error) { return m.d.Apply(ops) }

// Insert applies one batch of inserts.
func (m *MutableDataset[V]) Insert(records ...LiveRecord[V]) (BatchResult, error) {
	ops := make([]LiveOp[V], len(records))
	for i, r := range records {
		ops[i] = live.Op[V]{Kind: live.OpInsert, Rec: r}
	}
	return m.d.Apply(ops)
}

// Delete applies one batch of deletes by ID.
func (m *MutableDataset[V]) Delete(ids ...int64) (BatchResult, error) {
	ops := make([]LiveOp[V], len(ids))
	for i, id := range ids {
		ops[i] = live.Delete[V](id)
	}
	return m.d.Apply(ops)
}

// Stats returns the incrementally maintained planner statistics of
// the latest generation. Counts are exact; MBRs and temporal extents
// are grow-only over-approximations.
func (m *MutableDataset[V]) Stats() *DatasetStats { return m.d.Snapshot().Stats() }

// SetAttrFields registers the attribute schema whose field postings
// the dataset maintains incrementally across mutation batches,
// backfilling from the records already live. Attribute filters on
// snapshots taken afterwards answer index-eligible predicates
// straight from the generation-tagged postings instead of scanning.
// The memoised snapshot view is invalidated, so the next Snapshot
// (and its fingerprints) reflects the new access paths.
func (m *MutableDataset[V]) SetAttrFields(schema *AttrSchema[V]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.d.SetAttrFields(schema.Fields())
	m.view = nil
}

// OnCommit installs a hook that runs inside Apply's critical section
// after a batch validates and before any record mutates; an error
// from the hook aborts the batch with nothing applied. This is the
// write-ahead point: with a WAL append + fsync as the hook, every
// acknowledged batch is durable before it is visible. Install before
// the dataset takes writes; the hook must not call back into the
// dataset.
func (m *MutableDataset[V]) OnCommit(fn func(gen uint64, ops []LiveOp[V]) error) { m.d.OnCommit(fn) }

// ReplayBatch re-applies one durably logged batch during recovery
// without invoking the commit hook. Batches at or below the current
// generation are skipped (already captured by the checkpoint the
// dataset was restored from); a generation gap is an error.
func (m *MutableDataset[V]) ReplayBatch(gen uint64, ops []LiveOp[V]) (bool, error) {
	return m.d.ReplayBatch(gen, ops)
}

// Restore loads any record set into an empty dataset — packed, not
// replayed as inserts — and publishes it at gen: a checkpoint's, so that
// ReplayBatch calls line up with the log suffix, or 1 for seed records.
func (m *MutableDataset[V]) Restore(gen uint64, recs []LiveRecord[V]) error {
	return m.d.Restore(gen, recs)
}

// EachRecord streams every record live at the latest published
// generation (ID, key, value), stopping early when fn returns false,
// and returns the generation the enumeration was pinned to. The pin
// is a writer barrier (live.Dataset.SnapshotBarrier): any batch whose
// commit hook already ran — i.e. any batch the WAL holds — is
// guaranteed visible. Checkpointing uses it to serialise the dataset
// consistently while writes continue, without ever missing a batch
// that was logged before the checkpoint rotated the WAL.
func (m *MutableDataset[V]) EachRecord(fn func(LiveRecord[V]) bool) uint64 {
	snap := m.d.SnapshotBarrier()
	snap.Each(fn)
	return snap.Gen()
}

// Snapshot pins the latest published generation as an ordinary
// Dataset: actions stream a consistent view (later batches are
// invisible, including repacks), filters compile through the
// cost-based planner with the incrementally maintained statistics,
// and index-eligible predicates probe the partitions' packed trees and
// deltas directly. Snapshots of the same
// generation share one view, so their plan fingerprints are stable;
// a new generation yields a fresh view and fresh fingerprints.
func (m *MutableDataset[V]) Snapshot() *Dataset[V] {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := m.d.Snapshot()
	if m.view != nil && m.viewGen == snap.Gen() {
		return m.view
	}
	m.view = newLiveView(m.ctx, m.d.Name(), m.d.Order(), snap)
	m.viewGen = snap.Gen()
	return m.view
}

// newLiveView builds the DSL dataset over one pinned live snapshot.
func newLiveView[V any](ctx *Context, name string, order int, snap *live.Snapshot[V]) *Dataset[V] {
	return newDataset(ctx, func() (state[V], error) {
		sds := core.Wrap(snap.Tuples())
		// The planner never rescans a live snapshot: the incrementally
		// maintained summary is seeded into the stats cache up front.
		sds.SeedStats(snap.Stats())
		base := plan.LiveScanNode(name, snap.Gen(), snap.NumPartitions(), order, snap.Count())
		source := func(rec *engine.Recorder) probeSource[V] {
			return probeSource[V]{
				trees: func(env geom.Envelope, keep func(Tuple[V]) bool) *engine.Dataset[Tuple[V]] {
					return snap.Probe(rec, env, keep)
				},
				hasPostings: snap.HasAttrField,
				postings: func(first attr.Pred, keep func(Tuple[V]) bool) (*engine.Dataset[Tuple[V]], error) {
					return snap.AttrProbe(rec, first, keep)
				},
			}
		}
		return state[V]{sds: sds, base: base, live: source}, nil
	})
}
