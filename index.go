package stark

// This file unifies the paper's three indexing modes — none, live,
// persistent — behind one IndexMode configuration consumed by
// Dataset.Index, plus the file round trip for persisted indexes.

import (
	"fmt"

	"stark/internal/core"
	"stark/internal/index"
	"stark/internal/plan"
)

const (
	modeNone = iota
	modeLive
	modePersistent
)

// IndexMode selects how filter and kNN operators execute: by scanning
// (NoIndexing), by building per-partition R-trees on every query
// (Live), or by materialising the trees once and reusing them across
// queries (Persistent). Construct values with those three names.
type IndexMode struct {
	kind  int
	order int
}

// NoIndexing disables indexing: operators scan every record of every
// relevant partition. The zero IndexMode.
var NoIndexing = IndexMode{}

// Live returns the live indexing mode: each query builds a transient
// R-tree of the given order per partition, probes it, and discards it
// — index build time traded per query for zero memory retention.
// order <= 0 selects the default R-tree order.
func Live(order int) IndexMode { return IndexMode{kind: modeLive, order: normOrder(order)} }

// Persistent returns the persistent indexing mode: per-partition
// R-trees of the given order are built once, kept in memory, and
// reused by every subsequent query; SaveIndex can write them to a
// directory for reuse by later programs. order <= 0 selects the default order.
func Persistent(order int) IndexMode { return IndexMode{kind: modePersistent, order: normOrder(order)} }

func normOrder(order int) int {
	if order <= 0 {
		return index.DefaultOrder
	}
	return order
}

// String names the mode for diagnostics.
func (m IndexMode) String() string {
	switch m.kind {
	case modeLive:
		return fmt.Sprintf("live(%d)", m.order)
	case modePersistent:
		return fmt.Sprintf("persistent(%d)", m.order)
	default:
		return "none"
	}
}

func (m IndexMode) validate() error {
	if m.kind != modeNone && m.order < 2 {
		return fmt.Errorf("index order must be >= 2, got %d", m.order)
	}
	return nil
}

// SaveIndex writes the materialised partition trees into dir
// ("<dir>/part-<i>.idx", each file checksummed and atomically
// replaced) — the persistent half of the paper's Figure-2 workflow.
// The dataset must have an index configured (Live or Persistent); the
// data itself is not written, only the trees, so re-attaching via
// LoadIndex requires the same data partitioned the same way.
func (d *Dataset[V]) SaveIndex(dir string) error {
	st, err := d.forceFlushed()
	if err != nil {
		return err
	}
	if st.idx == nil {
		return fmt.Errorf("stark: saveIndex: no index configured; call Index(Live(n)) or Index(Persistent(n)) first")
	}
	if err := st.idx.Persist(dir); err != nil {
		return fmt.Errorf("stark: saveIndex: %w", err)
	}
	return nil
}

// LoadIndex re-attaches trees written by SaveIndex to a dataset with
// the same partition layout, skipping the index build. The returned
// dataset behaves as if Index(Persistent(order)) had run, with the
// persisted order. Like every transformation the load is deferred:
// errors (a missing or corrupt file, partition mismatch) surface at
// the action.
func LoadIndex[V any](d *Dataset[V], dir string) *Dataset[V] {
	return d.chain("loadIndex", func(st state[V]) (state[V], error) {
		st, err := st.flush()
		if err != nil {
			return state[V]{}, err
		}
		idx, err := core.LoadIndex(st.sds, dir)
		if err != nil {
			return state[V]{}, err
		}
		st.idx = idx
		st.mode = Persistent(idx.Order())
		st.base = plan.NewNode("Index", st.mode.String()+" loaded").Add(st.base)
		return st, nil
	})
}
