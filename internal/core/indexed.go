package core

import (
	"fmt"
	"os"
	"path/filepath"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/index"
	"stark/internal/stobject"
)

// This file implements STARK's three indexing modes on top of the
// scan operators in filter.go:
//
//   - no indexing: the plain SpatialDataset operators;
//   - live indexing (liveIndex method in the DSL): when a partition is
//     processed, its content is first put into an R-tree, the tree is
//     queried with the query object, and the candidates are refined
//     with the exact spatio-temporal predicate;
//   - persistent indexing (index method in the DSL): the per-partition
//     trees are materialised so they are built at most once, and can
//     be saved to a directory of files and re-attached in later runs.

// IndexedPartition is one partition of an IndexedDataset: the records
// plus an R-tree over their envelopes (entry ID = slice position). A
// join's build slot loads into one too, with a nil Tree when the join
// does not index or the slot has no records.
type IndexedPartition[V any] struct {
	Items []Tuple[V]
	Tree  *index.RTree
}

// IndexedDataset is a SpatialDataset whose partitions carry R-trees.
type IndexedDataset[V any] struct {
	parts *engine.Dataset[IndexedPartition[V]]
	sp    sp
	order int
	// rec, when non-nil, routes metric attribution (see WithRecorder);
	// nil selects the context's root recorder.
	rec *engine.Recorder
}

// recorder returns the recorder operators on this dataset charge.
func (s *IndexedDataset[V]) recorder() *engine.Recorder {
	if s.rec != nil {
		return s.rec
	}
	return s.parts.Context().Recorder()
}

// WithRecorder returns a view of the indexed dataset whose probes and
// tasks are charged to rec — the same attribution overlay as
// SpatialDataset.WithRecorder. The partition trees are shared, not
// rebuilt. A nil rec returns the receiver unchanged.
func (s *IndexedDataset[V]) WithRecorder(rec *engine.Recorder) *IndexedDataset[V] {
	if rec == nil || s.rec == rec {
		return s
	}
	return &IndexedDataset[V]{parts: s.parts.WithRecorder(rec), sp: s.sp, order: s.order, rec: rec}
}

// sp aliases the partitioner interface locally to keep struct
// definitions short.
type sp = interface {
	NumPartitions() int
	PartitionFor(o stobject.STObject) int
	Bounds(i int) geom.Envelope
	Extent(i int) geom.Envelope
}

// LiveIndex returns an indexed view of the dataset with the given
// R-tree order. When p is non-nil the dataset is repartitioned by p
// first, mirroring liveIndex(order, partitioner). Trees are built
// lazily inside each partition task, on every job — the live mode
// trades index build time per query for zero memory retention.
func (s *SpatialDataset[V]) LiveIndex(order int, p sp) (*IndexedDataset[V], error) {
	base := s
	if p != nil {
		repartitioned, err := s.PartitionBy(p)
		if err != nil {
			return nil, err
		}
		base = repartitioned
	}
	parts := engine.MapPartitions(base.ds, func(_ int, in []Tuple[V]) ([]IndexedPartition[V], error) {
		return []IndexedPartition[V]{buildIndexedPartition(in, order)}, nil
	})
	return &IndexedDataset[V]{parts: parts, sp: base.sp, order: order, rec: base.rec}, nil
}

// Index returns an indexed view whose trees are materialised once and
// reused across queries — STARK's persistent indexing mode. When p is
// non-nil the dataset is repartitioned first.
func (s *SpatialDataset[V]) Index(order int, p sp) (*IndexedDataset[V], error) {
	idx, err := s.LiveIndex(order, p)
	if err != nil {
		return nil, err
	}
	idx.parts.Cache()
	// Force materialisation now so subsequent queries only probe.
	if _, err := idx.parts.Count(); err != nil {
		return nil, err
	}
	return idx, nil
}

func buildIndexedPartition[V any](in []Tuple[V], order int) IndexedPartition[V] {
	tree := index.New(order)
	for i, kv := range in {
		_ = tree.Insert(kv.Key.Envelope(), int32(i))
	}
	tree.Build()
	return IndexedPartition[V]{Items: in, Tree: tree}
}

// Partitioner returns the spatial partitioner, or nil.
func (s *IndexedDataset[V]) Partitioner() sp { return s.sp }

// Order returns the R-tree order used for the partition indexes.
func (s *IndexedDataset[V]) Order() int { return s.order }

// Context returns the engine context.
func (s *IndexedDataset[V]) Context() *engine.Context { return s.parts.Context() }

// NumPartitions returns the partition count.
func (s *IndexedDataset[V]) NumPartitions() int { return s.parts.NumPartitions() }

// relevantPartitions mirrors SpatialDataset.relevantPartitions.
func (s *IndexedDataset[V]) relevantPartitions(q geom.Envelope) []int {
	if s.sp == nil {
		return engine.AllPartitions(s.parts.NumPartitions())
	}
	var visit []int
	for i := 0; i < s.sp.NumPartitions(); i++ {
		if s.sp.Extent(i).Intersects(q) {
			visit = append(visit, i)
		}
	}
	if pruned := s.parts.NumPartitions() - len(visit); pruned > 0 {
		s.recorder().TasksSkipped(int64(pruned))
	}
	return visit
}

// Probe returns the index probe as a lazy stream over the dataset's
// own partitions: partition p queries its tree with env and yields the
// candidates that pass keep — the exact spatio-temporal predicate,
// whose temporal component is thereby evaluated during candidate
// pruning exactly as the paper describes, plus whatever else the
// caller refines with. Nothing runs until an action drives the stream
// over a visit list, and a consumer that stops early stops the
// refinement. Each partition probed charges one IndexProbes and every
// candidate tested one CandidatesRefined.
func (s *IndexedDataset[V]) Probe(env geom.Envelope, keep func(kv Tuple[V]) bool) *engine.Dataset[Tuple[V]] {
	rec, parts := s.recorder(), s.parts
	out := engine.NewStream(s.Context(), parts.Name()+".probe", parts.NumPartitions(),
		func(p int, yield func(Tuple[V]) bool) error {
			return parts.EachPartition(p, func(ip IndexedPartition[V]) bool {
				rec.IndexProbes(1)
				var refined int64
				more := true
				for _, id := range ip.Tree.Query(env, nil) {
					refined++
					if kv := ip.Items[id]; keep(kv) && !yield(kv) {
						more = false
						break
					}
				}
				rec.CandidatesRefined(refined)
				return more
			})
		})
	return out.WithRecorder(s.rec)
}

// Filter probes the index with pruneEnv (or q's envelope when empty)
// over the partitions whose extent it touches, refines the candidates
// with an arbitrary spatio-temporal predicate and collects the
// matches.
func (s *IndexedDataset[V]) Filter(q stobject.STObject, pruneEnv geom.Envelope, pred stobject.Predicate) ([]Tuple[V], error) {
	env := q.Envelope()
	if !pruneEnv.IsEmpty() {
		env = pruneEnv
	}
	keep := func(kv Tuple[V]) bool { return pred(kv.Key, q) }
	return s.Probe(env, keep).CollectPartitions(s.relevantPartitions(env))
}

// Flat returns the records as a lazily flattened engine dataset,
// preserving the partition structure — for actions that stream or
// stop early instead of materialising everything.
func (s *IndexedDataset[V]) Flat() *engine.Dataset[Tuple[V]] {
	return engine.FlatMap(s.parts, func(ip IndexedPartition[V]) []Tuple[V] { return ip.Items })
}

// Collect returns all records of the indexed dataset.
func (s *IndexedDataset[V]) Collect() ([]Tuple[V], error) {
	return s.Flat().Collect()
}

// Count returns the number of records. Partition lengths are summed
// inside the job — neither the records nor the trees travel to the
// driver.
func (s *IndexedDataset[V]) Count() (int64, error) {
	return engine.Aggregate(s.parts, int64(0),
		func(acc int64, ip IndexedPartition[V]) int64 { return acc + int64(len(ip.Items)) },
		func(a, b int64) int64 { return a + b })
}

// indexFile names partition i's tree inside a persisted index directory.
func indexFile(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("part-%d.idx", i))
}

// Persist writes every partition tree into dir ("<dir>/part-<i>.idx",
// created if absent), atomically replacing previous files — Spark's
// saveAsObjectFile analogue for STARK's persistent indexing. Only the
// trees (envelopes + slot IDs) are persisted; re-attaching requires
// the same data partitioned the same way, see LoadIndex.
func (s *IndexedDataset[V]) Persist(dir string) error {
	parts, err := s.parts.Collect()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: persisting index: %w", err)
	}
	for i, ip := range parts {
		if err := ip.Tree.SaveFile(indexFile(dir, i)); err != nil {
			return err
		}
	}
	return nil
}

// LoadIndex re-attaches trees persisted with Persist to a dataset
// with the same partition layout, skipping the R-tree build. It
// validates that entry counts match the partition sizes.
func LoadIndex[V any](s *SpatialDataset[V], dir string) (*IndexedDataset[V], error) {
	n := s.ds.NumPartitions()
	trees := make([]*index.RTree, n)
	loadTasks := make([]int, n)
	for i := range loadTasks {
		loadTasks[i] = i
	}
	err := s.Context().RunJob(loadTasks, func(i int) error {
		t, err := index.LoadFile(indexFile(dir, i))
		if err != nil {
			return fmt.Errorf("core: loading index partition %d: %w", i, err)
		}
		trees[i] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	order := index.DefaultOrder
	if n > 0 {
		order = trees[0].Order()
	}
	parts := engine.MapPartitions(s.ds, func(idx int, in []Tuple[V]) ([]IndexedPartition[V], error) {
		t := trees[idx]
		if t.Len() != len(in) {
			return nil, fmt.Errorf("core: persisted index partition %d holds %d entries, data has %d",
				idx, t.Len(), len(in))
		}
		return []IndexedPartition[V]{{Items: in, Tree: t}}, nil
	})
	parts.Cache()
	if _, err := parts.Count(); err != nil {
		return nil, err
	}
	return &IndexedDataset[V]{parts: parts, sp: s.sp, order: order, rec: s.rec}, nil
}
