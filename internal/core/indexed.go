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
//     trees are built at most once, and can be saved to a directory of
//     files and re-attached in later runs.
//
// Either way a tree's leaves are ranges of rows laid out in leaf order
// (index.Pack): a live index lays out a copy per job, a persistent one
// lays the rows out once and becomes their only copy.

// indexedPartition is one partition of an IndexedDataset: the records
// laid out in the leaf order of an R-tree over their envelopes, so a
// leaf's position range is a run of Items. A join's build slot loads
// into one too, with a nil Tree when the join does not index or the
// slot has no records.
type indexedPartition[V any] struct {
	Items []Tuple[V]
	Tree  *index.RTree
}

// IndexedDataset is a SpatialDataset whose partitions carry R-trees.
type IndexedDataset[V any] struct {
	parts *engine.Dataset[indexedPartition[V]]
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
	Extent(i int) geom.Envelope
}

// LiveIndex returns an indexed view of the dataset with the given
// R-tree order. When p is non-nil the dataset is repartitioned by p
// first, mirroring liveIndex(order, partitioner). Each job lays every
// partition it visits out in a transient copy, in the leaf order of a
// tree it builds over it — the live mode trades index build time per
// query for zero memory retention.
func (s *SpatialDataset[V]) LiveIndex(order int, p sp) (*IndexedDataset[V], error) {
	base := s
	if p != nil {
		repartitioned, err := s.PartitionBy(p)
		if err != nil {
			return nil, err
		}
		base = repartitioned
	}
	parts := engine.MapPartitions(base.ds, func(_ int, in []Tuple[V]) ([]indexedPartition[V], error) {
		return []indexedPartition[V]{buildIndexedPartition(in, order)}, nil
	})
	return &IndexedDataset[V]{parts: parts, sp: base.sp, order: order, rec: base.rec}, nil
}

// Index is STARK's persistent indexing mode: it lays every partition
// out once in the leaf order of an R-tree of the given order and keeps
// the trees for every later query. It returns the laid-out rows,
// partitioned as the receiver but not ordered by x, and the indexed
// view over them. Neither refers to the receiver's rows.
func (s *SpatialDataset[V]) Index(order int) (*SpatialDataset[V], *IndexedDataset[V], error) {
	return s.layOut(order, func(_ int, in []Tuple[V]) (indexedPartition[V], error) {
		return buildIndexedPartition(in, order), nil
	})
}

// layOut runs build over every partition of the receiver in one job and
// wraps the laid-out partitions it returns as a rows dataset and the
// indexed view over it, both sourced from the new slices. The view
// reports the order of the first partition's tree (order when there are
// no partitions).
func (s *SpatialDataset[V]) layOut(order int, build func(p int, in []Tuple[V]) (indexedPartition[V], error)) (*SpatialDataset[V], *IndexedDataset[V], error) {
	ctx, n := s.ds.Context(), s.ds.NumPartitions()
	ips := make([]indexedPartition[V], n)
	err := ctx.RunJobRecorder(nil, s.rec, engine.AllPartitions(n), func(p int) error {
		in, err := s.ds.ComputePartition(p)
		if err == nil {
			ips[p], err = build(p, in)
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if n > 0 {
		order = ips[0].Tree.Order()
	}
	rows := make([][]Tuple[V], n)
	parts := make([][]indexedPartition[V], n)
	for p := range ips {
		rows[p], parts[p] = ips[p].Items, ips[p:p+1]
	}
	laid := newSpatial(engine.FromPartitions(ctx, rows), s.sp, s.rec)
	return laid, &IndexedDataset[V]{parts: engine.FromPartitions(ctx, parts), sp: s.sp, order: order, rec: s.rec}, nil
}

// buildIndexedPartition packs a tree over in and lays a copy of the rows
// out in its leaf order.
func buildIndexedPartition[V any](in []Tuple[V], order int) indexedPartition[V] {
	tree, perm := index.Pack(order, len(in), func(i int) geom.Envelope { return in[i].Key.Envelope() })
	return indexedPartition[V]{Items: permute(in, perm), Tree: tree}
}

// permute returns the rows in perm's order: row pos is in[perm[pos]].
func permute[V any](in []Tuple[V], perm []int32) []Tuple[V] {
	out := make([]Tuple[V], len(perm))
	for pos, i := range perm {
		out[pos] = in[i]
	}
	return out
}

// Order returns the R-tree order used for the partition indexes.
func (s *IndexedDataset[V]) Order() int { return s.order }

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
		s.recorder().Add(engine.TasksSkipped, int64(pruned))
	}
	return visit
}

// Probe returns the index probe as a lazy stream over the dataset's
// own partitions: partition p searches its tree with env and reads the
// rows of the leaves that meet it in place, in leaf order, yielding
// those whose envelope meets env and that pass keep — the exact
// spatio-temporal predicate, whose temporal component is thereby
// evaluated during candidate pruning exactly as the paper describes,
// plus whatever else the caller refines with. Nothing runs until an
// action drives the stream over a visit list, and a consumer that stops
// early stops the refinement. Each partition probed charges one
// IndexProbes and every row that passes the envelope test one
// CandidatesRefined.
func (s *IndexedDataset[V]) Probe(env geom.Envelope, keep func(kv Tuple[V]) bool) *engine.Dataset[Tuple[V]] {
	rec, parts := s.recorder(), s.parts
	out := engine.NewStream(s.parts.Context(), parts.Name()+".probe", parts.NumPartitions(),
		func(p int, yield func(Tuple[V]) bool) error {
			return parts.EachPartition(p, func(ip indexedPartition[V]) bool {
				rec.Add(engine.IndexProbes, 1)
				var refined int64
				more := true
				ip.Tree.Search(env, func(lo, hi int) bool {
					for i := lo; i < hi; i++ {
						kv := &ip.Items[i]
						if !kv.Key.EnvelopeIntersects(env) {
							continue
						}
						refined++
						if keep(*kv) && !yield(*kv) {
							more = false
							return false
						}
					}
					return true
				})
				rec.Add(engine.CandidatesRefined, refined)
				return more
			})
		})
	return out.WithRecorder(s.rec)
}

// indexFile names partition i's tree inside a persisted index directory.
func indexFile(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("part-%d.idx", i))
}

// Persist writes every partition tree into dir ("<dir>/part-<i>.idx",
// created if absent), atomically replacing previous files — Spark's
// saveAsObjectFile analogue for STARK's persistent indexing. Only the
// rows' envelopes are persisted, in the order the rows had before they
// were laid out; re-attaching requires the same data partitioned the
// same way, see LoadIndex.
func (s *IndexedDataset[V]) Persist(dir string) error {
	parts, err := s.parts.Collect()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: persisting index: %w", err)
	}
	for i, ip := range parts {
		if err := ip.Tree.SaveFile(indexFile(dir, i), func(pos int) geom.Envelope { return ip.Items[pos].Key.Envelope() }); err != nil {
			return err
		}
	}
	return nil
}

// LoadIndex re-attaches trees persisted with Persist to a dataset with
// the same partition layout: it re-packs each file's envelopes, once
// they are found to be those of the partition's rows, and lays the rows
// out by the result. It returns what Index returns.
func LoadIndex[V any](s *SpatialDataset[V], dir string) (*SpatialDataset[V], *IndexedDataset[V], error) {
	return s.layOut(index.DefaultOrder, func(p int, in []Tuple[V]) (indexedPartition[V], error) {
		tree, perm, err := index.LoadFile(indexFile(dir, p), len(in), func(i int) geom.Envelope { return in[i].Key.Envelope() })
		if err != nil {
			return indexedPartition[V]{}, fmt.Errorf("core: loading index partition %d: %w", p, err)
		}
		return indexedPartition[V]{Items: permute(in, perm), Tree: tree}, nil
	})
}
