package core

import (
	"fmt"
	"os"
	"path/filepath"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/index"
	"stark/internal/partition"
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
// Either way a partition is an index.Laid with no postings: the rows
// laid out in the leaf order of the tree over them, built by index.Lay
// (or index.LoadFile) and probed with its Search. A live index lays out
// a copy per job; a persistent one lays the rows out once and becomes
// their only copy.

// IndexedDataset is a SpatialDataset whose partitions are laid out
// under R-trees, one index.Laid per partition.
type IndexedDataset[V any] struct {
	parts *engine.Dataset[*index.Laid[V]]
	sp    partition.SpatialPartitioner
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

// LiveIndex returns an indexed view of the dataset with the given
// R-tree order. When p is non-nil the dataset is repartitioned by p
// first, mirroring liveIndex(order, partitioner). Each job lays every
// partition it visits out in a transient copy, in the leaf order of a
// tree it builds over it — the live mode trades index build time per
// query for zero memory retention.
func (s *SpatialDataset[V]) LiveIndex(order int, p partition.SpatialPartitioner) (*IndexedDataset[V], error) {
	base := s
	if p != nil {
		repartitioned, err := s.PartitionBy(p)
		if err != nil {
			return nil, err
		}
		base = repartitioned
	}
	parts := engine.MapPartitions(base.ds, func(_ int, in []Tuple[V]) ([]*index.Laid[V], error) {
		l, _ := index.Lay(order, in, nil)
		return []*index.Laid[V]{l}, nil
	})
	return &IndexedDataset[V]{parts: parts, sp: base.sp, order: order, rec: base.rec}, nil
}

// Index is STARK's persistent indexing mode: it lays every partition
// out once in the leaf order of an R-tree of the given order and keeps
// the trees for every later query. It returns the laid-out rows,
// partitioned as the receiver but not ordered by x, and the indexed
// view over them. Neither refers to the receiver's rows.
func (s *SpatialDataset[V]) Index(order int) (*SpatialDataset[V], *IndexedDataset[V], error) {
	return s.layOut(order, func(_ int, in []Tuple[V]) (*index.Laid[V], error) {
		l, _ := index.Lay(order, in, nil)
		return l, nil
	})
}

// layOut runs build over every partition of the receiver in one job and
// wraps the laid-out partitions it returns as a rows dataset, marked
// laid so that its columns follow leaf order, and the indexed view over
// it, both sourced from the new slices. The view reports the order of
// the first partition's tree (order when there are no partitions).
func (s *SpatialDataset[V]) layOut(order int, build func(p int, in []Tuple[V]) (*index.Laid[V], error)) (*SpatialDataset[V], *IndexedDataset[V], error) {
	ctx, n := s.ds.Context(), s.ds.NumPartitions()
	ls := make([]*index.Laid[V], n)
	err := ctx.RunJobRecorder(nil, s.rec, engine.AllPartitions(n), func(p int) error {
		in, err := s.ds.ComputePartition(p)
		if err == nil {
			ls[p], err = build(p, in)
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if n > 0 {
		order = ls[0].Tree.Order()
	}
	rows := make([][]Tuple[V], n)
	parts := make([][]*index.Laid[V], n)
	for p := range ls {
		rows[p], parts[p] = ls[p].Rows, ls[p:p+1]
	}
	laid := newSpatial(engine.FromPartitions(ctx, rows), s.sp, s.rec)
	laid.laid = true
	return laid, &IndexedDataset[V]{parts: engine.FromPartitions(ctx, parts), sp: s.sp, order: order, rec: s.rec}, nil
}

// Order returns the R-tree order used for the partition indexes.
func (s *IndexedDataset[V]) Order() int { return s.order }

// NumPartitions returns the partition count.
func (s *IndexedDataset[V]) NumPartitions() int { return s.parts.NumPartitions() }

// Probe returns the index probe as a lazy stream over the dataset's
// own partitions: partition p walks its rows with index.Laid.Search,
// in place and in leaf order, yielding those whose envelope meets env
// and that pass keep — the exact
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
			return parts.EachPartition(p, func(l *index.Laid[V]) bool {
				rec.Add(engine.IndexProbes, 1)
				var refined int64
				more := l.Search(env, 0, func(pos int) bool {
					refined++
					kv := &l.Rows[pos]
					return !keep(*kv) || yield(*kv)
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
	for i, l := range parts {
		if err := l.SaveFile(indexFile(dir, i)); err != nil {
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
	return s.layOut(index.DefaultOrder, func(p int, in []Tuple[V]) (*index.Laid[V], error) {
		l, err := index.LoadFile(indexFile(dir, p), in)
		if err != nil {
			return nil, fmt.Errorf("core: loading index partition %d: %w", p, err)
		}
		return l, nil
	})
}
