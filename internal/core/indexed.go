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
// A partition under a tree is an index.Laid: the rows laid out in the
// leaf order of the tree over them, built by index.Lay (or
// index.LoadFile) and probed with its Search. Index lays every
// partition out once and the dataset it returns keeps the Laids, the
// rows' only copy. Probe, KNNContext and Persist search such a resident
// tree in place; under live indexing (an order > 0) they lay out a
// transient copy of every other partition they visit, per task, and
// KNNContext scans what is under no tree.

// Index is STARK's persistent indexing mode: it lays every partition
// out once in the leaf order of an R-tree of the given order and keeps
// the trees for every later query. The dataset it returns is
// partitioned as the receiver but not ordered by x, and does not refer
// to the receiver's rows. When the receiver is columnar, so is the
// result, its columns in leaf order.
func (s *SpatialDataset[V]) Index(order int) (*SpatialDataset[V], error) {
	return s.layOut(func(_ int, in []Tuple[V]) (*index.Laid[V], error) {
		l, _ := index.Lay(order, in, nil, true)
		return l, nil
	})
}

// LoadIndex re-attaches trees persisted with Persist to a dataset with
// the same partition layout: it re-packs each file's envelopes, once
// they are found to be those of the partition's rows, and lays the rows
// out by the result. It returns what Index returns.
func LoadIndex[V any](s *SpatialDataset[V], dir string) (*SpatialDataset[V], error) {
	return s.layOut(func(p int, in []Tuple[V]) (*index.Laid[V], error) {
		l, err := index.LoadFile(indexFile(dir, p), in)
		if err != nil {
			return nil, fmt.Errorf("core: loading index partition %d: %w", p, err)
		}
		return l, nil
	})
}

// layOut runs build over every partition of the receiver in one job,
// adds the columns of a columnar receiver, and returns the laid-out
// partitions as a dataset.
func (s *SpatialDataset[V]) layOut(build func(p int, in []Tuple[V]) (*index.Laid[V], error)) (*SpatialDataset[V], error) {
	ctx, n := s.ds.Context(), s.ds.NumPartitions()
	columnar := s.HasColumnar()
	laid := make([]*index.Laid[V], n)
	err := ctx.RunJobRecorder(nil, s.rec, engine.AllPartitions(n), func(p int) error {
		in, err := s.ds.ComputePartition(p)
		if err == nil {
			laid[p], err = build(p, in)
		}
		if err == nil && columnar {
			laid[p].Cols = columns(ctx.Recorder(), laid[p].Rows)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return newLaid(ctx, laid, s.sp, s.rec), nil
}

// newLaid returns the dataset of the laid-out partitions, sourced from
// their rows.
func newLaid[V any](ctx *engine.Context, laid []*index.Laid[V], sp partition.SpatialPartitioner, rec *engine.Recorder) *SpatialDataset[V] {
	rows := make([][]Tuple[V], len(laid))
	for p, l := range laid {
		rows[p] = l.Rows
	}
	out := newSpatial(engine.FromPartitions(ctx, rows), sp, rec)
	out.aux.laid = laid
	return out
}

// Order returns the order of the partitions' resident trees, 0 when
// they have none.
func (s *SpatialDataset[V]) Order() int {
	if laid := s.resident(); len(laid) > 0 && laid[0].Tree != nil {
		return laid[0].Tree.Order()
	}
	return 0
}

// tree returns partition p under a tree: its resident Laid (laid is
// the dataset's, see resident) when that has one, otherwise, when
// order > 0, a transient copy laid out under a tree of that order,
// which keeps its layout when saveable (see index.Lay). It returns nil
// when there is neither.
func (s *SpatialDataset[V]) tree(laid []*index.Laid[V], p, order int, saveable bool) (*index.Laid[V], error) {
	if laid != nil && laid[p].Tree != nil {
		return laid[p], nil
	}
	if order <= 0 {
		return nil, nil
	}
	rows, err := s.rowsOf(laid, p)
	if err != nil {
		return nil, err
	}
	l, _ := index.Lay(order, rows, nil, saveable)
	return l, nil
}

// rowsOf returns partition p's rows: the resident ones when laid (see
// resident) is set, computed otherwise.
func (s *SpatialDataset[V]) rowsOf(laid []*index.Laid[V], p int) ([]Tuple[V], error) {
	if laid != nil {
		return laid[p].Rows, nil
	}
	return s.ds.ComputePartition(p)
}

// Probe returns the index probe as a lazy stream over the dataset's
// own partitions: partition p, under its resident tree or else under a
// transient one of the given order, walks its rows with
// index.Laid.Search, in leaf order, yielding those whose envelope meets
// env and that pass keep — the exact spatio-temporal predicate, whose
// temporal component is thereby evaluated during candidate pruning
// exactly as the paper describes, plus whatever else the caller refines
// with; without a resident tree, order must be positive. Nothing runs
// until an action drives the stream over a visit list, and a consumer
// that stops early stops the refinement. Each partition probed charges
// one IndexProbes and every row that passes the envelope test one
// CandidatesRefined.
func (s *SpatialDataset[V]) Probe(order int, env geom.Envelope, keep func(kv Tuple[V]) bool) *engine.Dataset[Tuple[V]] {
	rec, laid := s.recorder(), s.resident()
	out := engine.NewStream(s.ds.Context(), s.ds.Name()+".probe", s.ds.NumPartitions(),
		func(p int, yield func(Tuple[V]) bool) error {
			l, err := s.tree(laid, p, order, false)
			if err == nil && l == nil {
				err = fmt.Errorf("core: probing partition %d: no tree, and no order to lay one out with", p)
			}
			if err != nil {
				return err
			}
			rec.Add(engine.IndexProbes, 1)
			var refined int64
			l.Search(env, 0, func(pos int) bool {
				refined++
				kv := &l.Rows[pos]
				return !keep(*kv) || yield(*kv)
			})
			rec.Add(engine.CandidatesRefined, refined)
			return nil
		})
	return out.WithRecorder(s.rec)
}

// indexFile names partition i's tree inside a persisted index directory.
func indexFile(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("part-%d.idx", i))
}

// Persist writes every partition's tree into dir ("<dir>/part-<i>.idx",
// created if absent), atomically replacing previous files — Spark's
// saveAsObjectFile analogue for STARK's persistent indexing. A resident
// tree is written as it is; without one, the partition is laid out
// under a tree of the given order first, which fails when order is 0.
// Only the rows' envelopes are persisted, in the order the rows had
// before they were laid out; re-attaching requires the same data
// partitioned the same way, see LoadIndex.
func (s *SpatialDataset[V]) Persist(dir string, order int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: persisting index: %w", err)
	}
	laid := s.resident()
	return s.ds.Context().RunJobRecorder(nil, s.rec, engine.AllPartitions(s.ds.NumPartitions()), func(p int) error {
		l, err := s.tree(laid, p, order, true)
		if err == nil && l == nil {
			err = fmt.Errorf("core: persisting index: partition %d has no tree", p)
		}
		if err != nil {
			return err
		}
		return l.SaveFile(indexFile(dir, p))
	})
}
