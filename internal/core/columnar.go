package core

import (
	"stark/internal/colstore"
	"stark/internal/engine"
	"stark/internal/stobject"
)

// This file wires the colstore sidecar into the scan path. BuildColumnar
// extracts per-partition SoA envelope/interval columns (optionally
// Hilbert-sorting each partition's rows) alongside a reordered record
// slice; ColumnarFilter then streams a conjunctive predicate chain as a
// coarse batched kernel sweep per partition followed by exact
// refinement of the survivors only. The sidecar is bound to the
// SpatialDataset instance, so any transformation (which returns a new
// instance) drops it by construction and can never serve stale columns.

// columnarSidecar holds the per-partition columns plus the row slices
// they index, in kernel row order.
type columnarSidecar[V any] struct {
	parts   []*colstore.Partition
	rows    [][]Tuple[V]
	hilbert bool
}

// BuildColumnar materialises the columnar sidecar: one streaming pass
// over every partition extracting envelope and interval columns, with
// hilbert selecting the per-partition Hilbert row sort. Building is
// memoised per dataset instance (a second call with the same hilbert
// flag is a no-op; changing the flag rebuilds). The pass runs one task
// per partition through the engine's pool and charges the rows it
// copies to StatsRecords — it is a statistics-like auxiliary pass, not
// a query.
func (s *SpatialDataset[V]) BuildColumnar(hilbert bool) error {
	s.aux.colMu.Lock()
	if s.aux.col != nil && s.aux.col.hilbert == hilbert {
		s.aux.colMu.Unlock()
		return nil
	}
	s.aux.colMu.Unlock()

	n := s.ds.NumPartitions()
	side := &columnarSidecar[V]{
		parts:   make([]*colstore.Partition, n),
		rows:    make([][]Tuple[V], n),
		hilbert: hilbert,
	}
	metrics := s.Context().Metrics()
	tasks := make([]int, n)
	for i := range tasks {
		tasks[i] = i
	}
	err := s.Context().RunJob(tasks, func(p int) error {
		// The dataset's own slice when it holds one: rows are read-only,
		// and a Hilbert sort copies them into its order anyway.
		rows, err := s.ds.ComputePartition(p)
		if err != nil {
			return err
		}
		b := colstore.NewBuilder(len(rows))
		for i := range rows {
			iv, timed := rows[i].Key.Time()
			b.Add(rows[i].Key.Envelope(), int64(iv.Start), int64(iv.End), timed)
		}
		cols, perm := b.Finish(hilbert)
		if perm != nil {
			sorted := make([]Tuple[V], len(rows))
			for newRow, oldRow := range perm {
				sorted[newRow] = rows[oldRow]
			}
			rows = sorted
		}
		side.parts[p] = cols
		side.rows[p] = rows
		metrics.StatsRecords.Add(int64(len(rows)))
		return nil
	})
	if err != nil {
		return err
	}
	s.aux.colMu.Lock()
	s.aux.col = side
	s.aux.colMu.Unlock()
	return nil
}

// HasColumnar reports whether the sidecar is built.
func (s *SpatialDataset[V]) HasColumnar() bool {
	s.aux.colMu.Lock()
	defer s.aux.colMu.Unlock()
	return s.aux.col != nil
}

// ColumnarHilbert reports whether the sidecar rows are Hilbert-sorted.
func (s *SpatialDataset[V]) ColumnarHilbert() bool {
	s.aux.colMu.Lock()
	defer s.aux.colMu.Unlock()
	return s.aux.col != nil && s.aux.col.hilbert
}

// KernelPred is one predicate of a conjunctive chain in the form the
// columnar scan needs: the compiled coarse kernel query plus the exact
// predicate and query object for refining survivors.
type KernelPred struct {
	Q     stobject.STObject
	Pred  stobject.Predicate
	Query colstore.Query
}

// KernelQueryFor compiles the coarse kernel form of a built-in
// predicate kind against query object q. The coarse spatial relation
// is the envelope necessary condition of the exact predicate; the
// temporal mode mirrors the combined-predicate semantics exactly
// (see stobject: Intersects/WithinDistance pair with interval overlap,
// Contains with record-contains-query, ContainedBy/CoveredBy with
// query-contains-record).
func KernelQueryFor(op colstore.Op, mode colstore.TimeMode, q stobject.STObject, dist float64) colstore.Query {
	env := q.Envelope()
	kq := colstore.Query{
		Op:   op,
		MinX: env.MinX, MinY: env.MinY, MaxX: env.MaxX, MaxY: env.MaxY,
		Dist: dist,
		Time: mode,
	}
	if iv, ok := q.Time(); ok {
		kq.HasTime = true
		kq.TBegin = int64(iv.Start)
		kq.TEnd = int64(iv.End)
	}
	return kq
}

// KernelPrune builds the generic coarse query for an opaque predicate:
// an envelope-intersects sweep against a precomputed pruning envelope
// (the same contract the R-tree path uses) with temporal mode as the
// caller can guarantee. Callers that cannot reason about the
// predicate's time semantics must pass colstore.TimeNone.
func KernelPrune(pruneMinX, pruneMinY, pruneMaxX, pruneMaxY float64, mode colstore.TimeMode, q stobject.STObject) colstore.Query {
	kq := colstore.Query{
		Op:   colstore.OpPrune,
		MinX: pruneMinX, MinY: pruneMinY, MaxX: pruneMaxX, MaxY: pruneMaxY,
		Time: mode,
	}
	if iv, ok := q.Time(); ok {
		kq.HasTime = true
		kq.TBegin = int64(iv.Start)
		kq.TEnd = int64(iv.End)
	}
	return kq
}

// ColumnarFilter builds the fused columnar scanning stage for a
// conjunctive predicate chain: per partition, every kernel query is
// swept over the columns into one survivor bitset, then only the
// surviving rows are refined with the exact predicates (in the given
// order) and yielded. Metrics: every row is charged to
// ElementsScanned (the kernels DID consider it — this keeps the
// counter comparable with the row scan), swept chunks to
// KernelBatches, and post-kernel rows to KernelSurvivors; survivors
// are additionally charged to CandidatesRefined, mirroring the index
// path's coarse/exact split. Returns nil when no sidecar is built.
func (s *SpatialDataset[V]) ColumnarFilter(preds []KernelPred) *engine.Dataset[Tuple[V]] {
	s.aux.colMu.Lock()
	side := s.aux.col
	s.aux.colMu.Unlock()
	if side == nil || len(preds) == 0 {
		return nil
	}
	rec := s.recorder()
	out := engine.NewStream(s.Context(), s.ds.Name()+".colScan", len(side.parts),
		func(p int, yield func(Tuple[V]) bool) error {
			cols := side.parts[p]
			rows := side.rows[p]
			n := cols.Len()
			if n == 0 {
				return nil
			}
			bs := colstore.GetBitset(n)
			var batches int64
			for _, kp := range preds {
				batches += int64(colstore.Filter(cols, kp.Query, bs))
			}
			survivors := int64(bs.Count())
			bs.Visit(func(row int) bool {
				kv := rows[row]
				for i := range preds {
					if !preds[i].Pred(kv.Key, preds[i].Q) {
						return true
					}
				}
				return yield(kv)
			})
			colstore.PutBitset(bs)
			rec.ElementsScanned(int64(n))
			rec.KernelBatches(batches)
			rec.KernelSurvivors(survivors)
			rec.CandidatesRefined(survivors)
			return nil
		})
	return out.WithRecorder(s.rec)
}
