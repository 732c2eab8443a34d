package core

import (
	"stark/internal/attr"
	"stark/internal/colstore"
	"stark/internal/engine"
	"stark/internal/stobject"
)

// This file wires the colstore sidecar into the scan path. BuildColumnar
// extracts per-partition SoA envelope/interval columns, Hilbert-sorts
// each partition's columns, and keeps the permutation
// that leads from a column row back to the dataset's own row;
// ColumnarFilter then streams a conjunctive predicate chain as a
// coarse batched kernel sweep per partition followed by exact
// refinement of the survivors only. The sidecar is bound to the
// SpatialDataset instance, so any transformation (which returns a new
// instance) drops it by construction and can never serve stale columns.

// kernelRows addresses one partition's rows in kernel row order without
// holding a copy of them: rows is the dataset's own partition slice
// (read-only), and perm maps a Hilbert-sorted kernel row to its position
// in that slice. A nil perm (postings built without a columnar sidecar)
// means kernel order is slice order.
type kernelRows[V any] struct {
	rows []Tuple[V]
	perm []int32
}

// at returns kernel row i.
func (k kernelRows[V]) at(i int) *Tuple[V] {
	if k.perm != nil {
		i = int(k.perm[i])
	}
	return &k.rows[i]
}

// columnarSidecar holds the per-partition columns plus the rows they
// index: 48 B of columns and 4 B of permutation per row, no row copy.
type columnarSidecar[V any] struct {
	parts []*colstore.Partition
	rows  []kernelRows[V]
}

// BuildColumnar materialises the columnar sidecar: one streaming pass
// over every partition extracting envelope and interval columns, each
// partition's columns sorted along a Hilbert curve of the envelope
// centres so the survivors of a small window are contiguous. Building
// is memoised per dataset instance: a sidecar, once built, is never
// replaced, so postings built over its row order stay aligned with it.
// The pass runs one task per partition through the engine's pool and
// charges the rows it reads to StatsRecords — it is a statistics-like
// auxiliary pass, not a query.
func (s *SpatialDataset[V]) BuildColumnar() error {
	if s.HasColumnar() {
		return nil
	}

	n := s.ds.NumPartitions()
	side := &columnarSidecar[V]{
		parts: make([]*colstore.Partition, n),
		rows:  make([]kernelRows[V], n),
	}
	rec := s.Context().Recorder()
	err := s.Context().RunJob(engine.AllPartitions(n), func(p int) error {
		// The dataset's own slice when it holds one: rows are read-only,
		// and a Hilbert sort reorders the columns, not the rows.
		rows, err := s.ds.ComputePartition(p)
		if err != nil {
			return err
		}
		b := colstore.NewBuilder(len(rows))
		for i := range rows {
			iv, timed := rows[i].Key.Time()
			b.Add(rows[i].Key.Envelope(), int64(iv.Start), int64(iv.End), timed)
		}
		cols, perm := b.Finish(true)
		side.parts[p] = cols
		side.rows[p] = kernelRows[V]{rows: rows, perm: perm}
		rec.Add(engine.StatsRecords, int64(len(rows)))
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

// columnar returns the sidecar, nil when none is built.
func (s *SpatialDataset[V]) columnar() *columnarSidecar[V] {
	s.aux.colMu.Lock()
	defer s.aux.colMu.Unlock()
	return s.aux.col
}

// HasColumnar reports whether the sidecar is built.
func (s *SpatialDataset[V]) HasColumnar() bool { return s.columnar() != nil }

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
	side := s.columnar()
	if side == nil || len(preds) == 0 {
		return nil
	}
	return s.kernelScan(".colScan", side, preds, nil, nil)
}

// kernelScan is the one columnar stream behind ColumnarFilter and
// ColumnarFilterIntersect: sweep the kernels into a survivor bitset,
// AND in the postings bitset of every attribute predicate (idxs holds
// their fields' postings, built over the sidecar's kernel row order),
// then fetch, refine and yield the survivors in kernel row order.
func (s *SpatialDataset[V]) kernelScan(name string, side *columnarSidecar[V], preds []KernelPred,
	attrPreds []attr.Pred, idxs map[string][]*attr.Index) *engine.Dataset[Tuple[V]] {
	rec := s.recorder()
	out := engine.NewStream(s.Context(), s.ds.Name()+name, len(side.parts),
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
			if len(attrPreds) > 0 {
				ab := colstore.GetBitset(n)
				for _, ap := range attrPreds {
					ab.ClearAll(n)
					idxs[ap.Field][p].Postings(ap, func(row int32) { ab.Set(int(row)) })
					rec.Add(engine.IndexProbes, 1)
					bs.And(ab)
				}
				colstore.PutBitset(ab)
			}
			survivors := int64(bs.Count())
			bs.Visit(func(row int) bool {
				kv := rows.at(row)
				// Attribute postings are exact; only the coarse spatial
				// kernels need exact refinement.
				for i := range preds {
					if !preds[i].Pred(kv.Key, preds[i].Q) {
						return true
					}
				}
				return yield(*kv)
			})
			colstore.PutBitset(bs)
			rec.Add(engine.ElementsScanned, int64(n))
			rec.Add(engine.KernelBatches, batches)
			rec.Add(engine.KernelSurvivors, survivors)
			rec.Add(engine.CandidatesRefined, survivors)
			return nil
		})
	return out.WithRecorder(s.rec)
}
