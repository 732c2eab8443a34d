package core

import (
	"fmt"

	"stark/internal/attr"
	"stark/internal/colstore"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/stobject"
)

// This file wires the colstore sidecar into the scan path. Columnar
// extracts per-partition SoA envelope/interval columns in the order of
// the rows they describe, laying the rows out along a Hilbert curve
// first when no R-tree laid them out; ColumnarFilter then streams a
// conjunctive predicate chain as a coarse batched kernel sweep per
// partition followed by exact refinement of the survivors only. Column
// row i is the partition's row i, so the sidecar holds no permutation,
// and attribute postings (attr.go) address the same positions. The
// sidecar is bound to the SpatialDataset instance Columnar returns, so
// any transformation (which returns a new instance) drops it by
// construction and can never serve stale columns.

// Columnar returns the dataset with its columnar sidecar: one pass over
// every partition extracting envelope and interval columns, so that the
// survivors of a small window are contiguous. Rows an R-tree laid out
// (Index, LoadIndex) are spatially compact already; their columns
// follow leaf order and the returned dataset shares them. Any other
// rows are laid out once in the Hilbert order of their envelope centres
// over the partition's MBR, and the returned dataset holds that copy in
// place of the receiver's rows. Statistics and schema carry over; the
// postings do not, the positions being new. A dataset that has its
// sidecar returns itself. The pass runs one task per partition through
// the engine's pool and charges the rows it reads to StatsRecords — it
// is a statistics-like auxiliary pass, not a query.
func (s *SpatialDataset[V]) Columnar() (*SpatialDataset[V], error) {
	if s.HasColumnar() {
		return s, nil
	}
	ctx, n := s.ds.Context(), s.ds.NumPartitions()
	rows := make([][]Tuple[V], n)
	cols := make([]*colstore.Partition, n)
	rec := ctx.Recorder()
	err := ctx.RunJob(engine.AllPartitions(n), func(p int) error {
		in, err := s.ds.ComputePartition(p)
		if err != nil {
			return err
		}
		if !s.laid {
			order := colstore.HilbertOrder(len(in), func(i int) geom.Envelope { return in[i].Key.Envelope() })
			laid := make([]Tuple[V], len(in))
			for d, i := range order {
				laid[d] = in[i]
			}
			in = laid
		}
		b := colstore.NewBuilder(len(in))
		for i := range in {
			iv, timed := in[i].Key.Time()
			b.Add(in[i].Key.Envelope(), int64(iv.Start), int64(iv.End), timed)
		}
		cols[p], _ = b.Finish(false)
		rows[p] = in
		rec.Add(engine.StatsRecords, int64(len(in)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := newSpatial(engine.FromPartitions(ctx, rows), s.sp, s.rec)
	out.aux.rows, out.aux.col = rows, cols
	s.aux.statsMu.Lock()
	out.aux.stats, out.aux.statsSeeded = s.aux.stats, s.aux.statsSeeded
	s.aux.statsMu.Unlock()
	s.aux.attrMu.Lock()
	out.aux.schema = s.aux.schema
	s.aux.attrMu.Unlock()
	return out, nil
}

// HasColumnar reports whether the dataset has its columnar sidecar.
func (s *SpatialDataset[V]) HasColumnar() bool { return s.aux.col != nil }

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
// swept over the columns into one survivor bitset, each attribute
// predicate's postings are materialised as a bitset over the same
// positions and ANDed in (candidate-set intersection; attribute
// postings are exact, so they need no refinement), then only the
// surviving rows are refined with the exact spatial predicates (in the
// given order) and yielded, in row order. Metrics: every row is charged
// to ElementsScanned (the kernels DID consider it — this keeps the
// counter comparable with the row scan), swept chunks to
// KernelBatches, post-kernel rows to KernelSurvivors, one IndexProbes
// per attribute predicate and partition; survivors are additionally
// charged to CandidatesRefined, mirroring the index path's coarse/exact
// split. Requires the sidecar (Columnar).
func (s *SpatialDataset[V]) ColumnarFilter(preds []KernelPred, attrPreds []attr.Pred) (*engine.Dataset[Tuple[V]], error) {
	cols := s.aux.col
	if cols == nil {
		return nil, fmt.Errorf("core: columnar sidecar not built")
	}
	name, fields := ".colScan", make([]string, len(attrPreds))
	for i, ap := range attrPreds {
		name, fields[i] = ".colAttrScan", ap.Field // a repeated field is built once
	}
	idxs, rows, err := s.postings(fields)
	if err != nil {
		return nil, err
	}
	rec := s.recorder()
	out := engine.NewStream(s.ds.Context(), s.ds.Name()+name, len(cols),
		func(p int, yield func(Tuple[V]) bool) error {
			n, part := cols[p].Len(), rows[p]
			if n == 0 {
				return nil
			}
			bs := colstore.GetBitset(n)
			var batches int64
			for _, kp := range preds {
				batches += int64(colstore.Filter(cols[p], kp.Query, bs))
			}
			if len(attrPreds) > 0 {
				ab := colstore.GetBitset(n)
				for i, ap := range attrPreds {
					ab.ClearAll(n)
					idxs[i][p].Postings(ap, func(row int32) { ab.Set(int(row)) })
					rec.Add(engine.IndexProbes, 1)
					bs.And(ab)
				}
				colstore.PutBitset(ab)
			}
			survivors := int64(bs.Count())
			bs.Visit(func(row int) bool {
				kv := &part[row]
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
	return out.WithRecorder(s.rec), nil
}
