package core

import (
	"fmt"

	"stark/internal/attr"
	"stark/internal/colstore"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/index"
	"stark/internal/stobject"
)

// This file wires the colstore columns into the scan path. Columnar
// extracts per-partition SoA envelope/interval columns in the order of
// the rows they describe, laying the rows out along a Hilbert curve
// first when no R-tree laid them out; ColumnarFilter then streams a
// conjunctive predicate chain as a coarse batched kernel sweep per
// partition followed by exact refinement of the survivors only. Column
// row i is the partition's row i, so the columns hold no permutation,
// and attribute postings (attr.go) address the same positions. The
// columns live in the partitions' Laids, which only the dataset
// Columnar returns holds, so any transformation (which returns a new
// instance) drops them by construction and can never serve stale
// columns.

// Columnar returns the dataset with its columns: one pass over every
// partition extracting envelope and interval columns, so that the
// survivors of a small window are contiguous. Rows an R-tree laid out
// (Index, LoadIndex) are spatially compact already; their columns
// follow leaf order, and the returned dataset's partitions share their
// rows and tree. Any other rows are laid out once in the Hilbert order
// of their envelope centres over the partition's MBR, and the returned
// dataset holds that copy in place of the receiver's rows. Statistics
// and schema carry over; the postings do not, the positions being new.
// A dataset that has its columns returns itself. The pass runs one task
// per partition through the engine's pool and charges the rows it reads
// to StatsRecords — it is a statistics-like auxiliary pass, not a query.
func (s *SpatialDataset[V]) Columnar() (*SpatialDataset[V], error) {
	if s.HasColumnar() {
		return s, nil
	}
	ctx, n := s.ds.Context(), s.ds.NumPartitions()
	resident := s.resident()
	laid := make([]*index.Laid[V], n)
	err := ctx.RunJob(engine.AllPartitions(n), func(p int) error {
		if resident != nil && resident[p].Tree != nil {
			l := *resident[p]
			l.Cols = columns(ctx.Recorder(), l.Rows)
			laid[p] = &l
			return nil
		}
		in, err := s.rowsOf(resident, p)
		if err != nil {
			return err
		}
		order := colstore.HilbertOrder(len(in), func(i int) geom.Envelope { return in[i].Key.Envelope() })
		rows := make([]Tuple[V], len(in))
		for d, i := range order {
			rows[d] = in[i]
		}
		laid[p] = &index.Laid[V]{Rows: rows, Cols: columns(ctx.Recorder(), rows)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := newLaid(ctx, laid, s.sp, s.rec)
	s.aux.statsMu.Lock()
	out.aux.stats, out.aux.statsSeeded = s.aux.stats, s.aux.statsSeeded
	s.aux.statsMu.Unlock()
	s.aux.attrMu.Lock()
	out.aux.schema = s.aux.schema
	s.aux.attrMu.Unlock()
	return out, nil
}

// columns extracts the envelope and interval columns of rows, charging
// them to StatsRecords.
func columns[V any](rec *engine.Recorder, rows []Tuple[V]) *colstore.Partition {
	b := colstore.NewBuilder(len(rows))
	for i := range rows {
		iv, timed := rows[i].Key.Time()
		b.Add(rows[i].Key.Envelope(), int64(iv.Start), int64(iv.End), timed)
	}
	cols, _ := b.Finish(false)
	rec.Add(engine.StatsRecords, int64(len(rows)))
	return cols
}

// HasColumnar reports whether the dataset has its columns.
func (s *SpatialDataset[V]) HasColumnar() bool {
	laid := s.resident()
	return len(laid) > 0 && laid[0].Cols != nil
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
// split. Requires the columns (Columnar).
func (s *SpatialDataset[V]) ColumnarFilter(preds []KernelPred, attrPreds []attr.Pred) (*engine.Dataset[Tuple[V]], error) {
	if !s.HasColumnar() {
		return nil, fmt.Errorf("core: no columns built")
	}
	name, fields := ".colScan", make([]string, len(attrPreds))
	for i, ap := range attrPreds {
		name, fields[i] = ".colAttrScan", ap.Field // a repeated field is built once
	}
	idxs, laid, err := s.postings(fields)
	if err != nil {
		return nil, err
	}
	rec := s.recorder()
	out := engine.NewStream(s.ds.Context(), s.ds.Name()+name, len(laid),
		func(p int, yield func(Tuple[V]) bool) error {
			cols, part := laid[p].Cols, laid[p].Rows
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
