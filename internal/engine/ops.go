package engine

import "sync"

// Aggregate folds every partition with seqOp starting from zero, then
// merges the per-partition results with combOp — Spark's aggregate
// action. zero must be a neutral element for combOp. Elements stream
// through the fused pipeline into the fold; no partition is
// materialised.
func Aggregate[T, A any](d *Dataset[T], zero A, seqOp func(A, T) A, combOp func(A, A) A) (A, error) {
	var (
		mu  sync.Mutex
		acc = zero
	)
	err := d.ctx.RunJobRecorder(nil, d.recorder(), AllPartitions(d.numPart), func(p int) error {
		local := zero
		if err := d.EachPartition(p, func(v T) bool {
			local = seqOp(local, v)
			return true
		}); err != nil {
			return err
		}
		mu.Lock()
		acc = combOp(acc, local)
		mu.Unlock()
		return nil
	})
	return acc, err
}
