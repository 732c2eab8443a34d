package engine

import "sync"

// This file adds the second tier of RDD operations: distinct and
// aggregation helpers used by analysis pipelines on top of the core
// transformations in dataset.go.

// Distinct returns the unique elements of a comparable dataset. Like
// Spark's distinct it shuffles by hash so duplicates meet in the same
// partition.
func Distinct[T comparable](d *Dataset[T], hash func(T) int) (*Dataset[T], error) {
	n := d.numPart
	if n == 0 {
		n = 1
	}
	pairs := Map(d, func(v T) Pair[T, struct{}] { return Pair[T, struct{}]{Key: v} })
	shuffled, err := PartitionBy(pairs, FuncPartitioner[T]{N: n, Fn: func(k T) int {
		h := hash(k) % n
		if h < 0 {
			h += n
		}
		return h
	}})
	if err != nil {
		return nil, err
	}
	return MapPartitions(shuffled, func(_ int, in []Pair[T, struct{}]) ([]T, error) {
		seen := make(map[T]struct{}, len(in))
		var out []T
		for _, kv := range in {
			if _, ok := seen[kv.Key]; !ok {
				seen[kv.Key] = struct{}{}
				out = append(out, kv.Key)
			}
		}
		return out, nil
	}), nil
}

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

// MinBy returns the element minimising key; false when empty.
func MinBy[T any](d *Dataset[T], key func(T) float64) (T, bool, error) {
	return d.Reduce(func(a, b T) T {
		if key(b) < key(a) {
			return b
		}
		return a
	})
}

// MaxBy returns the element maximising key; false when empty.
func MaxBy[T any](d *Dataset[T], key func(T) float64) (T, bool, error) {
	return d.Reduce(func(a, b T) T {
		if key(b) > key(a) {
			return b
		}
		return a
	})
}

// SumBy returns the sum of key over all elements.
func SumBy[T any](d *Dataset[T], key func(T) float64) (float64, error) {
	return Aggregate(d, 0.0,
		func(acc float64, v T) float64 { return acc + key(v) },
		func(a, b float64) float64 { return a + b })
}

// Stats holds summary statistics of a numeric projection.
type Stats struct {
	Count          int64
	Sum, Min, Max  float64
	Mean, Variance float64
}

// StatsBy computes count/sum/min/max/mean/variance of key over the
// dataset in one pass (Chan et al. parallel variance merge).
func StatsBy[T any](d *Dataset[T], key func(T) float64) (Stats, error) {
	type acc struct {
		n        int64
		mean, m2 float64
		sum      float64
		min, max float64
		has      bool
	}
	merge := func(a, b acc) acc {
		if !a.has {
			return b
		}
		if !b.has {
			return a
		}
		n := a.n + b.n
		delta := b.mean - a.mean
		out := acc{
			n:    n,
			mean: a.mean + delta*float64(b.n)/float64(n),
			m2:   a.m2 + b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n),
			sum:  a.sum + b.sum,
			min:  a.min, max: a.max, has: true,
		}
		if b.min < out.min {
			out.min = b.min
		}
		if b.max > out.max {
			out.max = b.max
		}
		return out
	}
	total, err := Aggregate(d, acc{},
		func(a acc, v T) acc {
			x := key(v)
			if !a.has {
				return acc{n: 1, mean: x, sum: x, min: x, max: x, has: true}
			}
			a.n++
			delta := x - a.mean
			a.mean += delta / float64(a.n)
			a.m2 += delta * (x - a.mean)
			a.sum += x
			if x < a.min {
				a.min = x
			}
			if x > a.max {
				a.max = x
			}
			return a
		}, merge)
	if err != nil {
		return Stats{}, err
	}
	if !total.has {
		return Stats{}, nil
	}
	variance := 0.0
	if total.n > 1 {
		variance = total.m2 / float64(total.n)
	}
	return Stats{
		Count: total.n, Sum: total.sum, Min: total.min, Max: total.max,
		Mean: total.mean, Variance: variance,
	}, nil
}
