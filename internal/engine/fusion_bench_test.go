package engine

import (
	"testing"
)

// Benchmarks comparing the fused streaming pipeline against the seed
// slice-per-step execution model on the canonical 3-step narrow
// chain (map ∘ filter ∘ map) over 100k elements. Run with
//
//	go test -bench Chain -benchmem ./internal/engine/
//
// The interesting columns are allocs/op and B/op: fusion removes
// every intermediate per-step slice, and streaming actions (Count)
// avoid materialising anything at all.

func benchData() ([]int, *Context) {
	return intRange(100_000), NewContext(4)
}

func BenchmarkChainCountFused(b *testing.B) {
	data, ctx := benchData()
	base := Parallelize(ctx, data, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fusedAllocChain(base).Count(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainCountSeedStyle(b *testing.B) {
	data, ctx := benchData()
	base := Parallelize(ctx, data, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seedAllocChain(base).Count(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainCollectFused(b *testing.B) {
	data, ctx := benchData()
	base := Parallelize(ctx, data, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fusedAllocChain(base).Collect(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainCollectSeedStyle(b *testing.B) {
	data, ctx := benchData()
	base := Parallelize(ctx, data, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seedAllocChain(base).Collect(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainTakeFused(b *testing.B) {
	data, ctx := benchData()
	base := Parallelize(ctx, data, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := fusedAllocChain(base).Take(10)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 10 {
			b.Fatalf("take = %d rows", len(out))
		}
	}
}

func BenchmarkChainTakeSeedStyle(b *testing.B) {
	data, ctx := benchData()
	base := Parallelize(ctx, data, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := seedAllocChain(base).Take(10)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 10 {
			b.Fatalf("take = %d rows", len(out))
		}
	}
}
