package geom_test

import (
	"bytes"
	"strconv"
	"testing"

	"stark/internal/geom"
	"stark/internal/workload"
)

// generatorOrdinates are the ordinates of generated events, the numbers
// a reply line carries: every distribution over the default space.
func generatorOrdinates() []float64 {
	var out []float64
	for _, dist := range []workload.Distribution{workload.Uniform, workload.Skewed, workload.Diagonal} {
		for _, p := range workload.Points(workload.Config{N: 20_000, Seed: 25, Dist: dist}) {
			out = append(out, p.X, p.Y, -p.X)
		}
	}
	return out
}

// sameAsStrconv fails unless the kernel formats every ordinate as
// strconv does.
func sameAsStrconv(tb testing.TB, ords []float64) {
	tb.Helper()
	var got, want []byte
	for _, f := range ords {
		got = geom.AppendFixed(got[:0], f)
		want = strconv.AppendFloat(want[:0], f, 'f', -1, 64)
		if !bytes.Equal(got, want) {
			tb.Fatalf("%v: got %q, want %q", f, got, want)
		}
	}
}

func TestAppendFixedGeneratorOrdinates(t *testing.T) {
	sameAsStrconv(t, generatorOrdinates())
}

var textSink []byte

// BenchmarkFloatGate: the kernel against strconv's shortest 'f' path,
// one generated ordinate per op. CI's "Access-path gates" step fails
// unless the kernel's best of three ns/op is below strconv's.
func BenchmarkFloatGate(b *testing.B) {
	ords := generatorOrdinates()
	sameAsStrconv(b, ords)
	buf := make([]byte, 0, 64)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = geom.AppendFixed(buf[:0], ords[i%len(ords)])
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], ords[i%len(ords)], 'f', -1, 64)
		}
	})
	textSink = buf
}
