package geom

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// The query service keeps no WKT text next to a row: its WAL and its
// checkpoints render the text from the parsed geometry and recovery
// parses it again. That is lossless only if ParseWKT(g.WKT()) gives g
// back bit for bit, for every geometry ParseWKT can produce; these
// tests hold the writer to that.

// rings flattens g into its coordinate lists: one for a point, multi
// point or line string, shell then holes for a polygon.
func rings(g Geometry) [][]Point {
	switch v := g.(type) {
	case Point:
		return [][]Point{{v}}
	case MultiPoint:
		return [][]Point{v.pts}
	case LineString:
		return [][]Point{v.pts}
	case Polygon:
		out := [][]Point{v.shell.pts}
		for _, h := range v.holes {
			out = append(out, h.pts)
		}
		return out
	}
	return nil
}

// sameBits reports whether a and b are the same kind of geometry with
// the same ordinates, compared as bit patterns (so -0 differs from 0
// and an empty point's NaNs compare equal).
func sameBits(a, b Geometry) bool {
	if a.kind() != b.kind() {
		return false
	}
	ra, rb := rings(a), rings(b)
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if len(ra[i]) != len(rb[i]) {
			return false
		}
		for j, p := range ra[i] {
			q := rb[i][j]
			if math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) {
				return false
			}
		}
	}
	// What the constructors derive from the ordinates comes back too.
	if pa, ok := a.(Polygon); ok && pa.rect != b.(Polygon).rect {
		return false
	}
	return a.IsEmpty() || a.Envelope() == b.Envelope()
}

// checkRoundTrip parses text, renders it, parses the rendering and
// compares the two geometries.
func checkRoundTrip(t *testing.T, text string) {
	t.Helper()
	g, err := ParseWKT(text)
	if err != nil {
		t.Fatalf("%q: %v", text, err)
	}
	back, err := ParseWKT(g.WKT())
	if err != nil {
		t.Fatalf("%q renders as %q, which does not parse: %v", text, g.WKT(), err)
	}
	if !sameBits(g, back) {
		t.Errorf("%q renders as %q, which parses to a different geometry (%q)", text, g.WKT(), back.WKT())
	}
	if want := referenceWKT(g); !g.IsEmpty() && g.WKT() != want {
		t.Errorf("%q renders as %q, want %q", text, g.WKT(), want)
	}
}

// referenceWKT spells g the way the writer did before AppendFixed, one
// strconv.FormatFloat(v, 'g', -1, 64) per ordinate; the WAL and the
// checkpoints hold that text, so the writer keeps it byte for byte.
func referenceWKT(g Geometry) string {
	var lists []string
	for _, pts := range rings(g) {
		coords := make([]string, len(pts))
		for i, p := range pts {
			coords[i] = strconv.FormatFloat(p.X, 'g', -1, 64) + " " + strconv.FormatFloat(p.Y, 'g', -1, 64)
		}
		lists = append(lists, strings.Join(coords, ", "))
	}
	switch g.(type) {
	case Point:
		return "POINT (" + lists[0] + ")"
	case MultiPoint:
		return "MULTIPOINT ((" + strings.ReplaceAll(lists[0], ", ", "), (") + "))"
	case LineString:
		return "LINESTRING (" + lists[0] + ")"
	}
	return "POLYGON ((" + strings.Join(lists, "), (") + "))"
}

// hardOrdinates are the float64 values a decimal writer loses first:
// signed zero, the smallest subnormal, values around the switch to
// exponent notation (for WKT at 1e-4 and 1e6), the extremes, and values
// that need all 17 digits.
var hardOrdinates = []string{
	"-0", "0", "5e-324", "-5e-324", "1e-7", "0.000001", "1e21", "1e20", "123456789012345678",
	"0.0001", "-0.00009999999999999999", "999999.9999999999", "1e6", "-0.00012345678901234567",
	"-1e300", "1.7976931348623157e308", "-1.7976931348623157e308", "2.2250738585072014e-308",
	"0.30000000000000004", "123456.78901234567", "-9007199254740993", "3.10", "4.0", "+5", "1e2", ".5", "5.",
}

// wktShapes are templates of every geometry type ParseWKT accepts, in
// canonical and non-canonical spelling; A and B are replaced by two
// ordinates.
var wktShapes = []string{
	"POINT (A B)",
	" point ( A B ) ",
	"POINT(A B)",
	"MULTIPOINT ((A B), (B A), (1 2))",
	"MULTIPOINT (A B, 1 2, B A)",
	"multipoint((A B))",
	"LINESTRING (A B, B A)",
	"LINESTRING (0 0, A B, 1 1, B A)",
	"POLYGON ((A B, 10 0, 10 10, 0 10, A B))",
	"POLYGON ((0 0, A 0, A B, 0 B))", // closed by the parser
	"POLYGON ((0.0 0.0, 10.00 0, 10 10.0, 0 10, 0 0), (2 2, A 2, 4 B, 2 4, 2 2), (5 5, 6 5, 6 6, B A, 5 5))",
	"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", // a rectangle: the rect flag must come back
}

func TestWKTRoundTripBitExact(t *testing.T) {
	for _, shape := range wktShapes {
		for i, a := range hardOrdinates {
			b := hardOrdinates[(i+7)%len(hardOrdinates)]
			checkRoundTrip(t, strings.NewReplacer("A", a, "B", b).Replace(shape))
		}
	}
	for _, text := range []string{"POINT EMPTY", "MULTIPOINT EMPTY", "LINESTRING EMPTY", "POLYGON EMPTY", "point empty"} {
		checkRoundTrip(t, text)
	}
	// The five ordinates the issue names, spelled out for points.
	for _, v := range []float64{math.Copysign(0, -1), 5e-324, 1e-7, 1e21, -1e300} {
		g, err := ParseWKT(Point{X: v, Y: -v}.WKT())
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(g, Point{X: v, Y: -v}) {
			t.Errorf("point (%g %g) comes back as %s", v, -v, g.WKT())
		}
	}
}

// FuzzWKTRoundTrip: whatever text ParseWKT accepts, the rendering of
// the parsed geometry parses to the same geometry bit for bit. Seeded
// with the parser tests' corpus, accepted and rejected.
func FuzzWKTRoundTrip(f *testing.F) {
	for _, s := range []string{
		"POINT (30 10)", "POINT(30 10)", "point (30 10)", "  POINT  ( 30   10 ) ", "Point(3e1 1.0e1)",
		"POINT EMPTY", "LINESTRING EMPTY", "POLYGON EMPTY", "MULTIPOINT EMPTY",
		"LINESTRING (30 10, 10 30, 40 40)",
		"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
		"POLYGON ((0 0, 4 0, 4 4, 0 4))",
		"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))",
		"MULTIPOINT ((10 40), (40 30))", "MULTIPOINT (10 40, 40 30, 20 20)",
		"POINT (-0 5e-324)", "POINT (1e-7 1e21)", "POINT (-1e300 0.30000000000000004)", "POINT (1e-400 -1e-400)",
		"", "CIRCLE (0 0)", "POINT (30)", "POINT (30 10", "POINT (a b)", "LINESTRING (0 0)",
		"POLYGON ((0 0, 1 1))", "POINT (1 2) trailing", "POINT (1e999 0)", "POINT EMPTY (1 2)", "LINESTRING EMPTY junk",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if _, err := ParseWKT(text); err != nil {
			return
		}
		checkRoundTrip(t, text)
	})
}

var wktSink string

// TestPointWKTAllocatesOnce: the checkpoint writer and the WAL render
// every row's point; the text is the one allocation.
func TestPointWKTAllocatesOnce(t *testing.T) {
	for _, p := range []Point{{X: 512.0625, Y: -0.30000000000000004}, {X: -math.MaxFloat64, Y: -math.SmallestNonzeroFloat64}} {
		if n := testing.AllocsPerRun(100, func() { wktSink = p.WKT() }); n != 1 {
			t.Errorf("%v: %v allocations, want 1", p, n)
		}
	}
}
