package geom

import (
	"math"
	"math/rand"
	"testing"
)

// ringWalkEnvelope recomputes an envelope from the vertices, the way
// Envelope() did before it was stored at construction.
func ringWalkEnvelope(g Geometry) Envelope {
	switch t := g.(type) {
	case MultiPoint:
		return envelopeOf(t.pts)
	case LineString:
		return envelopeOf(t.pts)
	case Polygon:
		return envelopeOf(t.shell.pts)
	}
	return g.Envelope()
}

func TestStoredEnvelopeMatchesVertexWalk(t *testing.T) {
	line := MustLineString(pt(0, 0), pt(3, 0.2), pt(6, -0.1), pt(9, 4), pt(12, 0))
	poly := MustPolygon(pt(0, 0), pt(4, 0), pt(4.1, 2), pt(4, 4), pt(0, 4), pt(-0.1, 2))
	buffered, ok := BufferPoint(pt(2, 3), 1.5, 7)
	if !ok {
		t.Fatal("buffer produced nothing")
	}
	geoms := map[string]Geometry{
		"multipoint":       NewMultiPoint([]Point{pt(1, 7), pt(-2, 3)}),
		"multipoint none":  NewMultiPoint(nil),
		"line":             line,
		"simplified line":  Simplify(line, 0.5),
		"polygon":          poly,
		"polygon + hole":   squareWithHole(),
		"buffered point":   buffered,
		"wkt polygon":      MustParseWKT("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))"),
		"wkt line":         MustParseWKT("LINESTRING (5 5, -1 9)"),
		"wkt multipoint":   MustParseWKT("MULTIPOINT ((1 2), (3 4))"),
		"empty polygon":    MustParseWKT("POLYGON EMPTY"),
		"empty line":       MustParseWKT("LINESTRING EMPTY"),
		"empty multipoint": MustParseWKT("MULTIPOINT EMPTY"),
		"zero polygon":     Polygon{},
		"zero line":        LineString{},
		"zero multipoint":  MultiPoint{},
	}
	for name, g := range geoms {
		if got, want := g.Envelope(), ringWalkEnvelope(g); got != want {
			t.Errorf("%s: Envelope() = %+v, vertex walk = %+v", name, got, want)
		}
		if g.IsEmpty() != g.Envelope().IsEmpty() {
			t.Errorf("%s: IsEmpty() = %v but envelope empty = %v", name, g.IsEmpty(), g.Envelope().IsEmpty())
		}
	}
}

// bigLine is a 10k-vertex line string.
func bigLine() LineString {
	pts := make([]Point, 10_000)
	for i := range pts {
		pts[i] = Point{X: float64(i), Y: math.Sin(float64(i))}
	}
	ls, err := NewLineString(pts)
	if err != nil {
		panic(err)
	}
	return ls
}

func TestEnvelopeDoesNotWalkVertices(t *testing.T) {
	l := bigLine()
	want := l.Envelope()
	// Geometries are immutable; only a test in this package can reach
	// the vertices. An Envelope() that still looped over them would see
	// the moved vertex.
	l.pts[5000] = Point{X: -1e9, Y: 1e9}
	if got := l.Envelope(); got != want {
		t.Fatalf("Envelope() re-read the vertices: %+v, want %+v", got, want)
	}
	var g Geometry = l
	if n := testing.AllocsPerRun(100, func() { envSink = g.Envelope() }); n != 0 {
		t.Fatalf("Envelope() allocates %v times per call", n)
	}
}

func TestRectangleFlag(t *testing.T) {
	rectWithHole := NewPolygon(
		mustRing(pt(0, 0), pt(10, 0), pt(10, 10), pt(0, 10)),
		mustRing(pt(2, 2), pt(4, 2), pt(4, 4), pt(2, 4)))
	cases := []struct {
		name string
		poly Polygon
		want bool
	}{
		{"ccw from lower left", MustPolygon(pt(0, 0), pt(4, 0), pt(4, 3), pt(0, 3)), true},
		{"cw from lower left", MustPolygon(pt(0, 0), pt(0, 3), pt(4, 3), pt(4, 0)), true},
		{"ccw from upper right", MustPolygon(pt(4, 3), pt(0, 3), pt(0, 0), pt(4, 0)), true},
		{"explicitly closed", MustPolygon(pt(0, 0), pt(4, 0), pt(4, 3), pt(0, 3), pt(0, 0)), true},
		{"wkt window", MustParseWKT("POLYGON ((100 100, 600 100, 600 600, 100 600, 100 100))").(Polygon), true},
		{"envelope polygon", NewEnvelope(0, 0, 3, 2).ToPolygon(), true},
		{"rotated square", MustPolygon(pt(0, 1), pt(1, 0), pt(2, 1), pt(1, 2)), false},
		{"trapezium", MustPolygon(pt(0, 0), pt(4, 0), pt(3, 3), pt(0, 3)), false},
		{"bow tie over the corners", MustPolygon(pt(0, 0), pt(4, 3), pt(4, 0), pt(0, 3)), false},
		{"triangle", MustPolygon(pt(0, 0), pt(4, 0), pt(0, 3)), false},
		{"zero width", MustPolygon(pt(0, 0), pt(0, 3), pt(0, 3), pt(0, 0)), false},
		{"zero height", MustPolygon(pt(0, 0), pt(4, 0), pt(4, 0), pt(0, 0)), false},
		{"collinear extra vertex", MustPolygon(pt(0, 0), pt(2, 0), pt(4, 0), pt(4, 3), pt(0, 3)), false},
		{"with a hole", rectWithHole, false},
		{"infinite width", MustPolygon(pt(-math.MaxFloat64, 0), pt(math.MaxFloat64, 0), pt(math.MaxFloat64, 3), pt(-math.MaxFloat64, 3)), false},
		{"empty", Polygon{}, false},
	}
	for _, c := range cases {
		if c.poly.rect != c.want {
			t.Errorf("%s: rect = %v, want %v", c.name, c.poly.rect, c.want)
		}
	}
}

func mustRing(pts ...Point) Ring {
	r, err := NewRing(pts)
	if err != nil {
		panic(err)
	}
	return r
}

// TestPropRectangleFastPathEqualsRingWalk holds the point arms of
// Intersects, Covers and Contains to PolygonContainsPoint, the ring
// walk they all used before the rectangle flag existed, on polygons
// that take the envelope path and on near-rectangles that must not.
func TestPropRectangleFastPathEqualsRingWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var polys []Polygon
	for i := 0; i < 40; i++ {
		x0, y0 := rng.Float64()*200-100, rng.Float64()*200-100
		w, h := rng.Float64()*50+1e-9, rng.Float64()*50+1e-9
		if i%5 == 0 { // integer corners, where boundary hits are exact
			x0, y0, w, h = math.Round(x0), math.Round(y0), math.Round(w)+1, math.Round(h)+1
		}
		x1, y1 := x0+w, y0+h
		corners := []Point{pt(x0, y0), pt(x1, y0), pt(x1, y1), pt(x0, y1)}
		rot := rng.Intn(4)
		ccw := append(append([]Point{}, corners[rot:]...), corners[:rot]...)
		cw := []Point{ccw[0], ccw[3], ccw[2], ccw[1]}
		cx, cy := (x0+x1)/2, (y0+y1)/2
		polys = append(polys,
			MustPolygon(ccw...),
			MustPolygon(cw...),
			// diamond through the edge midpoints: same envelope, not a rectangle
			MustPolygon(pt(cx, y0), pt(x1, cy), pt(cx, y1), pt(x0, cy)),
			// five vertices, one corner pulled in
			MustPolygon(pt(x0, y0), pt(x1, y0), pt(x1-w/3, y1), pt(x0, y1)),
			// redundant collinear vertex on the bottom edge
			MustPolygon(pt(x0, y0), pt(cx, y0), pt(x1, y0), pt(x1, y1), pt(x0, y1)),
			// degenerate: zero width, zero height
			MustPolygon(pt(x0, y0), pt(x0, y1), pt(x0, y1), pt(x0, y0)),
			MustPolygon(pt(x0, y0), pt(x1, y0), pt(x1, y0), pt(x0, y0)),
			// rectangle with a rectangular hole
			NewPolygon(mustRing(corners...),
				mustRing(pt(x0+w/4, y0+h/4), pt(x1-w/4, y0+h/4), pt(x1-w/4, y1-h/4), pt(x0+w/4, y1-h/4))),
		)
	}
	flagged := 0
	for _, poly := range polys {
		if poly.rect {
			flagged++
		}
		e := poly.Envelope()
		xs := []float64{e.MinX - 1, math.Nextafter(e.MinX, math.Inf(-1)), e.MinX, math.Nextafter(e.MinX, math.Inf(1)),
			(e.MinX + e.MaxX) / 2, math.Nextafter(e.MaxX, math.Inf(-1)), e.MaxX, math.Nextafter(e.MaxX, math.Inf(1)), e.MaxX + 1,
			math.NaN(), math.Inf(1), math.Inf(-1)}
		ys := []float64{e.MinY - 1, math.Nextafter(e.MinY, math.Inf(-1)), e.MinY, math.Nextafter(e.MinY, math.Inf(1)),
			(e.MinY + e.MaxY) / 2, math.Nextafter(e.MaxY, math.Inf(-1)), e.MaxY, math.Nextafter(e.MaxY, math.Inf(1)), e.MaxY + 1,
			math.NaN(), math.Inf(1), math.Inf(-1)}
		var probes []Point
		for _, x := range xs {
			for _, y := range ys {
				probes = append(probes, pt(x, y))
			}
		}
		for i := 0; i < 50; i++ {
			probes = append(probes, pt(e.MinX-5+rng.Float64()*(e.Width()+10), e.MinY-5+rng.Float64()*(e.Height()+10)))
		}
		for _, p := range probes {
			// NaN ordinates make the point empty, which every predicate
			// rejects before it looks at the polygon.
			c := -1
			if !p.IsEmpty() {
				c = PolygonContainsPoint(poly, p)
			}
			if got := classifyPoint(poly, p); got != PolygonContainsPoint(poly, p) {
				t.Fatalf("classifyPoint(%s, %v) = %d, ring walk %d", poly.WKT(), p, got, PolygonContainsPoint(poly, p))
			}
			if got := Intersects(poly, p); got != (c >= 0) {
				t.Fatalf("Intersects(%s, %v) = %v, ring walk %d", poly.WKT(), p, got, c)
			}
			if got := Intersects(p, poly); got != (c >= 0) {
				t.Fatalf("Intersects(%v, %s) = %v, ring walk %d", p, poly.WKT(), got, c)
			}
			if got := Covers(poly, p); got != (c >= 0) {
				t.Fatalf("Covers(%s, %v) = %v, ring walk %d", poly.WKT(), p, got, c)
			}
			if got := Contains(poly, p); got != (c == 1) {
				t.Fatalf("Contains(%s, %v) = %v, ring walk %d", poly.WKT(), p, got, c)
			}
			mp := NewMultiPoint([]Point{p, p})
			if got := Covers(poly, mp); !p.IsEmpty() && got != (c >= 0) {
				t.Fatalf("Covers(%s, multipoint %v) = %v, ring walk %d", poly.WKT(), p, got, c)
			}
		}
	}
	if flagged != 80 {
		t.Fatalf("%d of %d polygons took the rectangle path, want the 80 rectangles", flagged, len(polys))
	}
}

var (
	boolSink bool
	envSink  Envelope
)

// benchPoints straddle the window [100,600]², about two thirds inside:
// the candidates of a pruned scan lie in partitions the window touches.
func benchPoints() []Geometry {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Geometry, 1024)
	for i := range pts {
		pts[i] = Point{X: 50 + rng.Float64()*600, Y: 50 + rng.Float64()*600}
	}
	return pts
}

func benchIntersects(b *testing.B, window Geometry) {
	pts := benchPoints()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boolSink = Intersects(pts[i%len(pts)], window)
	}
}

// BenchmarkIntersectsRectPoint is the refinement test of a window
// query: a five-vertex axis-aligned polygon against a point.
func BenchmarkIntersectsRectPoint(b *testing.B) {
	benchIntersects(b, MustParseWKT("POLYGON ((100 100, 600 100, 600 600, 100 600, 100 100))"))
}

// BenchmarkIntersectsFiveGonPoint is the same envelope with one corner
// pulled in, which keeps the crossing-number walk.
func BenchmarkIntersectsFiveGonPoint(b *testing.B) {
	benchIntersects(b, MustParseWKT("POLYGON ((100 100, 600 100, 590 600, 100 600, 100 100))"))
}

func BenchmarkEnvelopeLineString10k(b *testing.B) {
	var g Geometry = bigLine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		envSink = g.Envelope()
	}
}
