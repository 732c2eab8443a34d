package geom

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParsePoint(t *testing.T) {
	g, err := ParseWKT("POINT (30 10)")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := g.(Point)
	if !ok {
		t.Fatalf("got %T", g)
	}
	if p.X != 30 || p.Y != 10 {
		t.Errorf("point = %v", p)
	}
}

func TestParsePointVariants(t *testing.T) {
	for _, s := range []string{
		"POINT(30 10)",
		"point (30 10)",
		"  POINT  ( 30   10 ) ",
		"Point(3e1 1.0e1)",
	} {
		g, err := ParseWKT(s)
		if err != nil {
			t.Errorf("%q: %v", s, err)
			continue
		}
		p := g.(Point)
		if p.X != 30 || p.Y != 10 {
			t.Errorf("%q → %v", s, p)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	for _, s := range []string{"POINT EMPTY", "LINESTRING EMPTY", "POLYGON EMPTY", "MULTIPOINT EMPTY"} {
		g, err := ParseWKT(s)
		if err != nil {
			t.Errorf("%q: %v", s, err)
			continue
		}
		if !g.IsEmpty() {
			t.Errorf("%q should parse as empty", s)
		}
	}
}

func TestParseLineString(t *testing.T) {
	g, err := ParseWKT("LINESTRING (30 10, 10 30, 40 40)")
	if err != nil {
		t.Fatal(err)
	}
	ls := g.(LineString)
	if ls.NumPoints() != 3 {
		t.Errorf("points = %d", ls.NumPoints())
	}
	if !ls.PointAt(1).Equal(pt(10, 30)) {
		t.Errorf("pt1 = %v", ls.PointAt(1))
	}
}

func TestParsePolygon(t *testing.T) {
	g, err := ParseWKT("POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))")
	if err != nil {
		t.Fatal(err)
	}
	poly := g.(Polygon)
	if poly.NumHoles() != 1 {
		t.Errorf("holes = %d", poly.NumHoles())
	}
	if poly.Shell().NumPoints() != 5 {
		t.Errorf("shell points = %d", poly.Shell().NumPoints())
	}
}

func TestParsePolygonAutoClose(t *testing.T) {
	// Unclosed ring gets closed by newRing.
	g, err := ParseWKT("POLYGON ((0 0, 4 0, 4 4, 0 4))")
	if err != nil {
		t.Fatal(err)
	}
	poly := g.(Polygon)
	if poly.Shell().NumPoints() != 5 {
		t.Errorf("shell points = %d, want 5 (auto-closed)", poly.Shell().NumPoints())
	}
	if polygonArea(poly) != 16 {
		t.Errorf("area = %v", polygonArea(poly))
	}
}

func TestParseMultiPointBothForms(t *testing.T) {
	for _, s := range []string{
		"MULTIPOINT ((10 40), (40 30), (20 20))",
		"MULTIPOINT (10 40, 40 30, 20 20)",
	} {
		g, err := ParseWKT(s)
		if err != nil {
			t.Errorf("%q: %v", s, err)
			continue
		}
		mp := g.(MultiPoint)
		if mp.NumPoints() != 3 {
			t.Errorf("%q → %d points", s, mp.NumPoints())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"CIRCLE (0 0)",
		"POINT (30)",
		"POINT (30 10",
		"POINT (a b)",
		"LINESTRING (0 0)",
		"POLYGON ((0 0, 1 1))",
		"POINT (1 2) trailing",
	} {
		if _, err := ParseWKT(s); err == nil {
			t.Errorf("%q: expected parse error", s)
		}
	}
}

// TestParseEmptyEndsTheInput: nothing may follow EMPTY, for every kind
// and for ParsePoint too.
func TestParseEmptyEndsTheInput(t *testing.T) {
	for _, s := range []string{
		"POINT EMPTY (1 2)", "point empty x", "LINESTRING EMPTY junk", "POLYGON EMPTY ((0 0, 1 0, 1 1, 0 0))",
		"MULTIPOINT EMPTY,", "POINT EMPTY EMPTY",
	} {
		if _, err := ParseWKT(s); err == nil || !strings.Contains(err.Error(), "trailing input") {
			t.Errorf("%q: error %v, want trailing input", s, err)
		}
		if _, ok := ParsePoint(s); ok {
			t.Errorf("%q: ParsePoint accepts it", s)
		}
	}
	for _, s := range []string{"POINT EMPTY", " point  empty \n", "LINESTRING EMPTY", "POLYGON EMPTY", "MULTIPOINT EMPTY "} {
		if _, err := ParseWKT(s); err != nil {
			t.Errorf("%q: %v", s, err)
		}
	}
}

func TestWKTRoundTrip(t *testing.T) {
	inputs := []string{
		"POINT (30 10)",
		"LINESTRING (30 10, 10 30, 40 40)",
		"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
		"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))",
		"MULTIPOINT ((10 40), (40 30))",
	}
	for _, s := range inputs {
		g1, err := ParseWKT(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		g2, err := ParseWKT(g1.WKT())
		if err != nil {
			t.Fatalf("re-parsing %q: %v", g1.WKT(), err)
		}
		if g1.WKT() != g2.WKT() {
			t.Errorf("round trip mismatch: %q vs %q", g1.WKT(), g2.WKT())
		}
	}
}

func TestPropWKTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func() bool {
		g := randomGeometry(rng)
		parsed, err := ParseWKT(g.WKT())
		if err != nil {
			return false
		}
		return parsed.WKT() == g.WKT()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWKTEmptyWriters(t *testing.T) {
	if got := (Point{X: nan(), Y: nan()}).WKT(); got != "POINT EMPTY" {
		t.Errorf("empty point WKT = %q", got)
	}
	if got := (LineString{}).WKT(); got != "LINESTRING EMPTY" {
		t.Errorf("empty linestring WKT = %q", got)
	}
	if got := (Polygon{}).WKT(); got != "POLYGON EMPTY" {
		t.Errorf("empty polygon WKT = %q", got)
	}
	if got := (MultiPoint{}).WKT(); got != "MULTIPOINT EMPTY" {
		t.Errorf("empty multipoint WKT = %q", got)
	}
}

func TestTruncateErrorMessage(t *testing.T) {
	long := "POINT (" + strings.Repeat("1", 100)
	_, err := ParseWKT(long)
	if err == nil {
		t.Fatal("expected error")
	}
	if len(err.Error()) > 200 {
		t.Errorf("error message too long: %d bytes", len(err.Error()))
	}
}
