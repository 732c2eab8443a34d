package workload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stobject"
)

func TestPointsDeterministic(t *testing.T) {
	cfg := Config{N: 100, Seed: 7, Dist: Uniform}
	a := Points(cfg)
	b := Points(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same points")
		}
	}
	c := Points(Config{N: 100, Seed: 8, Dist: Uniform})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestPointsInBounds(t *testing.T) {
	for _, d := range []Distribution{Uniform, Skewed, Diagonal} {
		pts := Points(Config{N: 500, Seed: 1, Dist: d, Width: 100, Height: 50})
		for _, p := range pts {
			if p.X < 0 || p.X > 100 || p.Y < 0 || p.Y > 50 {
				t.Fatalf("%s: point %v out of bounds", d, p)
			}
		}
	}
}

func TestSkewedIsActuallySkewed(t *testing.T) {
	// Compare grid imbalance: skewed data must be much more
	// imbalanced than uniform under an equal grid.
	uniform := Points(Config{N: 5000, Seed: 2, Dist: Uniform})
	skewed := Points(Config{N: 5000, Seed: 2, Dist: Skewed})
	imbalanceOf := func(pts []geom.Point) float64 {
		objs := make([]stobject.STObject, len(pts))
		for i, p := range pts {
			objs[i] = stobject.New(p)
		}
		g, err := partition.NewGrid(8, objs)
		if err != nil {
			t.Fatal(err)
		}
		sizes := make([]int, g.NumPartitions())
		for _, o := range objs {
			sizes[g.PartitionFor(o)]++
		}
		maxSize := 0
		for _, s := range sizes {
			maxSize = max(maxSize, s)
		}
		return float64(maxSize) * float64(len(sizes)) / float64(len(objs))
	}
	iu, is := imbalanceOf(uniform), imbalanceOf(skewed)
	if is < 3*iu {
		t.Errorf("skew imbalance %v not clearly above uniform %v", is, iu)
	}
}

func TestDistributionString(t *testing.T) {
	if Uniform.String() != "uniform" || Skewed.String() != "skewed" || Diagonal.String() != "diagonal" {
		t.Error("distribution names wrong")
	}
	if !strings.Contains(Distribution(99).String(), "99") {
		t.Error("unknown distribution should include number")
	}
}

func TestSTPointsCarryTime(t *testing.T) {
	objs := stPoints(Config{N: 50, Seed: 3, TimeRange: 1000})
	for _, o := range objs {
		iv, ok := o.Time()
		if !ok {
			t.Fatal("missing time")
		}
		if iv.Start < 0 || iv.Start >= 1000 {
			t.Fatalf("time %v out of range", iv.Start)
		}
	}
}

func TestTuplesIndexValues(t *testing.T) {
	tuples := Tuples(Config{N: 20, Seed: 4})
	for i, kv := range tuples {
		if kv.Value != i {
			t.Fatalf("tuple %d has value %d", i, kv.Value)
		}
	}
	sp := SpatialTuples(Config{N: 20, Seed: 4})
	for _, kv := range sp {
		if kv.Key.HasTime() {
			t.Fatal("spatial tuples must not carry time")
		}
	}
}

func TestEventsAndCSVRoundTrip(t *testing.T) {
	events := Events(Config{N: 100, Seed: 5})
	path := filepath.Join(t.TempDir(), "data", "events.csv")
	// Twice: the second write replaces the first.
	for i := 0; i < 2; i++ {
		if err := WriteEventsCSV(path, events); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadEventsCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("len = %d, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
}

func TestReadEventsCSVErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadEventsCSV(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file must fail")
	}
	for name, content := range map[string]string{
		"bad-header": "nope\n",
		"bad-line":   eventsCSVHeader + "\nx,y\n",
		"empty":      "",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadEventsCSV(path); err == nil {
			t.Errorf("%s must fail", name)
		}
	}
}

func TestParseEventLine(t *testing.T) {
	e, err := parseEventLine("7,sports,123,POINT (1.5 2.5)")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != 7 || e.Category != "sports" || e.Time != 123 || e.WKT != "POINT (1.5 2.5)" {
		t.Errorf("parsed %+v", e)
	}
	// WKT containing commas (polygon) survives SplitN.
	e, err = parseEventLine("1,x,2,POLYGON ((0 0, 1 0, 1 1, 0 0))")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(e.WKT, "POLYGON") || !strings.Contains(e.WKT, "1 1") {
		t.Errorf("wkt = %q", e.WKT)
	}
	for _, bad := range []string{"", "1,2,3", "a,b,1,POINT (0 0)", "1,b,x,POINT (0 0)"} {
		if _, err := parseEventLine(bad); err == nil {
			t.Errorf("%q: expected error", bad)
		}
	}
}

func TestEventToSTObject(t *testing.T) {
	e := Event{ID: 1, Category: "x", Time: 55, WKT: "POINT (3 4)"}
	o, err := e.ToSTObject()
	if err != nil {
		t.Fatal(err)
	}
	iv, ok := o.Time()
	if !ok || iv.Start != 55 {
		t.Errorf("time = %v ok=%v", iv, ok)
	}
	if _, err := (Event{WKT: "JUNK"}).ToSTObject(); err == nil {
		t.Error("bad wkt must fail")
	}
}

func TestEventTuplesDropsBadWKT(t *testing.T) {
	events := []Event{
		{ID: 1, WKT: "POINT (0 0)"},
		{ID: 2, WKT: "NOT WKT"},
		{ID: 3, WKT: "POINT (1 1)"},
	}
	tuples, dropped := EventTuples(events)
	if len(tuples) != 2 || dropped != 1 {
		t.Errorf("tuples=%d dropped=%d", len(tuples), dropped)
	}
}

func TestRegions(t *testing.T) {
	regions := Regions(Config{N: 0, Seed: 6, Width: 100, Height: 100}, 20)
	if len(regions) != 20 {
		t.Fatalf("len = %d", len(regions))
	}
	space := geom.NewEnvelope(0, 0, 100, 100)
	for _, r := range regions {
		if !space.ContainsEnvelope(r.Envelope()) {
			t.Fatalf("region %v escapes the space", r.Envelope())
		}
		if e := r.Envelope(); e.Width()*e.Height() <= 0 {
			t.Fatal("degenerate region")
		}
	}
}
