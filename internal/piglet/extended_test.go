package piglet

import (
	"strings"
	"testing"
)

func TestSample(t *testing.T) {
	env := testEnv(t, 2000)
	out, err := Run(`
events = LOAD 'data/events.csv';
tenth  = SAMPLE events 0.1;
fixed  = SAMPLE events 0.1 SEED 7;
again  = SAMPLE events 0.1 SEED 7;
none   = SAMPLE events 0;
all    = SAMPLE events 1;
`, env)
	if err != nil {
		t.Fatal(err)
	}
	n := len(out.Relations["tenth"].cell.rows)
	if n < 100 || n > 320 {
		t.Errorf("sample 0.1 of 2000 gave %d rows", n)
	}
	// Same seed → same sample.
	a := out.Relations["fixed"].cell.rows
	b := out.Relations["again"].cell.rows
	if len(a) != len(b) {
		t.Fatalf("seeded samples differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Value.Event.ID != b[i].Value.Event.ID {
			t.Fatal("seeded sample not deterministic")
		}
	}
	if len(out.Relations["none"].cell.rows) != 0 {
		t.Error("fraction 0 must keep nothing")
	}
	if len(out.Relations["all"].cell.rows) != 2000 {
		t.Error("fraction 1 must keep everything")
	}
	// Out-of-range fraction fails.
	if _, err := Run("e = LOAD 'data/events.csv'; s = SAMPLE e 2;", env); err == nil {
		t.Error("fraction > 1 must fail")
	}
}

func TestDistinctAndUnion(t *testing.T) {
	env := testEnv(t, 500)
	out, err := Run(`
events = LOAD 'data/events.csv';
both   = UNION events, events;
uniq   = DISTINCT both;
`, env)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.Relations["both"].cell.rows); got != 1000 {
		t.Errorf("union = %d rows", got)
	}
	if got := len(out.Relations["uniq"].cell.rows); got != 500 {
		t.Errorf("distinct = %d rows", got)
	}
}

func TestDescribe(t *testing.T) {
	env := testEnv(t, 300)
	out, err := Run(`
events = LOAD 'data/events.csv';
parted = PARTITION events BY GRID 3;
DESCRIBE events;
DESCRIBE parted;
`, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Dumped) != 2 {
		t.Fatalf("describe lines = %d", len(out.Dumped))
	}
	if !strings.Contains(out.Dumped[0], "300 rows") || !strings.Contains(out.Dumped[0], "unpartitioned") {
		t.Errorf("describe events = %q", out.Dumped[0])
	}
	if !strings.Contains(out.Dumped[1], "9 spatial partitions") {
		t.Errorf("describe parted = %q", out.Dumped[1])
	}
	if !strings.Contains(out.Dumped[0], "300 timed") {
		t.Errorf("timed count missing: %q", out.Dumped[0])
	}
	// Unknown relation errors.
	if _, err := Run("DESCRIBE nope;", env); err == nil {
		t.Error("unknown relation must fail")
	}
}

func TestNewOpsParseErrors(t *testing.T) {
	for _, src := range []string{
		"a = SAMPLE;",
		"a = SAMPLE x;",
		"a = UNION x;",
		"a = UNION x y;",
		"a = DISTINCT;",
		"DESCRIBE;",
	} {
		if _, err := parse(src); err == nil {
			t.Errorf("%q: expected parse error", src)
		}
	}
}

func TestBuffer(t *testing.T) {
	env := testEnv(t, 200)
	out, err := Run(`
events = LOAD 'data/events.csv';
discs  = BUFFER events RADIUS 5;
`, env)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Relations["discs"].cell.rows
	if len(rows) != 200 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, kv := range rows {
		env := kv.Key.Envelope()
		if env.Width() < 9.9 || env.Width() > 10.1 {
			t.Fatalf("disc width = %v, want ≈ 10", env.Width())
		}
		// Temporal component survives buffering.
		if !kv.Key.HasTime() {
			t.Fatal("buffer dropped the temporal component")
		}
	}
	// Buffered discs can power an intersects join replacing a
	// withinDistance filter.
	if _, err := Run("e = LOAD 'data/events.csv'; b = BUFFER e RADIUS 0;", env); err == nil {
		t.Error("radius 0 must fail")
	}
	if _, err := parse("b = BUFFER x;"); err == nil {
		t.Error("missing RADIUS must fail to parse")
	}
}
