package piglet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stark/internal/engine"
	"stark/internal/workload"
)

func testEnv(t *testing.T, n int) *Env {
	t.Helper()
	root := t.TempDir()
	events := workload.Events(workload.Config{N: n, Seed: 9, Width: 100, Height: 100, TimeRange: 1000})
	if err := workload.WriteEventsCSV(filepath.Join(root, "data", "events.csv"), events); err != nil {
		t.Fatal(err)
	}
	return &Env{Ctx: engine.NewContext(4), Root: root, DefaultParallelism: 4}
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex("a = LOAD 'x.csv'; -- comment\nDUMP a;")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]tokenKind, len(toks))
	for i, tk := range toks {
		kinds[i] = tk.kind
	}
	want := []tokenKind{tokIdent, tokEquals, tokIdent, tokString, tokSemicolon,
		tokIdent, tokIdent, tokSemicolon, tokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("a = 'unterminated"); err == nil {
		t.Error("unterminated string must fail")
	}
	if _, err := lex("a = @;"); err == nil {
		t.Error("bad character must fail")
	}
}

func TestLexerNumbers(t *testing.T) {
	toks, err := lex("x 1.5 -3 2e4 7;")
	if err != nil {
		t.Fatal(err)
	}
	var nums []string
	for _, tk := range toks {
		if tk.kind == tokNumber {
			nums = append(nums, tk.text)
		}
	}
	if strings.Join(nums, " ") != "1.5 -3 2e4 7" {
		t.Errorf("nums = %v", nums)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"a = ;",
		"a = LOAD;",
		"a = FILTER;",
		"a = FILTER x BY NOPE('POINT (0 0)');",
		"a = PARTITION x BY HASH 4;",
		"a = JOIN x, y ON NOPE;",
		"a = GROUPCOUNT x BY wkt;",
		"DUMP;",
		"STORE x 'y';",
		"= LOAD 'x';",
		"a = LOAD 'x'",       // missing semicolon
		"a = KNN x K 5;",     // missing QUERY
		"a = CLUSTER x EPS;", // missing value
	} {
		if _, err := parse(src); err == nil {
			t.Errorf("%q: expected parse error", src)
		}
	}
}

func TestParseFullScript(t *testing.T) {
	src := `
-- pipeline
events = LOAD 'data/events.csv';
parted = PARTITION events BY BSP 500;
inside = FILTER parted BY CONTAINEDBY('POLYGON ((0 0, 50 0, 50 50, 0 50, 0 0))', 100, 900);
near   = FILTER events BY WITHINDISTANCE('POINT (10 20)', 5.0);
best   = KNN events QUERY 'POINT (10 20)' K 5;
lim    = LIMIT near 3;
DUMP best;
STORE inside INTO 'out/inside.csv';
`
	stmts, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 8 {
		t.Fatalf("stmts = %d", len(stmts))
	}
	if a, ok := stmts[2].(assign); !ok {
		t.Fatal("stmt 2 not assign")
	} else if f, ok := a.Op.(filter); !ok {
		t.Fatal("stmt 2 not filter")
	} else {
		if !f.Pred.HasTime || f.Pred.Begin != 100 || f.Pred.End != 900 {
			t.Errorf("pred = %+v", f.Pred)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	env := testEnv(t, 300)
	out, err := Run(`
events = LOAD 'data/events.csv';
inside = FILTER events BY INTERSECTS('POLYGON ((0 0, 60 0, 60 60, 0 60, 0 0))', 0, 1000);
lim    = LIMIT inside 5;
DUMP lim;
STORE inside INTO 'out/inside.csv';
`, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Dumped) != 5 {
		t.Errorf("dumped %d lines", len(out.Dumped))
	}
	if len(out.Stored) != 1 || out.Stored[0] != "out/inside.csv" {
		t.Errorf("stored = %v", out.Stored)
	}
	// Stored file is readable events CSV.
	events, err := workload.ReadEventsCSV(filepath.Join(env.Root, "out", "inside.csv"))
	if err != nil {
		t.Fatal(err)
	}
	inside := out.Relations["inside"]
	if len(events) != len(inside.cell.rows) {
		t.Errorf("stored %d, relation has %d", len(events), len(inside.cell.rows))
	}
	if len(inside.cell.rows) == 0 || len(inside.cell.rows) == 300 {
		t.Errorf("filter did not select (got %d of 300)", len(inside.cell.rows))
	}
}

// TestPathsStayUnderRoot: a script is outside input, so LOAD and STORE
// reach nothing outside the environment's root. One leading slash is
// dropped; anything that still leaves the root fails with the line
// number and writes nothing.
func TestPathsStayUnderRoot(t *testing.T) {
	env := testEnv(t, 20)
	parent := filepath.Dir(env.Root)
	for _, tc := range []struct{ name, script string }{
		{"store dotdot", "e = LOAD 'data/events.csv';\nSTORE e INTO '../escape.csv';"},
		{"store nested dotdot", "e = LOAD 'data/events.csv';\nSTORE e INTO 'out/../../escape.csv';"},
		{"store absolute", "e = LOAD 'data/events.csv';\nSTORE e INTO '/" + parent + "/escape.csv';"},
		{"load dotdot", "\ne = LOAD '/../x';"},
		{"load empty", "\ne = LOAD '';"},
	} {
		_, err := Run(tc.script, env)
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "root directory") {
			t.Errorf("%s: err = %v, want a line-2 refusal naming the root directory", tc.name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(parent, "escape.csv")); !os.IsNotExist(err) {
		t.Errorf("a refused STORE left %s/escape.csv behind (stat err = %v)", parent, err)
	}
	// A leading slash is the root itself, and STORE replaces.
	for i := 0; i < 2; i++ {
		out, err := Run("e = LOAD '/data/events.csv';\nSTORE e INTO '/out/all.csv';", env)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Stored) != 1 || out.Stored[0] != "/out/all.csv" {
			t.Errorf("stored = %v", out.Stored)
		}
	}
	got, err := workload.ReadEventsCSV(filepath.Join(env.Root, "out", "all.csv"))
	if err != nil || len(got) != 20 {
		t.Errorf("stored file: %d events, err = %v; want 20", len(got), err)
	}
	left, err := os.ReadDir(filepath.Join(env.Root, "out"))
	if err != nil || len(left) != 1 {
		t.Errorf("out/ holds %d entries (err = %v), want the one replaced file", len(left), err)
	}
}

func TestRunSpatioTemporalFilter(t *testing.T) {
	env := testEnv(t, 400)
	out, err := Run(`
events = LOAD 'data/events.csv';
win    = FILTER events BY CONTAINEDBY('POLYGON ((0 0, 100 0, 100 100, 0 100, 0 0))', 0, 500);
`, env)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Relations["win"].cell.rows
	if len(rows) == 0 || len(rows) == 400 {
		t.Fatalf("temporal window selected %d of 400", len(rows))
	}
	for _, kv := range rows {
		if kv.Value.Event.Time > 500 {
			t.Fatalf("event time %d escaped the window", kv.Value.Event.Time)
		}
	}
}

func TestRunPartitionAndIndexPaths(t *testing.T) {
	env := testEnv(t, 500)
	// The same filter through: plain scan, partitioned scan, indexed.
	out, err := Run(`
events = LOAD 'data/events.csv';
a = FILTER events BY WITHINDISTANCE('POINT (50 50)', 20, 0, 1000);
parted = PARTITION events BY GRID 4;
b = FILTER parted BY WITHINDISTANCE('POINT (50 50)', 20, 0, 1000);
indexed = INDEX events ORDER 8;
c = FILTER indexed BY WITHINDISTANCE('POINT (50 50)', 20, 0, 1000);
`, env)
	if err != nil {
		t.Fatal(err)
	}
	na := len(out.Relations["a"].cell.rows)
	nb := len(out.Relations["b"].cell.rows)
	nc := len(out.Relations["c"].cell.rows)
	if na == 0 || na != nb || na != nc {
		t.Errorf("result counts diverge: scan=%d partitioned=%d indexed=%d", na, nb, nc)
	}
}

func TestRunKNN(t *testing.T) {
	env := testEnv(t, 300)
	out, err := Run(`
events = LOAD 'data/events.csv';
best = KNN events QUERY 'POINT (50 50)' K 7;
DUMP best;
`, env)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Relations["best"].cell.rows
	if len(rows) != 7 {
		t.Fatalf("knn returned %d", len(rows))
	}
	// Distances ascend.
	for i := 1; i < len(rows); i++ {
		if rows[i].Value.Distance < rows[i-1].Value.Distance {
			t.Fatal("knn distances not sorted")
		}
	}
}

func TestRunClusterAndGroupCount(t *testing.T) {
	env := testEnv(t, 400)
	out, err := Run(`
events = LOAD 'data/events.csv';
groups = CLUSTER events EPS 5 MINPTS 4;
sizes  = GROUPCOUNT groups BY cluster;
cats   = GROUPCOUNT events BY category;
DUMP sizes;
`, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Relations["sizes"].cell.rows) == 0 {
		t.Error("no cluster groups")
	}
	cats := out.Relations["cats"].cell.rows
	var total int64
	for _, kv := range cats {
		total += kv.Value.Count
	}
	if total != 400 {
		t.Errorf("category counts sum to %d", total)
	}
}

func TestRunJoin(t *testing.T) {
	env := testEnv(t, 150)
	out, err := Run(`
a = LOAD 'data/events.csv';
b = LOAD 'data/events.csv';
j = JOIN a, b ON WITHINDISTANCE 3;
`, env)
	if err != nil {
		t.Fatal(err)
	}
	// Self join within distance: at least the identity pairs.
	if got := len(out.Relations["j"].cell.rows); got < 150 {
		t.Errorf("join rows = %d, want >= 150", got)
	}
}

func TestRunErrors(t *testing.T) {
	env := testEnv(t, 10)
	for _, src := range []string{
		"DUMP nothing;",
		"x = LOAD 'missing.csv';",
		"x = FILTER nothing BY INTERSECTS('POINT (0 0)');",
		"x = LOAD 'data/events.csv'; y = FILTER x BY INTERSECTS('BAD WKT');",
		"x = LOAD 'data/events.csv'; y = CLUSTER x EPS -1 MINPTS 2;",
		"x = LOAD 'data/events.csv'; y = PARTITION x BY GRID 0;",
		"STORE nothing INTO 'x';",
		"x = LOAD 'data/events.csv'; y = KNN x QUERY 'POINT (0 0)' K 0;",
		"x = LOAD 'data/events.csv'; y = JOIN x, nothing ON INTERSECTS;",
	} {
		if _, err := Run(src, env); err == nil {
			t.Errorf("%q: expected execution error", src)
		}
	}
	if _, err := Run("x = LOAD 'data/events.csv';", nil); err == nil {
		t.Error("nil env must fail")
	}
}

func TestRunLimitEdgeCases(t *testing.T) {
	env := testEnv(t, 20)
	out, err := Run(`
events = LOAD 'data/events.csv';
a = LIMIT events 1000;
b = LIMIT events 0;
`, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Relations["a"].cell.rows) != 20 {
		t.Error("over-limit must keep all rows")
	}
	if len(out.Relations["b"].cell.rows) != 0 {
		t.Error("limit 0 must keep nothing")
	}
}
