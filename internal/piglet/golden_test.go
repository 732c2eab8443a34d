package piglet

// Golden-file tests for Piglet → plan compilation: each script runs
// against a deterministic generated dataset and the rendered EXPLAIN
// output must match testdata/<name>.golden byte for byte, so any
// change to the planner's rewrites (predicate order, pruning counts,
// index choice, build side) shows up as a reviewable diff. Regenerate
// with:
//
//	go test ./internal/piglet -run TestExplainGolden -update
import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stark/internal/engine"
	"stark/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestExplainGolden(t *testing.T) {
	cases := []struct {
		name   string
		script string
	}{
		{
			// Two consecutive filters: cross-statement pushdown fuses
			// them into one planned scan with the selective predicate
			// first and stats-pruned partitions.
			name: "filter_only",
			script: `
e = LOAD 'data/events.csv';
small = FILTER e BY INTERSECTS('POLYGON ((10 10, 60 10, 60 60, 10 60, 10 10))', 0, 1000);
tiny = FILTER small BY CONTAINEDBY('POLYGON ((15 15, 35 15, 35 35, 15 35, 15 15))', 100, 900);
EXPLAIN tiny;
`,
		},
		{
			// Filter feeding a join: the planner picks the build side
			// (index the smaller input) from collected statistics.
			name: "filter_join",
			script: `
a = LOAD 'data/events.csv';
b = FILTER a BY INTERSECTS('POLYGON ((0 0, 30 0, 30 30, 0 30, 0 0))', 0, 1000);
j = JOIN a, b ON WITHINDISTANCE 5;
EXPLAIN j;
`,
		},
		{
			// Typed attribute comparisons mixed with a spatial window:
			// the plan renders AttrScan/AttrIndex nodes with estimated
			// selectivities next to the spatial access path.
			name: "filter_attr",
			script: `
e = LOAD 'data/events.csv';
sports = FILTER e BY category == 'sports';
windowed = FILTER sports BY INTERSECTS('POLYGON ((10 10, 60 10, 60 60, 10 60, 10 10))', 0, 1000);
recent = FILTER windowed BY time >= 500;
EXPLAIN recent;
`,
		},
		{
			// A withindistance filter (expensive refinement — the cost
			// model may pick a live index) feeding a kNN.
			name: "knn_withindistance",
			script: `
e = LOAD 'data/events.csv';
near = FILTER e BY WITHINDISTANCE('POINT (50 50)', 25, 0, 1000);
k = KNN near QUERY 'POINT (50 50)' K 5;
EXPLAIN near;
EXPLAIN k;
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := testEnv(t, 300)
			out, err := Run(tc.script, env)
			if err != nil {
				t.Fatal(err)
			}
			got := strings.Join(out.Explained, "\n")
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN drifted from %s\n--- got ---\n%s\n--- want ---\n%s",
					path, got, string(want))
			}
		})
	}
}

// TestExplainUnknownRelation pins the line-number contract of
// planner/compile errors.
func TestExplainUnknownRelation(t *testing.T) {
	env := testEnv(t, 10)
	_, err := Run("e = LOAD 'data/events.csv';\nEXPLAIN nope;", env)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line 2 context", err)
	}
}

// TestFilterErrorLine pins the line number on predicate compilation
// errors.
func TestFilterErrorLine(t *testing.T) {
	env := testEnv(t, 10)
	_, err := Run("e = LOAD 'data/events.csv';\n\nb = FILTER e BY INTERSECTS('NOT WKT');", env)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("err = %v, want line 3 context", err)
	}
}

// TestJoinSwappedKeepsDistance pins the build-side swap: when the
// left input is smaller the planner swaps it onto the build side, and
// a symmetric WITHINDISTANCE predicate must keep its distance (a
// recompile from the bare kind would zero it, shrinking the join to
// self pairs only).
func TestJoinSwappedKeepsDistance(t *testing.T) {
	root := t.TempDir()
	var evs []workload.Event
	for i, x := range []float64{0, 1, 2, 3, 10, 20} {
		evs = append(evs, workload.Event{
			ID: i, Category: "a", Time: 42,
			WKT: fmt.Sprintf("POINT (%g 0)", x),
		})
	}
	if err := workload.WriteEventsCSV(filepath.Join(root, "data", "events.csv"), evs); err != nil {
		t.Fatal(err)
	}
	env := &Env{Ctx: engine.NewContext(2), Root: root, DefaultParallelism: 2}
	out, err := Run(`
e = LOAD 'data/events.csv';
s = LIMIT e 3;
j = JOIN s, e ON WITHINDISTANCE 2.5;
`, env)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Relations["j"].cell.rows
	// s = {0,1,2}; within 2.5 of x=0 → {0,1,2}, of x=1 → {0,1,2,3},
	// of x=2 → {0,1,2,3}: 11 pairs.
	if len(rows) != 11 {
		t.Fatalf("swapped withindistance join returned %d rows, want 11", len(rows))
	}
	// Orientation is as written: the left (s) event leads each pair.
	for _, kv := range rows {
		if kv.Value.Event.ID > 2 {
			t.Errorf("row oriented wrong after swap-back: %+v", kv.Value)
		}
	}
}
