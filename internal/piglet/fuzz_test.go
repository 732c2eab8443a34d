package piglet

// FuzzParse drives the Piglet lexer and parser with arbitrary
// scripts, seeded from the statements the golden-file tests exercise.
// The contract under fuzzing: never panic, never loop, and be
// deterministic — the same input yields the same statements or the
// same error. Accepted scripts must also re-parse (parsing is stable,
// not one-shot lucky).

import (
	"testing"
)

func FuzzParse(f *testing.F) {
	// Seeds: the golden-file scripts plus every statement form and a
	// few near-miss syntax errors.
	seeds := []string{
		`e = LOAD 'data/events.csv';
small = FILTER e BY INTERSECTS('POLYGON ((10 10, 60 10, 60 60, 10 60, 10 10))', 0, 1000);
tiny = FILTER small BY CONTAINEDBY('POLYGON ((15 15, 35 15, 35 35, 15 35, 15 15))', 100, 900);
EXPLAIN tiny;
`,
		`a = LOAD 'data/events.csv';
b = FILTER a BY INTERSECTS('POLYGON ((0 0, 30 0, 30 30, 0 30, 0 0))', 0, 1000);
j = JOIN a, b ON WITHINDISTANCE 5;
EXPLAIN j;
`,
		`e = LOAD 'data/events.csv';
near = FILTER e BY WITHINDISTANCE('POINT (50 50)', 25, 0, 1000);
k = KNN near QUERY 'POINT (50 50)' K 5;
EXPLAIN near;
EXPLAIN k;
`,
		"DUMP x;",
		"STORE x INTO 'out.csv';",
		"g = GROUP e BY category;",
		"x = FILTER e BY CONTAINS('POINT (1 2)');",
		"x = FILTER e BY COVEREDBY('POINT (1 2)', 3, 4);",
		"-- comment\ne = LOAD 'f';",
		"e = LOAD",
		"= FILTER x BY",
		"x = FILTER e BY INTERSECTS('POLYGON ((0 0))'",
		"💥 = LOAD '☃';",
		"x = KNN e QUERY 'POINT (0 0)' K -1;",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := parse(src)
		if err != nil {
			// Errors must be deterministic.
			if _, err2 := parse(src); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("nondeterministic parse error: %v vs %v", err, err2)
			}
			return
		}
		// Accepted input parses identically a second time.
		again, err := parse(src)
		if err != nil {
			t.Fatalf("accepted input failed to re-parse: %v", err)
		}
		if len(again) != len(stmts) {
			t.Fatalf("re-parse produced %d statements, first pass %d", len(again), len(stmts))
		}
	})
}
