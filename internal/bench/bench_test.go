package bench

import (
	"strings"
	"testing"

	"stark/internal/workload"
)

// The experiment runners are exercised end-to-end at a small N; the
// assertions check structure and result consistency, not timing.

func smallCfg() Config {
	return Config{N: 3000, Parallelism: 4, Seed: 1, Dist: workload.Skewed}
}

func TestFigure4SmallRun(t *testing.T) {
	rows, err := Figure4(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	// GeoSpark unpartitioned is N/A.
	if !rows[0].NA || rows[0].System != "GeoSpark" {
		t.Errorf("row 0 = %+v", rows[0])
	}
	// All supported runs agree on the result count.
	var want int64 = -1
	for _, r := range rows {
		if r.NA {
			continue
		}
		if want == -1 {
			want = r.Results
		} else if r.Results != want {
			t.Errorf("%s/%s returned %d results, others %d", r.System, r.Partitioner, r.Results, want)
		}
		if r.Seconds <= 0 {
			t.Errorf("%s/%s has non-positive duration", r.System, r.Partitioner)
		}
	}
	if want <= 0 {
		t.Error("no results at all — eps too small for test N")
	}
	text := FormatFigure4(rows)
	if !strings.Contains(text, "N/A") || !strings.Contains(text, "STARK") {
		t.Errorf("format output:\n%s", text)
	}
}

func TestPartitionersAblation(t *testing.T) {
	rows, err := Partitioners(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 partitioners × 2 distributions
		t.Fatalf("rows = %d", len(rows))
	}
	// On skewed data, BSP must balance better than the grid.
	var gridSkew, bspSkew float64
	for _, r := range rows {
		if r.Dist == "skewed" {
			switch r.Name {
			case "grid":
				gridSkew = r.Imbalance
			case "bsp":
				bspSkew = r.Imbalance
			}
		}
	}
	if bspSkew >= gridSkew {
		t.Errorf("BSP imbalance %v should beat grid %v on skewed data", bspSkew, gridSkew)
	}
}

func TestIndexModesAblation(t *testing.T) {
	rows, err := IndexModes(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 3 modes × 4 selectivities
		t.Fatalf("rows = %d", len(rows))
	}
	// All modes agree on result counts per selectivity.
	bySel := map[float64]map[string]int64{}
	for _, r := range rows {
		if bySel[r.Selectivity] == nil {
			bySel[r.Selectivity] = map[string]int64{}
		}
		bySel[r.Selectivity][r.Mode] = r.Results
	}
	for sel, modes := range bySel {
		if modes["none"] != modes["live"] || modes["none"] != modes["persistent"] {
			t.Errorf("selectivity %v: modes disagree: %v", sel, modes)
		}
	}
}

func TestSTFilterAblation(t *testing.T) {
	rows, err := STFilter(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The temporal window must shrink the result set.
	if rows[1].Results >= rows[0].Results {
		t.Errorf("temporal filter %d results >= spatial-only %d", rows[1].Results, rows[0].Results)
	}
	if rows[1].Results == 0 {
		t.Error("temporal filter selected nothing")
	}
}

func TestKNNAblation(t *testing.T) {
	rows, err := KNN(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // 3 strategies × 3 k values
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestDBSCANAblation(t *testing.T) {
	rows, err := DBSCAN(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Clusters != rows[1].Clusters {
		t.Errorf("cluster counts differ: %d vs %d", rows[0].Clusters, rows[1].Clusters)
	}
	if rows[0].Clusters == 0 {
		t.Error("no clusters found on skewed data")
	}
}

func TestJoinPredicatesAblation(t *testing.T) {
	rows, err := JoinPredicates(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Results == 0 {
			t.Errorf("join %s found nothing", r.Predicate)
		}
	}
	// Contains ⊆ intersects for region-contains-point joins.
	if rows[1].Results > rows[0].Results {
		t.Errorf("contains (%d) must not exceed intersects (%d)", rows[1].Results, rows[0].Results)
	}
}

func TestPersistIndexRoundTrip(t *testing.T) {
	build, reload, err := PersistIndexRoundTrip(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if build <= 0 || reload <= 0 {
		t.Errorf("durations: build=%v reload=%v", build, reload)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.N != 100_000 || c.Eps <= 0 {
		t.Errorf("defaults = %+v", c)
	}
	// Explicit eps survives.
	c = Config{Eps: 7}.withDefaults()
	if c.Eps != 7 {
		t.Errorf("eps = %v", c.Eps)
	}
}

func TestJoinStrategiesExperiment(t *testing.T) {
	cfg := smallCfg()
	rows, err := JoinStrategies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 layouts × 2 selectivities × 4 strategies.
	if len(rows) != 24 {
		t.Fatalf("rows = %d, want 24", len(rows))
	}
	// All strategies must agree on the result count within each
	// (layout, selectivity) cell — the bench doubles as a
	// differential check at experiment scale.
	counts := map[string]int64{}
	for _, r := range rows {
		key := r.Layout + "/" + r.Selectivity
		if want, ok := counts[key]; ok {
			if r.Results != want {
				t.Errorf("%s %s: results = %d, other strategies found %d", key, r.Strategy, r.Results, want)
			}
		} else {
			counts[key] = r.Results
		}
		if r.Results == 0 {
			t.Errorf("%s %s: degenerate cell, no results", key, r.Strategy)
		}
		switch r.Strategy {
		case "broadcast":
			if r.Ran != "broadcast" {
				t.Errorf("%s: forced broadcast ran %s", key, r.Ran)
			}
			if r.Tasks >= r.TotalPairs && r.TotalPairs > 1 {
				t.Errorf("%s broadcast: %d tasks not fewer than %d enumerable pairs", key, r.Tasks, r.TotalPairs)
			}
		case "copartition":
			if r.Layout == "none" {
				if r.Ran != "pairs" {
					t.Errorf("%s: copartition without partitioners ran %s", key, r.Ran)
				}
			} else if r.Ran != "copartition" {
				t.Errorf("%s: forced copartition ran %s", key, r.Ran)
			} else if r.Shuffled == 0 {
				t.Errorf("%s copartition: no records shuffled", key)
			}
		case "auto":
			if r.Ran == "auto" {
				t.Errorf("%s: auto did not resolve to a concrete strategy", key)
			}
		}
	}
	if s := FormatJoinStrategies(rows); !strings.Contains(s, "broadcast") {
		t.Errorf("format output missing strategies:\n%s", s)
	}
}
