package bench

import (
	"strings"
	"testing"

	"stark/internal/workload"
)

// Figure 4 is run end-to-end at a small N; the assertions check
// structure and result consistency, not timing.

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
