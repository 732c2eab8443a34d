package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"testing"
)

// smokeScale is the primary dataset size of the smoke runs.
const smokeScale = 2000

// TestSmoke runs every workload end to end at a small scale with the
// traced pass on: the oracles must pass, no operation may fail, every
// metric of both sets must print by name with its unit, and the spans
// must nest.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := run(config{workload: name, seed: 1, seconds: 1, trace: true, dir: t.TempDir(), scale: smokeScale})
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", res.correct(), res.attempted, res.failed, res.problems)
			}
			for _, set := range [][]metric{endToEnd, perLayer} {
				var out bytes.Buffer
				if err := report(&out, res, set); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				for i, m := range set {
					if f := strings.Fields(lines[i]); len(f) != 3 || f[0] != m.name || f[2] != m.unit {
						t.Errorf("line %d = %q, want metric %s in %s", i, lines[i], m.name, m.unit)
					}
					if got, ok := last.Metrics[m.name]; !ok || got.Unit != m.unit {
						t.Errorf("result object lacks %s in %s", m.name, m.unit)
					}
				}
			}
			for _, m := range endToEnd {
				// The heap reading is the whole process's, and the
				// subtests share it while they run in parallel.
				if m.name == "setup_heap_mb" {
					continue
				}
				if res.values[m.name] <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, res.values[m.name])
				}
			}
			if len(res.spans) == 0 {
				t.Fatal("traced pass recorded no spans")
			}
			if err := checkNesting(res.spans); err != nil {
				t.Error(err)
			}
		})
	}
}

func poolHash(pool []op) uint64 {
	h := fnv.New64a()
	for i := range pool {
		h.Write(pool[i].body(nil, 0, false))
		h.Write(pool[i].batch)
	}
	return h.Sum64()
}

// TestPoolDeterminism: the seed decides the pool and nothing else.
func TestPoolDeterminism(t *testing.T) {
	for name, w := range scaled(smokeScale) {
		tabs1, pool1 := buildPool(w, 1)
		tabs1b, pool1b := buildPool(w, 1)
		tabs2, pool2 := buildPool(w, 2)
		if poolHash(pool1) != poolHash(pool1b) {
			t.Errorf("%s: the same seed built two different pools", name)
		}
		if poolHash(pool1) == poolHash(pool2) {
			t.Errorf("%s: seeds 1 and 2 built the same pool", name)
		}
		if !reflect.DeepEqual(tabs1, tabs1b) || !reflect.DeepEqual(tabs1, tabs2) {
			t.Errorf("%s: the datasets depend on the pool seed", name)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metric tables and the
// benchmarked workloads of this package.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, benchmarked) {
		t.Errorf("workloads = %v, want %v", names, benchmarked)
	}
	for _, name := range benchmarked {
		if _, ok := workloads[name]; !ok {
			t.Errorf("benchmarked workload %s is not defined", name)
		}
	}
	check := func(kind string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
