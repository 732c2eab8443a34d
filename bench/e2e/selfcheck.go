package main

// -selfcheck k: the benchmark's own noise test. Every workload runs 2k
// times, each run a fresh process with its own seed, assigned
// alternately to set A and set B so that drift of the machine hits
// both alike. The two sets run identical code, so their medians should
// agree, and the runs should not spread (interquartile range over
// median) wider than the bound; otherwise the bound cannot tell a
// regression from noise.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSelfcheck reports whether every end-to-end metric of every
// workload agrees between the two sets, and spreads over all runs,
// within its bound.
func runSelfcheck(out io.Writer, k int, cfg config) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok := true
	for _, name := range workloadNames() {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*k; i++ {
			args := []string{
				"-workload", name, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			}
			if cfg.dir != "" {
				args = append(args, "-dir", cfg.dir)
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output() // waits for the process to end
			if err != nil {
				return false, fmt.Errorf("%s run %d: %w", name, i, err)
			}
			line, err := lastLine(stdout)
			if err != nil {
				return false, fmt.Errorf("%s run %d: %w", name, i, err)
			}
			if !line.Correct || line.Failed > 0 {
				return false, fmt.Errorf("%s run %d: incorrect, or %d of %d operations failed", name, i, line.Failed, line.Attempted)
			}
			for metric, r := range line.Metrics {
				sets[i%2][metric] = append(sets[i%2][metric], r.Value)
			}
			fmt.Fprintf(out, "%s run %d/%d done\n", name, i+1, 2*k)
		}
		for _, m := range endToEnd {
			a, b := median(sets[0][m.name]), median(sets[1][m.name])
			diff := math.Abs(a-b) / math.Min(a, b)
			all := spread(append(append([]float64(nil), sets[0][m.name]...), sets[1][m.name]...))
			verdict := "ok"
			// Set-up time is a median already; only its medians must agree.
			if diff > m.bound || (all > m.bound && m.name != "setup_s") {
				verdict = "EXCEEDS BOUND"
				ok = false
			}
			fmt.Fprintf(out, "%-18s %-14s A %12.4f  B %12.4f %-4s diff %5.2f %%  spread of all %d runs %5.2f %%  bound %2.0f %%  %s\n",
				name, m.name, a, b, m.unit, diff*100, 2*k, all*100, m.bound*100, verdict)
		}
	}
	return ok, nil
}

// spread is the distance between the first and third quartile as a
// share of the median, with quartiles as Python's
// statistics.quantiles(xs, n=4) places them.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (at(3) - at(1)) / median(s)
}

// lastLine decodes the result line a run prints last.
func lastLine(stdout []byte) (resultLine, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var line resultLine
	if err := json.Unmarshal(last, &line); err != nil {
		return line, fmt.Errorf("no result line: %w", err)
	}
	return line, nil
}
