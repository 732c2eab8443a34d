package main

// Calibration: how slow the box's memory is while a run measures.
//
// The reference box is a guest on a shared host. Its neighbours contend
// for the last-level cache, and each process draws its own physical
// pages, so the same binary on the same inputs runs up to 30 % slower
// in one process than in the next (read_selective: mean operation
// 1.23 ms to 1.65 ms over ten runs) and every workload drifts together
// over minutes. A dependent-load walk over 4 MB, a working set beyond
// L2 and within the cache share the neighbours fight over, slows down
// with the service (r = 0.87 across those ten runs), where a
// register-only spin loop and a sequential scan do not. So the run
// interleaves that walk with its operations and reports its times as
// the reference box would show them while quiet: measured time divided
// by (median walk time / nominal walk time). That halved the spread of
// ten runs on every benchmarked workload (read_scan: 10-11 % to 6-8 %);
// join_filtered, which the walk does not track, kept its 3-5 %. The
// walk touches nothing of the repository, so no change to the service
// can move it; bench/README.md, "Noise", has the measurements.

import (
	"math/rand"
	"time"
)

const (
	walkEntries = 1 << 20 // uint32 each: 4 MB
	walkSteps   = 40_000  // per sample, about 5 ms
	// nominalWalkMS is a sample's time on the quiet reference box. It
	// only fixes the scale of the reported times.
	nominalWalkMS = 4.7
	// sampleEvery spaces the samples inside the window: under 2 % of
	// the window goes to them.
	sampleEvery = 250 * time.Millisecond
)

// calibrator walks one fixed random cycle through its table and keeps
// every sample's time.
type calibrator struct {
	next    []uint32 // next[i] follows i on the cycle
	at      uint32
	samples []float64 // ms
	spent   time.Duration
}

// newCalibrator builds the cycle from a fixed seed: every run walks
// the same cycle.
func newCalibrator() *calibrator {
	order := rand.New(rand.NewSource(1)).Perm(walkEntries)
	next := make([]uint32, walkEntries)
	for i, v := range order {
		next[v] = uint32(order[(i+1)%walkEntries])
	}
	return &calibrator{next: next}
}

// sample walks walkSteps dependent loads on from where the last sample
// stopped and records the time.
func (c *calibrator) sample() {
	start := time.Now()
	at := c.at
	for i := 0; i < walkSteps; i++ {
		at = c.next[at]
	}
	c.at = at
	took := time.Since(start)
	c.samples = append(c.samples, ms(took))
	c.spent += took
}

// slowdown is the median of the samples from index from on, as a
// multiple of the nominal time: 1.1 means the box ran 10 % slower than
// the quiet reference box.
func (c *calibrator) slowdown(from int) float64 {
	if from >= len(c.samples) {
		return 1
	}
	return median(c.samples[from:]) / nominalWalkMS
}
