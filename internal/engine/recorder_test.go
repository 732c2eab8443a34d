package engine

import (
	"regexp"
	"testing"
)

// TestCounterTable: every counter below NumCounters has a distinct,
// non-empty snake_case name, and Add, Sub and CounterMap carry every
// one of them. A counter appended without a name fails here.
func TestCounterTable(t *testing.T) {
	snake := regexp.MustCompile(`^[a-z]+(_[a-z]+)*$`)
	seen := make(map[string]Counter)
	var a, b MetricsSnapshot
	for c := range NumCounters {
		name := c.String()
		if !snake.MatchString(name) {
			t.Errorf("counter %d is named %q, want a non-empty snake_case name", int(c), name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("counters %d and %d are both named %q", int(prev), int(c), name)
		}
		seen[name] = c
		a[c] = int64(c) + 1
		b[c] = 100 * (int64(c) + 1)
	}
	sum, diff, m := a.Add(b), b.Sub(a), a.CounterMap()
	if len(m) != int(NumCounters) {
		t.Errorf("CounterMap has %d entries, want %d", len(m), NumCounters)
	}
	for c := range NumCounters {
		k := int64(c) + 1
		if sum[c] != 101*k || diff[c] != 99*k || m[c.String()] != k {
			t.Errorf("%s: Add %d, Sub %d, CounterMap %d; want %d, %d, %d",
				c, sum[c], diff[c], m[c.String()], 101*k, 99*k, k)
		}
	}
	if m := (MetricsSnapshot{}).CounterMap(); m != nil {
		t.Errorf("CounterMap of a zero snapshot = %v, want nil", m)
	}
}

// TestRecorderChargesJobAndContext: a job recorder's charge lands in
// its own snapshot and in the context totals; a root charge lands in
// the totals only.
func TestRecorderChargesJobAndContext(t *testing.T) {
	ctx := NewContext(1)
	job := ctx.NewJobRecorder()
	for c := range NumCounters {
		job.Add(c, int64(c)+1)
		ctx.Recorder().Add(c, 10)
	}
	own, totals := job.Snapshot(), ctx.Recorder().Snapshot()
	for c := range NumCounters {
		if own[c] != int64(c)+1 || totals[c] != int64(c)+11 {
			t.Errorf("%s: job %d, context %d; want %d, %d", c, own[c], totals[c], int64(c)+1, int64(c)+11)
		}
	}
}
