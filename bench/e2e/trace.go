package main

// The traced pass: a separate pass after the timed window that sends
// the next operations of the sequence with "trace": true and records,
// from the benchmark's own side of each boundary, the spans
//
//	client.op ⊃ server.handler ⊃ {stark.join, stark.plan, stark.stream}
//
// client.op is timed at the client, server.handler by the wrapper
// around Server.ServeHTTP, and the stark.* phases come from the trace
// object of the reply's summary line. That object carries durations
// only, so the phases are laid end to end against the handler's end,
// where the stream finishes. A join runs while its chain resolves,
// before the phase the trailer calls "plan": stark.join is the
// handler's time before that phase and includes the request decode.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// span is one timed interval of the traced pass. Start and End are
// nanoseconds since the pass began; Parent is the ID of the enclosing
// span, 0 for a client.op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracedPass runs w.traced operations untraced, then as many traced.
// The untraced pass carries the same
// operation ids to the handler wrapper, so the two differ only in the
// trace flag.
func (r *runner) tracedPass() {
	c := r.client
	n := r.w.traced
	var plain, ingest, query []float64
	for i := 0; i < n; i++ {
		seq := r.nextSeq()
		id := strconv.FormatInt(seq, 10)
		_, t, err := r.issue(c, seq, false, id)
		if err != nil {
			r.res.problem("untraced operation %d: %v", seq, err)
			continue
		}
		c.svc.takeMark(id + "/query")
		c.svc.takeMark(id + "/ingest")
		plain = append(plain, ms(t.total))
		ingest = append(ingest, ms(t.ingest))
		query = append(query, ms(t.query))
	}

	origin := time.Now()
	at := func(t time.Time) int64 { return int64(t.Sub(origin)) }
	var spans []span
	add := func(parent int, op int64, name string, start, end int64) int {
		spans = append(spans, span{ID: len(spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: end})
		return len(spans)
	}
	layers := map[string][]float64{}
	var traced []float64
	for i := 0; i < n; i++ {
		seq := r.nextSeq()
		id := strconv.FormatInt(seq, 10)
		start := time.Now()
		rep, t, err := r.issue(c, seq, true, id)
		end := time.Now()
		if err != nil {
			r.res.problem("traced operation %d: %v", seq, err)
			continue
		}
		if rep.sum.Trace == nil {
			r.res.problem("traced operation %d: summary carries no trace", seq)
			continue
		}
		traced = append(traced, ms(t.total))
		root := add(0, seq, "client.op", at(start), at(end))
		var handlers, children time.Duration
		if m, ok := c.svc.takeMark(id + "/ingest"); ok {
			add(root, seq, "server.handler", at(m[0]), at(m[1]))
			handlers += m[1].Sub(m[0])
		}
		m, ok := c.svc.takeMark(id + "/query")
		if !ok {
			r.res.problem("traced operation %d: handler recorded no interval", seq)
			continue
		}
		h := add(root, seq, "server.handler", at(m[0]), at(m[1]))
		handlers += m[1].Sub(m[0])
		// Lay the trailer's phases end to end against the handler's end.
		cursor := at(m[1])
		phase := func(name string, d time.Duration) {
			from := max(cursor-int64(d), at(m[0]))
			add(h, seq, name, from, cursor)
			layers[name+"_ms"] = append(layers[name+"_ms"], ms(time.Duration(cursor-from)))
			children += time.Duration(cursor - from)
			cursor = from
		}
		phase("stark.stream", rep.sum.Trace.phase("stream"))
		phase("stark.plan", rep.sum.Trace.phase("plan"))
		if rep.sum.Strategy != "" {
			phase("stark.join", time.Duration(cursor-at(m[0])))
		}
		layers["server.handler_ms"] = append(layers["server.handler_ms"], ms(handlers))
		layers["server.wire_ms"] = append(layers["server.wire_ms"], ms(t.total-handlers))
		layers["server.self_ms"] = append(layers["server.self_ms"], ms(handlers-children))
	}

	v := r.res.values
	for name, xs := range layers {
		v[name] = median(xs)
	}
	if r.pool[0].batch != nil {
		v["op.ingest_ms"] = median(ingest)
		v["op.query_ms"] = median(query)
	}
	if len(plain) > 0 && len(traced) > 0 {
		v["trace.overhead_pct"] = (median(traced)/median(plain) - 1) * 100
	}
	r.res.spans = spans
	if err := checkNesting(spans); err != nil {
		r.res.problem("spans: %v", err)
	}
	file := filepath.Join(r.cfg.dir, fmt.Sprintf("%s-seed%d.spans.json", r.cfg.workload, r.cfg.seed))
	if err := writeSpans(file, spans); err != nil {
		r.res.problem("writing spans: %v", err)
		return
	}
	r.logf("traced pass: %d operations, %d spans written to %s", len(traced), len(spans), file)
}

// checkNesting verifies that every child span lies inside its parent.
func checkNesting(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("%s of operation %d ends before it starts", s.Name, s.Op)
		}
		if s.Parent == 0 {
			continue
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("%s [%d, %d] of operation %d leaves its parent %s [%d, %d]",
				s.Name, s.Start, s.End, s.Op, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// selfTimes returns each span name's total self time: its duration
// minus the part its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	covered := make(map[int]time.Duration)
	for _, s := range spans {
		covered[s.Parent] += s.dur()
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += s.dur() - covered[s.ID]
	}
	return self
}

// writeSpans writes the spans, held in memory until now, one JSON
// object per line, followed by each name's share of the self time.
func writeSpans(file string, spans []span) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := enc.Encode(map[string]any{"self_of": name, "self_ms": ms(self[name])}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
