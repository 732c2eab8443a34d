package main

// The service under test and the client that drives it: the handler
// cmd/starkd mounts, served over real HTTP/1.1 on a loopback TCP
// listener inside this process (no spawn, no readiness polling), and a
// keep-alive client that checks every reply it reads.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"stark"
	"stark/internal/server"
)

// opHeader carries the traced pass's operation id to the handler
// wrapper; requests of the timed window do not set it.
const opHeader = "X-Bench-Op"

// service is one booted query service.
type service struct {
	srv  *server.Server
	http *http.Server
	done chan struct{} // closed when Serve has returned
	base string
	dir  string // durability directory, "" when not durable
	tr   *http.Transport

	// marks holds the handler's start and end per traced request. The
	// wrapper stores a mark before the reply completes, so the client
	// finds it once it has read the body.
	mu    sync.Mutex
	marks map[string][2]time.Time
}

// ServeHTTP wraps Server.ServeHTTP: a request that names an operation
// has its handler time recorded, any other passes straight through.
func (s *service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(opHeader)
	if id == "" {
		s.srv.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	s.srv.ServeHTTP(w, r)
	end := time.Now()
	s.mu.Lock()
	s.marks[id] = [2]time.Time{start, end}
	s.mu.Unlock()
}

// takeMark returns and forgets the handler interval of a traced
// request.
func (s *service) takeMark(id string) ([2]time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.marks[id]
	delete(s.marks, id)
	return m, ok
}

// boot is one full set-up: start the service (default options, discard
// logger, durability when the workload asks for it), register the
// workload's datasets over POST /api/datasets and probe each with one
// query. registerS is the registration share of the returned service's
// boot time.
func boot(w spec, dir string) (*service, float64, error) {
	ctx := stark.NewContext(2)
	svc := &service{
		srv:   server.NewService(ctx, server.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}),
		done:  make(chan struct{}),
		marks: make(map[string][2]time.Time),
		tr:    &http.Transport{MaxIdleConnsPerHost: 8},
	}
	if w.durable {
		// Interval 0: no ticker. Checkpoints are triggered by operation
		// count, so every run takes the same number of them.
		if _, err := svc.srv.EnableDurability(dir, 0); err != nil {
			return nil, 0, err
		}
		svc.dir = dir
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	svc.base = "http://" + ln.Addr().String()
	svc.http = &http.Server{Handler: svc, ErrorLog: log.New(io.Discard, "", 0)}
	go func() {
		defer close(svc.done)
		_ = svc.http.Serve(ln) // returns ErrServerClosed on close
	}()
	fail := func(err error) (*service, float64, error) {
		svc.close()
		return nil, 0, err
	}

	c := svc.client()
	start := time.Now()
	for _, d := range w.datasets {
		body, err := json.Marshal(d.spec())
		if err != nil {
			return fail(err)
		}
		if err := c.post("/api/datasets", body, ""); err != nil {
			return fail(fmt.Errorf("registering %s: %w", d.name, err))
		}
	}
	registerS := time.Since(start).Seconds()
	for _, d := range w.datasets {
		probe := op{head: queryHead(d.name, rect{0, 0, 1, 1}, "", ""), end: d.timeRange}
		if _, err := c.query(&probe, 0, false, ""); err != nil {
			return fail(fmt.Errorf("probing %s: %w", d.name, err))
		}
	}
	return svc, registerS, nil
}

// close stops the listener and its connections and waits for Serve to
// return. The WAL of a durable service is left as a crash would leave
// it; its directory is removed.
func (s *service) close() {
	_ = s.http.Close()
	<-s.done
	s.tr.CloseIdleConnections()
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

// client is one closed-loop caller: it sends its next request only
// after it has read the previous reply. Not safe for concurrent use.
type client struct {
	svc  *service
	http *http.Client
	req  []byte
	buf  bytes.Buffer
	gen  uint64 // generation of the last acknowledged ingest batch
}

func (s *service) client() *client {
	return &client{svc: s, http: &http.Client{Transport: s.tr}}
}

// post sends body and reads the whole reply into c.buf, failing on
// any status but 200.
func (c *client) post(path string, body []byte, opID string) error {
	req, err := http.NewRequest(http.MethodPost, c.svc.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if opID != "" {
		req.Header.Set(opHeader, opID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %.200s", path, resp.StatusCode, c.buf.Bytes())
	}
	return nil
}

// traceNode mirrors the "trace" object of a summary line.
type traceNode struct {
	Op       string       `json:"op"`
	WallNS   int64        `json:"wall_ns"`
	Children []*traceNode `json:"children"`
}

// phase returns the wall time of the named top-level phase.
func (t *traceNode) phase(name string) time.Duration {
	if t == nil {
		return 0
	}
	for _, c := range t.Children {
		if c.Op == name {
			return time.Duration(c.WallNS)
		}
	}
	return 0
}

// summary mirrors the trailing line of an NDJSON reply.
type summary struct {
	Count    int64      `json:"count"`
	Strategy string     `json:"strategy"` // join replies only
	Trace    *traceNode `json:"trace"`
}

// reply is one checked NDJSON reply. rows aliases the client's buffer
// and is valid until its next request.
type reply struct {
	rows  []byte // the feature lines, newline-terminated
	count int64
	bytes int
	sum   summary
}

// query issues the op's query and checks the reply: status 200, a
// summary line, and a summary count equal to the rows streamed.
func (c *client) query(o *op, cycle int64, traced bool, opID string) (reply, error) {
	c.req = o.body(c.req, cycle, traced)
	if err := c.post("/api/v1/query", c.req, opID); err != nil {
		return reply{}, err
	}
	b := c.buf.Bytes()
	if len(b) == 0 || b[len(b)-1] != '\n' {
		return reply{}, errors.New("query: reply does not end in a newline")
	}
	cut := bytes.LastIndexByte(b[:len(b)-1], '\n') + 1
	var last struct {
		Summary *summary `json:"summary"`
	}
	if err := json.Unmarshal(b[cut:], &last); err != nil || last.Summary == nil {
		return reply{}, fmt.Errorf("query: no summary line (%.120s)", b[cut:])
	}
	r := reply{rows: b[:cut], bytes: len(b), sum: *last.Summary}
	r.count = int64(bytes.Count(r.rows, []byte{'\n'}))
	if r.count != r.sum.Count {
		return reply{}, fmt.Errorf("query: summary count %d, %d rows streamed", r.sum.Count, r.count)
	}
	return r, nil
}

// ingestAck mirrors the reply of POST /api/v1/ingest.
type ingestAck struct {
	Generation uint64 `json:"generation"`
	Inserted   int    `json:"inserted"`
	Replaced   int    `json:"replaced"`
	Count      int64  `json:"count"`
}

// ingest posts the op's batch and checks the acknowledgement: every
// operation applied, exactly one new generation, dataset size
// unchanged.
func (c *client) ingest(o *op, dataset string, size int, opID string) error {
	if err := c.post("/api/v1/ingest?dataset="+dataset, o.batch, opID); err != nil {
		return err
	}
	var ack ingestAck
	if err := json.Unmarshal(c.buf.Bytes(), &ack); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if ack.Inserted+ack.Replaced != batchOps {
		return fmt.Errorf("ingest: %d of %d operations applied", ack.Inserted+ack.Replaced, batchOps)
	}
	if c.gen != 0 && ack.Generation != c.gen+1 {
		return fmt.Errorf("ingest: generation %d after %d", ack.Generation, c.gen)
	}
	if ack.Count != int64(size) {
		return fmt.Errorf("ingest: dataset holds %d records, want %d", ack.Count, size)
	}
	c.gen = ack.Generation
	return nil
}

// hasRecord reports whether the reply holds the op's first upserted
// record at its new position.
func (r reply) hasRecord(o *op) bool {
	needle := fmt.Appendf(nil, `"id":%d,"time":`, o.id)
	at := bytes.Index(r.rows, needle)
	if at < 0 {
		return false
	}
	from := bytes.LastIndexByte(r.rows[:at], '\n') + 1
	to := at + bytes.IndexByte(r.rows[at:], '\n')
	return bytes.Contains(r.rows[from:to], o.xy)
}

// opTimes splits one operation's client time.
type opTimes struct {
	total, ingest, query time.Duration
}

// do runs one pool operation as a caller would: the ingest batch when
// the op has one, then the query, each after the previous reply. opID,
// when set, names the operation to the handler wrapper.
func (c *client) do(w spec, o *op, cycle int64, traced bool, opID string) (reply, opTimes, error) {
	var t opTimes
	start := time.Now()
	ingestID, queryID := "", opID
	if opID != "" {
		ingestID, queryID = opID+"/ingest", opID+"/query"
	}
	if o.batch != nil {
		if err := c.ingest(o, w.datasets[0].name, w.datasets[0].n, ingestID); err != nil {
			return reply{}, t, err
		}
		t.ingest = time.Since(start)
	}
	r, err := c.query(o, cycle, traced, queryID)
	if err != nil {
		return reply{}, t, err
	}
	t.total = time.Since(start)
	t.query = t.total - t.ingest
	if o.batch != nil && !r.hasRecord(o) {
		return reply{}, t, fmt.Errorf("query after ingest: record %d not at its new position", o.id)
	}
	return r, t, nil
}

// runDir returns a fresh directory for one set-up's durable state.
func runDir(root, name string, attempt int) (string, error) {
	dir := filepath.Join(root, fmt.Sprintf("%s-%d-%d", name, os.Getpid(), attempt))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
