package server

// HTTP ingestion for mutable catalog datasets:
//
//	POST   /api/v1/ingest?dataset=name          NDJSON mutation batch
//	DELETE /api/v1/datasets/{name}/records/{id} delete one record
//
// The ingest body is NDJSON, one mutation per line:
//
//	{"op":"insert","id":1,"category":"taxi","time":42,"wkt":"POINT (3 4)"}
//	{"op":"upsert","id":1,"category":"taxi","time":43,"wkt":"POINT (5 6)"}
//	{"op":"delete","id":1}
//
// op defaults to upsert. A plain line like these (see scanMutation) is
// scanned by hand; encoding/json decodes every other line, a malformed
// one included, and the two agree on every answer and error text. The
// whole request is ONE atomic batch: it either publishes one new
// generation with every line applied, or — on the first malformed line,
// or any batch-level violation (duplicate IDs, insert of a live ID) —
// rejects with HTTP 400 and changes nothing. Batches pass through the
// same admission gate as queries, so a burst of writers cannot starve
// readers of engine slots.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"stark"
	"stark/internal/workload"
)

const (
	// maxIngestLineBytes bounds one NDJSON mutation line.
	maxIngestLineBytes = 1 << 20
	// maxIngestBatchOps bounds the operations of one request. One
	// request is one atomic batch — one writer-lock hold, one
	// generation — so an unbounded request could stall the dataset's
	// writer arbitrarily long.
	maxIngestBatchOps = 100_000
)

// mutationLine is the wire form of one ingest operation.
type mutationLine struct {
	Op       string `json:"op"`
	ID       *int64 `json:"id"`
	Category string `json:"category"`
	Time     int64  `json:"time"`
	WKT      string `json:"wkt"`
}

// decodeMutation parses one NDJSON line into a live mutation op. It
// is the ingest decoder's trust boundary — everything after it deals
// in validated ops — and the fuzz target FuzzDecodeMutation holds it
// to: never panic, never emit an op with an empty geometry unless the
// op is a delete, never accept a line that holds anything after its
// one JSON value (a second mutation there would be dropped while the
// batch answers 200), and answer as decodeMutationJSON does.
func decodeMutation(line []byte) (stark.LiveOp[eventValue], error) {
	if m, ok := scanMutation(line); ok {
		return m.toOp()
	}
	return decodeMutationJSON(line)
}

// decodeMutationJSON decodes a line with encoding/json: the reference
// scanMutation is held to, and the decoder of every line it declines.
func decodeMutationJSON(line []byte) (stark.LiveOp[eventValue], error) {
	var zero stark.LiveOp[eventValue]
	var m mutationLine
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return zero, fmt.Errorf("bad JSON: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return zero, errors.New("trailing data")
	}
	return m.toOp()
}

// scanMutation decodes a plain line without reflection: one JSON object
// whose keys are distinct, exact-case names out of op, id, category,
// time and wkt, whose strings are printable ASCII with no escapes, whose
// id and time are integers that fit int64 with no fraction, exponent or
// leading zero, with only JSON whitespace around its tokens. ok is false
// for every other line.
func scanMutation(line []byte) (m mutationLine, ok bool) {
	sc := lineScanner{b: line}
	if !sc.next('{') {
		return m, false
	}
	for seen := uint8(0); !sc.next('}'); {
		if seen != 0 && !sc.next(',') {
			return m, false
		}
		key, _ := sc.str() // a bad key is nil and matches no case below
		colon := sc.next(':')
		var bit uint8
		switch string(key) {
		case "op":
			bit, ok = 1, sc.text(&m.Op)
		case "id":
			m.ID = new(int64)
			bit, ok = 2, sc.int(m.ID)
		case "category":
			bit, ok = 4, sc.text(&m.Category)
		case "time":
			bit, ok = 8, sc.int(&m.Time)
		case "wkt":
			bit, ok = 16, sc.text(&m.WKT)
		}
		if !colon || bit == 0 || !ok || seen&bit != 0 {
			return m, false
		}
		seen |= bit
	}
	return m, len(bytes.TrimLeft(sc.b[sc.i:], " \t\n\r")) == 0
}

// lineScanner reads the tokens of a plain line (see scanMutation).
type lineScanner struct {
	b []byte
	i int
}

// next consumes c, after JSON whitespace, if it comes next.
func (sc *lineScanner) next(c byte) bool {
	for sc.i < len(sc.b) && (sc.b[sc.i] == ' ' || sc.b[sc.i] == '\t' || sc.b[sc.i] == '\n' || sc.b[sc.i] == '\r') {
		sc.i++
	}
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// str consumes a string of printable ASCII without escapes and returns
// its bytes between the quotes.
func (sc *lineScanner) str() ([]byte, bool) {
	if !sc.next('"') {
		return nil, false
	}
	s := sc.b[sc.i:]
	n := bytes.IndexByte(s, '"')
	if n < 0 {
		return nil, false
	}
	for _, c := range s[:n] {
		if c < ' ' || c > '~' || c == '\\' {
			return nil, false
		}
	}
	sc.i += n + 1
	return s[:n], true
}

func (sc *lineScanner) text(dst *string) bool {
	s, ok := sc.str()
	*dst = string(s)
	return ok
}

// int consumes an integer that fits int64, with no leading zero; a
// fraction or an exponent after it fails the next token.
func (sc *lineScanner) int(dst *int64) bool {
	neg := sc.next('-')
	start := sc.i
	for sc.i < len(sc.b) && sc.b[sc.i]-'0' <= 9 {
		sc.i++
	}
	if sc.i-start > 1 && sc.b[start] == '0' {
		return false
	}
	if neg {
		start--
	}
	v, err := strconv.ParseInt(string(sc.b[start:sc.i]), 10, 64)
	*dst = v
	return err == nil
}

// toOp validates a decoded mutation line and lifts it to a live op —
// shared between the HTTP ingest decoder and WAL batch replay (which
// logs batches as []mutationLine).
func (m mutationLine) toOp() (stark.LiveOp[eventValue], error) {
	var zero stark.LiveOp[eventValue]
	if m.ID == nil {
		return zero, errors.New("missing id")
	}
	switch strings.ToLower(m.Op) {
	case "delete":
		if m.WKT != "" || m.Category != "" || m.Time != 0 {
			return zero, errors.New("delete takes only id")
		}
		return stark.LiveDelete[eventValue](*m.ID), nil
	case "insert", "upsert", "":
	default:
		return zero, fmt.Errorf("unknown op %q (want insert, upsert or delete)", m.Op)
	}
	row, err := catalogRow(workload.Event{ID: int(*m.ID), Category: m.Category, Time: m.Time, WKT: m.WKT})
	if err != nil {
		return zero, fmt.Errorf("bad wkt: %v", err)
	}
	if strings.EqualFold(m.Op, "insert") {
		return stark.LiveInsert(*m.ID, row.Key, row.Value), nil
	}
	return stark.LiveUpsert(*m.ID, row.Key, row.Value), nil
}

// keyWKT is key.Geo().WKT() without boxing a point key.
func keyWKT(key stark.STObject) string {
	if p, ok := key.Point(); ok {
		return p.WKT()
	}
	return key.Geo().WKT()
}

// mutableEntry resolves a dataset name to its catalog entry and
// insists it is mutable, writing the HTTP error otherwise.
func (s *Server) mutableEntry(w http.ResponseWriter, name string) (*catalogEntry, bool) {
	entry, ok := s.resolveDataset(w, name)
	if !ok {
		return nil, false
	}
	if entry.mds == nil {
		httpError(w, http.StatusConflict,
			"dataset %q is immutable (register with \"mutable\": true to ingest)", entry.spec.Name)
		return nil, false
	}
	return entry, true
}

// handleIngest applies one NDJSON mutation batch to a mutable catalog
// dataset and reports what the batch did plus the generation it
// published. Queries running concurrently keep reading their pinned
// snapshots; queries issued after the response see the new generation
// — and, because plan fingerprints embed it, never a stale cache
// entry.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.mutableEntry(w, r.URL.Query().Get("dataset"))
	if !ok {
		return
	}
	if !s.acquireAdmission(w, r) {
		return
	}
	defer s.adm.Release()

	sc := bufio.NewScanner(r.Body)
	sc.Buffer(nil, maxIngestLineBytes)
	var ops []stark.LiveOp[eventValue]
	lineNo := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		lineNo++
		if len(line) == 0 {
			continue
		}
		if len(ops) == maxIngestBatchOps {
			httpError(w, http.StatusRequestEntityTooLarge,
				"batch exceeds %d operations; split the request", maxIngestBatchOps)
			return
		}
		op, err := decodeMutation(line)
		if err != nil {
			httpError(w, http.StatusBadRequest, "line %d: %v (batch rejected, nothing applied)", lineNo, err)
			return
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			httpError(w, http.StatusRequestEntityTooLarge, "line %d exceeds %d bytes", lineNo+1, maxIngestLineBytes)
			return
		}
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(ops) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}

	res, err := entry.mds.Apply(ops)
	if err != nil {
		httpError(w, http.StatusBadRequest, "batch rejected, nothing applied: %v", err)
		return
	}
	writeJSON(w, ingestResponse(entry, res))
}

// handleRecordDelete deletes one record by ID — the single-record
// convenience form of an ingest batch with one delete line. Deleting
// an ID that is not live answers 404 (the generation still advances:
// every applied batch publishes).
func (s *Server) handleRecordDelete(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.mutableEntry(w, r.PathValue("name"))
	if !ok {
		return
	}
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad record id %q", r.PathValue("id"))
		return
	}
	if !s.acquireAdmission(w, r) {
		return
	}
	defer s.adm.Release()
	res, err := entry.mds.Delete(id)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "delete failed: %v", err)
		return
	}
	if res.Deleted == 0 {
		httpError(w, http.StatusNotFound, "record %d not live in dataset %q", id, entry.spec.Name)
		return
	}
	writeJSON(w, ingestResponse(entry, res))
}

// ingestResponse is the JSON body of a successful mutation request: a
// struct with its fields in name order, as json.Marshal writes a map's.
func ingestResponse(entry *catalogEntry, res stark.BatchResult) any {
	return struct {
		Count      int64  `json:"count"`
		Dataset    string `json:"dataset"`
		Deleted    int    `json:"deleted"`
		Generation uint64 `json:"generation"`
		Inserted   int    `json:"inserted"`
		Missing    int    `json:"missing"`
		Replaced   int    `json:"replaced"`
	}{entry.mds.Count(), entry.spec.Name, res.Deleted, res.Gen, res.Inserted, res.Missing, res.Replaced}
}
