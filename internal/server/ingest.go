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
// op defaults to upsert. The whole request is ONE atomic batch: it
// either publishes one new generation with every line applied, or —
// on the first malformed line, or any batch-level violation (duplicate
// IDs, insert of a live ID) — rejects with HTTP 400 and changes
// nothing. Batches pass through the same admission gate as queries,
// so a burst of writers cannot starve readers of engine slots.

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
	"stark/internal/live"
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
// op is a delete, and never accept a line that holds anything after
// its one JSON value (a second mutation there would be dropped while
// the batch answers 200).
func decodeMutation(line []byte) (stark.LiveOp[eventValue], error) {
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

// opLine renders a validated live op back to its wire form — how WAL
// batch records serialise a batch. The op's text and time are in its
// key (catalogRow), so the line's WKT and time are rendered from it;
// the round trip through toOp is lossless because that rendering parses
// back to the same coordinates bit for bit (see catalogRow).
func opLine(op stark.LiveOp[eventValue]) mutationLine {
	id := op.Rec.ID
	if op.Kind == live.OpDelete {
		return mutationLine{Op: "delete", ID: &id}
	}
	name := "upsert"
	if op.Kind == live.OpInsert {
		name = "insert"
	}
	return mutationLine{Op: name, ID: &id, Category: op.Rec.Value.Category, Time: eventTime(op.Rec.Key), WKT: keyWKT(op.Rec.Key)}
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
	sc.Buffer(make([]byte, 64*1024), maxIngestLineBytes)
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

// ingestResponse is the JSON body of a successful mutation request.
func ingestResponse(entry *catalogEntry, res stark.BatchResult) map[string]interface{} {
	return map[string]interface{}{
		"dataset":    entry.spec.Name,
		"generation": res.Gen,
		"inserted":   res.Inserted,
		"replaced":   res.Replaced,
		"deleted":    res.Deleted,
		"missing":    res.Missing,
		"count":      entry.mds.Count(),
	}
}
