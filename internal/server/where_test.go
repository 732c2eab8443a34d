package server

// Tests for the query endpoint's `where` clause: typed attribute
// predicates over the event fields, ANDed with the spatial predicate,
// admission-controlled and result-cached like any other query.

import (
	"net/http"
	"strings"
	"testing"

	"stark/internal/engine"
	"stark/internal/workload"
)

// whereQuery is the canonical mixed spatial+attribute request.
func whereQuery() serviceQueryRequest {
	q := windowQuery("")
	q.Where = whereClauses{{Field: "category", Op: "eq", Value: "sports"}}
	return q
}

func TestQueryV1WhereFiltersCategories(t *testing.T) {
	s, _ := testService(t, 500, Options{})

	spatialOnly := postV1Query(t, s, windowQuery(""))
	if spatialOnly.Code != http.StatusOK {
		t.Fatalf("spatial-only status = %d: %s", spatialOnly.Code, spatialOnly.Body.String())
	}
	_, spatialSum := ndjsonResponse(t, spatialOnly.Body.Bytes())

	rec := postV1Query(t, s, whereQuery())
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	features, sum := ndjsonResponse(t, rec.Body.Bytes())
	if sum.Count == 0 {
		t.Fatal("where query matched nothing — test is vacuous")
	}
	if sum.Count >= spatialSum.Count {
		t.Errorf("where clause did not narrow the result: %d vs %d spatial-only",
			sum.Count, spatialSum.Count)
	}
	for _, f := range features {
		props := f["properties"].(map[string]interface{})
		if cat := props["category"]; cat != "sports" {
			t.Fatalf("feature leaked through the where clause: category=%v", cat)
		}
	}
	if sum.Fingerprint == "" || sum.Fingerprint == spatialSum.Fingerprint {
		t.Errorf("where clause not part of the fingerprint: %q vs %q",
			sum.Fingerprint, spatialSum.Fingerprint)
	}
}

// TestQueryV1WhereCacheHit: the acceptance gate — a repeated mixed
// spatial+attribute query is served from the result cache, with the
// same fingerprint and no engine work.
func TestQueryV1WhereCacheHit(t *testing.T) {
	s, ctx := testService(t, 500, Options{})
	q := whereQuery()

	first := postV1Query(t, s, q)
	if first.Code != http.StatusOK {
		t.Fatalf("miss status = %d: %s", first.Code, first.Body.String())
	}
	firstFeatures, firstSum := ndjsonResponse(t, first.Body.Bytes())
	if firstSum.Cache != "miss" {
		t.Fatalf("first where query cache = %q, want miss", firstSum.Cache)
	}

	before := ctx.Recorder().Snapshot()
	second := postV1Query(t, s, q)
	after := ctx.Recorder().Snapshot()
	secondFeatures, secondSum := ndjsonResponse(t, second.Body.Bytes())
	if secondSum.Cache != "hit" || second.Header().Get("X-Stark-Cache") != "hit" {
		t.Fatalf("repeated where query not served from cache: %+v", secondSum)
	}
	if secondSum.Fingerprint != firstSum.Fingerprint {
		t.Errorf("fingerprint drifted across identical requests: %q vs %q",
			firstSum.Fingerprint, secondSum.Fingerprint)
	}
	if d := after[engine.ElementsScanned] - before[engine.ElementsScanned]; d != 0 {
		t.Errorf("cache hit scanned %d elements, want 0", d)
	}
	if len(secondFeatures) != len(firstFeatures) {
		t.Errorf("cached result has %d features, miss had %d", len(secondFeatures), len(firstFeatures))
	}

	// A different clause over the same window is its own cache entry.
	q2 := windowQuery("")
	q2.Where = whereClauses{{Field: "time", Op: "ge", Value: 500}}
	third := postV1Query(t, s, q2)
	_, thirdSum := ndjsonResponse(t, third.Body.Bytes())
	if thirdSum.Cache != "miss" {
		t.Errorf("distinct where clause served from cache: %+v", thirdSum)
	}
}

// TestQueryV1WhereOnly: with a where clause present the spatial
// window may be omitted entirely — the query is attribute-only.
func TestQueryV1WhereOnly(t *testing.T) {
	s, _ := testService(t, 400, Options{})
	req := serviceQueryRequest{
		queryRequest: queryRequest{
			Where: whereClauses{
				{Field: "category", Op: "in", Values: []any{"sports", "culture"}},
				{Field: "time", Op: "between", Value: 100, Value2: 900},
			},
		},
	}
	rec := postV1Query(t, s, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	features, sum := ndjsonResponse(t, rec.Body.Bytes())
	want := 0
	for _, e := range workload.Events(workload.Config{N: 400, Seed: 11, Width: 100, Height: 100, TimeRange: 1000}) {
		if (e.Category == "sports" || e.Category == "culture") && e.Time >= 100 && e.Time <= 900 {
			want++
		}
	}
	if int(sum.Count) != want || len(features) != want {
		t.Errorf("attribute-only query matched %d (summary %d), want %d", len(features), sum.Count, want)
	}
}

// TestQueryV1WhereBadClause400: malformed clauses are rejected before
// any engine work, with the clause position in the message.
func TestQueryV1WhereBadClause400(t *testing.T) {
	s, _ := testService(t, 50, Options{})
	cases := []struct {
		name   string
		clause whereClause
	}{
		{"unknown_field", whereClause{Field: "tip", Op: "eq", Value: 1}},
		{"unknown_op", whereClause{Field: "time", Op: "like", Value: 1}},
		{"type_mismatch", whereClause{Field: "category", Op: "eq", Value: 3}},
		{"lossy_float", whereClause{Field: "time", Op: "eq", Value: 1.5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := windowQuery("")
			q.Where = whereClauses{tc.clause}
			rec := postV1Query(t, s, q)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400: %s", rec.Code, rec.Body.String())
			}
			if !strings.Contains(rec.Body.String(), "where clause 0") {
				t.Errorf("error does not locate the clause: %s", rec.Body.String())
			}
		})
	}
}
