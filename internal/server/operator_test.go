package server

// The knn and cluster clauses of /api/v1/query: replies held to a
// brute-force k nearest and to a direct DBSCAN run, byte for byte to
// the map-form oracle, and both operators held behind admission.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"stark"
	"stark/internal/geom"
	"stark/internal/workload"
)

// operatorLayouts registers one generated dataset under the four
// layouts the kNN operator distinguishes: plain, grid, BSP, and BSP
// with a persistent index (the tree search).
func operatorLayouts(t *testing.T, s *Server) []string {
	t.Helper()
	specs := []DatasetSpec{
		{Name: "plain"},
		{Name: "grid", Partitioner: "grid:4"},
		{Name: "bsp", Partitioner: "bsp:150"},
		{Name: "indexed", Partitioner: "bsp:150", Index: "persistent:8"},
	}
	names := make([]string, len(specs))
	for i, spec := range specs {
		spec.N, spec.Seed, spec.Width, spec.Height, spec.TimeRange = 1500, 27, 100, 100, 1000
		if _, err := s.catalog.Register(s.ctx, spec); err != nil {
			t.Fatal(err)
		}
		names[i] = spec.Name
	}
	return names
}

type neighbour struct {
	id   int
	dist float64
}

func sortNeighbours(ns []neighbour) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].dist != ns[j].dist {
			return ns[i].dist < ns[j].dist
		}
		return ns[i].id < ns[j].id
	})
}

func TestKNNClauseMatchesBruteForce(t *testing.T) {
	s := NewService(stark.NewContext(4), Options{})
	where := WhereClauses{{Field: "category", Op: "eq", Value: workload.Categories[1]}}
	const k = 7
	for _, name := range operatorLayouts(t, s) {
		entry, _ := s.catalog.Get(name)
		rows, err := entry.dataset().Collect()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []WhereClauses{nil, where} {
			for _, at := range []string{"POINT (50 50)", "POINT (3.5 97.25)", "POINT (-20 140)", "LINESTRING (10 10, 30 40)"} {
				req := ServiceQueryRequest{Dataset: name, QueryRequest: QueryRequest{WKT: at, Where: w}, KNN: &KNNClause{K: k}}
				rec := postV1Query(t, s, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s %s: status %d: %s", name, at, rec.Code, rec.Body.String())
				}
				body, sum := splitSummary(t, rec.Body.Bytes())
				feats, _ := ndjsonResponse(t, rec.Body.Bytes())

				ref := stark.NewSTObject(geom.MustParseWKT(at))
				var brute []neighbour
				for _, kv := range rows {
					if w == nil || kv.Value.Category == workload.Categories[1] {
						brute = append(brute, neighbour{kv.Value.ID, ref.Distance(kv.Key, nil)})
					}
				}
				sortNeighbours(brute)
				want := brute[:k]
				tied := len(brute) > k && brute[k].dist == brute[k-1].dist

				got := make([]neighbour, len(feats))
				for i, f := range feats {
					props := f["properties"].(map[string]interface{})
					got[i] = neighbour{int(props["id"].(float64)), props["distance"].(float64)}
				}
				if sum.Count != k || len(got) != k {
					t.Fatalf("%s where=%v %s: %d lines, summary %+v, want %d", name, w != nil, at, len(got), sum, k)
				}
				for i := 1; i < k; i++ {
					if got[i].dist < got[i-1].dist {
						t.Fatalf("%s %s: distances not ascending: %v", name, at, got)
					}
				}
				sortNeighbours(got)
				for i := range got {
					if got[i].dist != want[i].dist || (!tied && got[i].id != want[i].id) {
						t.Fatalf("%s where=%v %s: got %v, brute force %v", name, w != nil, at, got, want)
					}
				}

				// Bytes: each line is json.Marshal of the map form with the
				// distance added, in the order the DSL returns.
				chain := entry.dataset()
				if w != nil {
					if chain, err = applyWhere(chain.WithSchema(eventSchema), w); err != nil {
						t.Fatal(err)
					}
				}
				nbrs, err := chain.KNN(ref, k)
				if err != nil {
					t.Fatal(err)
				}
				var oracle []byte
				for _, nb := range nbrs {
					line, err := oracleLine(nb.Key, nb.Value, extras{distance: &nb.Distance})
					if err != nil {
						t.Fatal(err)
					}
					oracle = append(oracle, line...)
				}
				if !bytes.Equal(body, oracle) {
					t.Fatalf("%s where=%v %s: body differs from the oracle:\n got %s\nwant %s", name, w != nil, at, body, oracle)
				}
			}
		}
	}
}

func TestClusterClauseMatchesDirectRun(t *testing.T) {
	s := NewService(stark.NewContext(4), Options{})
	window := windowQuery("").QueryRequest
	opts := stark.ClusterOptions{Eps: 3, MinPts: 4}
	for _, name := range operatorLayouts(t, s) {
		entry, _ := s.catalog.Get(name)
		for _, filter := range []QueryRequest{{}, window} {
			req := ServiceQueryRequest{Dataset: name, QueryRequest: filter, Cluster: &ClusterClause{Eps: opts.Eps, MinPts: opts.MinPts}}
			rec := postV1Query(t, s, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body.String())
			}
			body, sum := splitSummary(t, rec.Body.Bytes())

			chain, err := filterOn(entry.dataset(), filter)
			if err != nil {
				t.Fatal(err)
			}
			recs, n, err := chain.Cluster(opts)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 || len(recs) == 0 {
				t.Fatalf("%s filtered=%v: degenerate run: %d clusters over %d rows", name, filter.WKT != "", n, len(recs))
			}
			var oracle []byte
			for i := range recs {
				line, err := oracleLine(recs[i].Key, recs[i].Value, extras{cluster: &recs[i].Cluster})
				if err != nil {
					t.Fatal(err)
				}
				oracle = append(oracle, line...)
			}
			if sum.Clusters == nil || *sum.Clusters != n || sum.Count != int64(len(recs)) || sum.Cache != "bypass" {
				t.Errorf("%s filtered=%v: summary %+v, want %d rows in %d clusters", name, filter.WKT != "", sum, len(recs), n)
			}
			if !bytes.Equal(body, oracle) {
				t.Errorf("%s filtered=%v: body (%d bytes) differs from the direct run's lines (%d bytes)", name, filter.WKT != "", len(body), len(oracle))
			}
		}
	}
}

// TestOperatorClausesTakeAdmission: with the only slot held, a cluster
// request queues (the waiting gauge reads 1), then times out with a
// 503; once the slot is free it runs.
func TestOperatorClausesTakeAdmission(t *testing.T) {
	s, _ := testService(t, 200, Options{MaxConcurrent: 1, QueueDepth: 2, QueueTimeout: 300 * time.Millisecond})
	if err := s.adm.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	req := ServiceQueryRequest{Cluster: &ClusterClause{Eps: 5, MinPts: 4}}
	data, err := marshalQuery(req)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(data)))
		done <- rec
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.Stats().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the cluster request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if v := scrapeCounter(t, s, "stark_admission_waiting"); v != 1 {
		t.Errorf("stark_admission_waiting = %v while the cluster request queues, want 1", v)
	}
	if rec := <-done; rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued cluster request: status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if v := scrapeCounter(t, s, "stark_admission_timed_out_total"); v != 1 {
		t.Errorf("stark_admission_timed_out_total = %v, want 1", v)
	}
	s.adm.Release()

	admitted := s.adm.Stats().Admitted
	for _, req := range []ServiceQueryRequest{req, {QueryRequest: QueryRequest{WKT: "POINT (1 1)"}, KNN: &KNNClause{K: 3}}} {
		if rec := postV1Query(t, s, req); rec.Code != http.StatusOK {
			t.Fatalf("status %d with the slot free: %s", rec.Code, rec.Body.String())
		}
	}
	if got := s.adm.Stats().Admitted - admitted; got != 2 {
		t.Errorf("a cluster and a kNN request took %d admission slots, want 2", got)
	}
}

// TestKNNClauseStopsWithTheClient: a kNN request whose client has gone
// schedules no partition and writes no reply.
func TestKNNClauseStopsWithTheClient(t *testing.T) {
	s := NewService(stark.NewContext(4), Options{})
	operatorLayouts(t, s)
	for _, name := range []string{"grid", "indexed"} {
		before := s.ctx.Metrics().Snapshot()
		data, err := marshalQuery(ServiceQueryRequest{Dataset: name, QueryRequest: QueryRequest{WKT: "POINT (50 50)"}, KNN: &KNNClause{K: 5}})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(data)).WithContext(ctx))
		after := s.ctx.Metrics().Snapshot()
		if launched := after.TasksLaunched - before.TasksLaunched; launched != 0 {
			t.Errorf("%s: a cancelled kNN launched %d tasks", name, launched)
		}
		if scanned := after.ElementsScanned - before.ElementsScanned; scanned != 0 {
			t.Errorf("%s: a cancelled kNN scanned %d elements", name, scanned)
		}
		if rec.Body.Len() != 0 {
			t.Errorf("%s: a cancelled kNN wrote %q", name, rec.Body.String())
		}
	}
}
