package server

// The -race hammer: many goroutines issuing a mixed workload —
// queries, EXPLAINs, registrations, drops, listings — against one
// service. The race detector checks the synchronisation; the
// assertions check the service never tears a response (every 200 body
// parses) and that the cache stays correct under churn (a hit still
// schedules zero engine work afterwards).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"stark/internal/engine"
)

func TestServiceHammer(t *testing.T) {
	s, ctx := testService(t, 400, Options{
		MaxConcurrent: 4, QueueDepth: 64, QueueTimeout: 2 * time.Second,
	})
	// A couple of stable side datasets the workers query.
	for i := 0; i < 2; i++ {
		spec := DatasetSpec{Name: fmt.Sprintf("side%d", i), N: 200, Seed: int64(i), Dist: "uniform", Width: 100, Height: 100}
		if _, err := s.catalog.Register(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	const iters = 30
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	report := func(format string, args ...interface{}) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}
	do := func(method, path string, body interface{}) *httptest.ResponseRecorder {
		var rd *bytes.Reader
		if body != nil {
			data, _ := json.Marshal(body)
			rd = bytes.NewReader(data)
		} else {
			rd = bytes.NewReader(nil)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
		return rec
	}

	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tmp := fmt.Sprintf("tmp%d", g)
			for i := 0; i < iters; i++ {
				switch i % 6 {
				case 0: // hot cacheable query on the stable dataset
					rec := do(http.MethodPost, "/api/v1/query", windowQuery(""))
					switch rec.Code {
					case http.StatusOK:
						// Every line of a 200 body must parse: no torn writes.
						for _, line := range bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n")) {
							var v map[string]interface{}
							if err := json.Unmarshal(line, &v); err != nil {
								report("worker %d: torn NDJSON line %q: %v", g, line, err)
							}
						}
					case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					default:
						report("worker %d: query status %d: %s", g, rec.Code, rec.Body.String())
					}
				case 1: // query a side dataset
					rec := do(http.MethodPost, "/api/v1/query", windowQuery(fmt.Sprintf("side%d", g%2)))
					if rec.Code != http.StatusOK && rec.Code != http.StatusTooManyRequests && rec.Code != http.StatusServiceUnavailable {
						report("worker %d: side query status %d", g, rec.Code)
					}
				case 2: // explain
					rec := do(http.MethodPost, "/api/v1/explain", windowQuery(""))
					if rec.Code != http.StatusOK {
						report("worker %d: explain status %d", g, rec.Code)
					} else if !strings.Contains(rec.Body.String(), `"plan"`) {
						report("worker %d: explain body missing plan", g)
					}
				case 3: // register this worker's churn dataset
					spec := DatasetSpec{Name: tmp, N: 50, Seed: int64(i), Dist: "uniform", Width: 50, Height: 50}
					if rec := do(http.MethodPost, "/api/datasets", spec); rec.Code != http.StatusOK {
						report("worker %d: register status %d: %s", g, rec.Code, rec.Body.String())
					}
				case 4: // query-or-404 the churn dataset, then drop it
					rec := do(http.MethodPost, "/api/v1/query", windowQuery(tmp))
					if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound &&
						rec.Code != http.StatusTooManyRequests && rec.Code != http.StatusServiceUnavailable {
						report("worker %d: churn query status %d", g, rec.Code)
					}
					do(http.MethodDelete, "/api/datasets/"+tmp, nil)
				case 5: // listings and service stats must always decode
					for _, path := range []string{"/api/datasets", "/api/service"} {
						rec := do(http.MethodGet, path, nil)
						var v map[string]interface{}
						if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
							report("worker %d: %s body does not parse: %v", g, path, err)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the storm: the stable dataset still answers, and a cache
	// hit still schedules zero engine work.
	if rec := postV1Query(t, s, windowQuery("")); rec.Code != http.StatusOK {
		t.Fatalf("post-hammer warm query status = %d", rec.Code)
	}
	before := ctx.Recorder().Snapshot()
	rec := postV1Query(t, s, windowQuery(""))
	after := ctx.Recorder().Snapshot()
	if rec.Code != http.StatusOK {
		t.Fatalf("post-hammer hot query status = %d", rec.Code)
	}
	if _, sum := ndjsonResponse(t, rec.Body.Bytes()); sum.Cache != "hit" {
		t.Errorf("post-hammer hot query not cached: %+v", sum)
	}
	if d := after[engine.ElementsScanned] - before[engine.ElementsScanned]; d != 0 {
		t.Errorf("post-hammer cache hit scanned %d elements, want 0", d)
	}
}
