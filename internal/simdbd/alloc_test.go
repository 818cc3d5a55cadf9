package simdbd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/cluster"
	"simdb/internal/datagen"
)

// queryAllocCeiling is the number of allocations one warm POST /query
// may make through the server's handler: the body read, the session
// lookup, the engine's warm run (admission, plan-cache hit, job
// generation, the operators) and the NDJSON encoding of the rows and the
// summary. The request is the indexed Jaccard 0.5 selection of
// internal/cluster's TestExecuteAllocationCeiling over the same 2000
// records, sent in a session the way simbench's sel_http client sends it;
// the writer it answers into allocates nothing, so no client or socket
// code is counted. It made 643 to 646 (the engine's own run of the query
// makes 619), streaming 4 rows.
//
// The number may only move down: a change that raises it has put an
// allocation back on the serving path, or a fixed cost on every request.
const queryAllocCeiling = 650

func TestQueryAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the ceiling is checked by the plain test run")
	}
	if os.Getenv("SIMDB_TEST_MEMORY_BUDGET") != "" {
		t.Skip("a budgeted query adds its accountant and spill manager; the ceiling is for the default configuration")
	}
	c, err := cluster.New(cluster.Config{NumNodes: 1, PartitionsPerNode: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ddl := func(aql string) {
		if _, err := c.Execute(context.Background(), nil, aql); err != nil {
			t.Fatalf("%s: %v", aql, err)
		}
	}
	ddl(`create dataset ARevs primary key id;`)
	err = datagen.Generate(datagen.Amazon, 2000, datagen.Options{Seed: 33}, func(v adm.Value) error {
		return c.Insert("Default", "ARevs", v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	ddl(`create index akw on ARevs(summary) type keyword;`)

	s, err := Start("127.0.0.1:0", c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ss, werr := s.sessions.create("")
	if werr != nil {
		t.Fatal(werr)
	}
	h := s.handler()
	const query = `for $r in dataset ARevs
		where similarity-jaccard(word-tokens($r.summary), word-tokens('the great product of love')) >= 0.5
		return $r.id`
	const runs = 20
	reqs := make([]*http.Request, runs+2) // one cold run, AllocsPerRun's warm-up, the measured runs
	for i := range reqs {
		reqs[i] = httptest.NewRequest("POST", "/query", strings.NewReader(query))
		reqs[i].Header.Set("Content-Type", "text/plain")
		reqs[i].Header.Set(SessionHeader, ss.id)
	}
	w := &sinkWriter{h: http.Header{}, body: make([]byte, 0, 1<<16)}
	serve := func() {
		w.status, w.body = 0, w.body[:0]
		h.ServeHTTP(w, reqs[0])
		reqs = reqs[1:]
	}
	serve() // compile, cache the plan, fault the pages in
	rows, _ := w.decode(t)
	if rows == 0 || rows > 100 {
		t.Fatalf("%d of 2000 rows qualify; the ceiling needs a selective query with an answer", rows)
	}
	allocs := testing.AllocsPerRun(runs, serve)
	if got, gotHit := w.decode(t); got != rows || !gotHit {
		t.Fatalf("warm run: %d rows, plan-cache hit %v; want %d rows and a hit", got, gotHit, rows)
	}
	t.Logf("%.0f allocations per warm POST /query, %d rows streamed", allocs, rows)
	if allocs > queryAllocCeiling {
		t.Errorf("%.0f allocations per warm POST /query, ceiling %d", allocs, queryAllocCeiling)
	}
}

// sinkWriter is a ResponseWriter that keeps one response in a buffer
// sized up front, so it allocates nothing of its own.
type sinkWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *sinkWriter) Header() http.Header         { return w.h }
func (w *sinkWriter) WriteHeader(code int)        { w.status = code }
func (w *sinkWriter) Write(b []byte) (int, error) { w.body = append(w.body, b...); return len(b), nil }
func (w *sinkWriter) Flush()                      {}

// decode checks the last response is a 200 NDJSON stream ending in a
// summary, and returns its row count and plan-cache flag.
func (w *sinkWriter) decode(t *testing.T) (rows int, planCacheHit bool) {
	t.Helper()
	if w.status != http.StatusOK {
		t.Fatalf("status %d: %s", w.status, w.body)
	}
	lines := bytes.Split(bytes.TrimSuffix(w.body, []byte("\n")), []byte("\n"))
	var sum summaryRecord
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil || sum.Summary.QueryID == 0 {
		t.Fatalf("stream does not end in a summary (%v): %s", err, w.body)
	}
	return len(lines) - 1, sum.Summary.PlanCacheHit
}
