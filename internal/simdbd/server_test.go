package simdbd_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"simdb/internal/core"
)

// TestQueryTour exercises the happy path end to end over the wire:
// DDL, NDJSON ingest, a full-scan query, a similarity query against a
// secondary index, and the terminal summary's stats.
func TestQueryTour(t *testing.T) {
	_, base := bootServer(t, nil)
	seedReviews(t, base, 120)
	runQuery(t, base, "", `create index sum_idx on Reviews(summary) type keyword;`)

	rows, sum := runQuery(t, base, "", `for $r in dataset Reviews return $r.id`)
	if len(rows) != 120 {
		t.Fatalf("scan returned %d rows, want 120", len(rows))
	}
	if sum.Rows != 120 {
		t.Errorf("summary rows = %d, want 120", sum.Rows)
	}
	if sum.QueryID == 0 {
		t.Error("summary missing query_id")
	}
	if sum.WallNs <= 0 || sum.ExecNs <= 0 {
		t.Errorf("summary timings wall=%d exec=%d, want > 0", sum.WallNs, sum.ExecNs)
	}

	simRows, _ := runQuery(t, base, "", `
		for $r in dataset Reviews
		where similarity-jaccard(word-tokens($r.summary),
		                         word-tokens('great fantastic product')) >= 0.5
		return $r.id`)
	if len(simRows) == 0 {
		t.Fatal("similarity query returned no rows")
	}

	// DDL-only requests stream zero rows and still terminate properly.
	ddlRows, ddlSum := runQuery(t, base, "", `create dataset Empty primary key id;`)
	if len(ddlRows) != 0 || ddlSum.Rows != 0 {
		t.Errorf("DDL returned rows: %d (summary %d)", len(ddlRows), ddlSum.Rows)
	}
}

// TestJSONEnvelope covers the application/json request form.
func TestJSONEnvelope(t *testing.T) {
	_, base := bootServer(t, nil)
	seedReviews(t, base, 10)

	env, _ := json.Marshal(map[string]string{
		"statement": `count(for $r in dataset Reviews return $r)`,
	})
	resp, err := http.Post(base+"/query", "application/json", strings.NewReader(string(env)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	if resp.Header.Get("X-Simdb-Query-Id") == "" {
		t.Error("missing X-Simdb-Query-Id response header")
	}
	rows, _, werr := readStream(t, resp.Body)
	if werr != nil {
		t.Fatalf("failed: %+v", werr)
	}
	if len(rows) != 1 {
		t.Fatalf("count returned %d rows", len(rows))
	}
	if n, ok := rows[0].(float64); !ok || n != 10 {
		t.Errorf("count = %v, want 10", rows[0])
	}
}

// TestErrorMapping is the table-driven typed-error → HTTP status
// conformance test for every pre-stream failure class.
func TestErrorMapping(t *testing.T) {
	db, base := bootServer(t, func(cfg *core.Config) {
		cfg.MaxConcurrentQueries = 1
		cfg.AdmissionTimeout = 60 * time.Millisecond
		cfg.Serve.MaxRequestBytes = 4096
		cfg.FrameSize = 4
	})
	seedReviews(t, base, 60)

	cases := []struct {
		name       string
		body       string
		ctype      string
		session    string
		status     int
		code       string
		retryAfter bool
	}{
		{name: "parse error", body: `for $r in`, status: 400, code: "bad-query"},
		{name: "unknown dataset", body: `for $r in dataset Nope return $r`,
			status: 400, code: "bad-query"},
		{name: "empty statement", body: `   `, status: 400, code: "bad-query"},
		{name: "bad envelope", body: `{"statment": "x"}`, ctype: "application/json",
			status: 400, code: "bad-query"},
		{name: "oversized body", body: `return ` + strings.Repeat("'x'||", 4096) + `'x'`,
			status: 413, code: "bad-query"},
		{name: "unknown session", body: `1 + 1`,
			session: strings.Repeat("ab", 16), status: 404, code: "not-found"},
		{name: "malformed session", body: `1 + 1`,
			session: "NOT-A-TOKEN", status: 404, code: "not-found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest("POST", base+"/query", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			ct := tc.ctype
			if ct == "" {
				ct = "text/plain"
			}
			req.Header.Set("Content-Type", ct)
			if tc.session != "" {
				req.Header.Set("X-SimDB-Session", tc.session)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, b)
			}
			we := decodeErrorBody(t, resp)
			if we.Code != tc.code {
				t.Errorf("code = %q, want %q", we.Code, tc.code)
			}
			if we.Status != tc.status {
				t.Errorf("body http_status = %d, want %d", we.Status, tc.status)
			}
			if tc.retryAfter {
				if resp.Header.Get("Retry-After") == "" {
					t.Error("503 without Retry-After header")
				}
				if we.RetryAfter <= 0 {
					t.Error("503 without retry_after_s in body")
				}
			}
		})
	}

	// Admission-pool exhaustion: hold the single slot with a slow
	// cross-join, then queue a second query behind it. Admission happens
	// before parsing, so this case runs after the table above (which
	// needs the slot free for its engine-side 400s).
	t.Run("admission pool exhausted", func(t *testing.T) {
		// The holder streams a cross-join with per-frame latency and an
		// unread response body, so it keeps its admission slot (the
		// backpressured job can't finish) until the drain at the end.
		db.Cluster().SetSimNetLatency(10 * time.Millisecond)
		defer db.Cluster().SetSimNetLatency(0)
		hold := postQuery(t, base, "", `
			for $a in dataset Reviews
			for $b in dataset Reviews
			where $a.username = $b.username
			return $a.id`)
		defer hold.Body.Close()
		waitFor(t, 5*time.Second, "holder admitted", func() bool {
			return len(db.Cluster().ActiveQueries()) > 0
		})
		resp := postQuery(t, base, "", `for $r in dataset Reviews return $r.id`)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("status = %d, want 503 (%s)", resp.StatusCode, b)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("503 without Retry-After header")
		}
		we := decodeErrorBody(t, resp)
		if we.Code != "admission-timeout" {
			t.Errorf("code = %q, want admission-timeout", we.Code)
		}
		if we.RetryAfter <= 0 {
			t.Error("503 without retry_after_s in body")
		}
		if we.QueryID == 0 {
			t.Error("admission rejection without query_id")
		}
		io.Copy(io.Discard, hold.Body)
	})
}

// TestSessionState pins use/set statement scope to its session: two
// sessions configure different similarity functions and neither leaks
// into the other or into sessionless requests.
func TestSessionState(t *testing.T) {
	_, base := bootServer(t, nil)
	seedReviews(t, base, 30)

	s1 := newSession(t, base, "")
	s2 := newSession(t, base, "")

	runQuery(t, base, s1, `set simfunction 'edit-distance'; set simthreshold '2';`)
	runQuery(t, base, s2, `set simfunction 'edit-distance'; set simthreshold '0';`)

	// The same query text resolves ~= under each session's own
	// threshold: fuzzy in s1, exact-only in s2.
	q := `for $r in dataset Reviews where $r.username ~= 'maria' return $r.id`
	fuzzy, _ := runQuery(t, base, s1, q)
	exact, _ := runQuery(t, base, s2, q)
	if len(exact) == 0 {
		t.Fatal("exact-threshold session matched nothing")
	}
	if len(fuzzy) <= len(exact) {
		t.Fatalf("session state leaked: fuzzy session matched %d rows, exact session %d",
			len(fuzzy), len(exact))
	}
	// A sessionless request sees neither setting — ~= falls back to the
	// default jaccard 0.5 over token sets.
	defRows, _ := runQuery(t, base, "", `
		for $r in dataset Reviews
		where word-tokens($r.summary) ~= word-tokens('great product fantastic')
		return $r.id`)
	if len(defRows) == 0 {
		t.Error("default jaccard ~= returned no rows")
	}

	// Closing a session invalidates its token.
	req, _ := http.NewRequest("DELETE", base+"/sessions/"+s1, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("session delete status = %d", dresp.StatusCode)
	}
	gone := postQuery(t, base, s1, `1 + 1`)
	defer gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Errorf("closed session status = %d, want 404", gone.StatusCode)
	}
}

// TestSessionLimit covers the session-table cap (429) and that closing
// a session frees its slot.
func TestSessionLimit(t *testing.T) {
	_, base := bootServer(t, func(cfg *core.Config) {
		cfg.Serve.MaxSessions = 2
	})
	s1 := newSession(t, base, "")
	newSession(t, base, "")

	resp, err := http.Post(base+"/sessions", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap status = %d, want 429", resp.StatusCode)
	}
	if we := decodeErrorBody(t, resp); we.Code != "too-many-sessions" {
		t.Errorf("code = %q", we.Code)
	}

	req, _ := http.NewRequest("DELETE", base+"/sessions/"+s1, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	newSession(t, base, "") // freed slot admits again
}

// TestEmptySessionRequest: POST /sessions with an empty body creates an
// unpinned session whether the body is sized (Content-Length: 0) or
// chunked (length unknown until the terminating chunk).
func TestEmptySessionRequest(t *testing.T) {
	_, base := bootServer(t, nil)
	for name, body := range map[string]io.Reader{
		"sized": strings.NewReader(""),
		// A reader net/http cannot size goes out chunked.
		"chunked": io.NopCloser(strings.NewReader("")),
	} {
		req, err := http.NewRequest("POST", base+"/sessions", body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s empty body: status %d: %s", name, resp.StatusCode, out)
		}
	}
}

// TestTenantScoping pins a session to one dataverse and asserts the
// other tenant's data is unreachable through it: use-switching and
// dataverse DDL are 403s, and names resolve only within the pin.
func TestTenantScoping(t *testing.T) {
	_, base := bootServer(t, nil)
	// Admin (unpinned) session provisions two tenants with a same-named
	// dataset each.
	runQuery(t, base, "", `create dataverse TenantA;`)
	runQuery(t, base, "", `create dataverse TenantB;`)
	admin := newSession(t, base, "")
	runQuery(t, base, admin, `use dataverse TenantA; create dataset Orders primary key id;`)
	runQuery(t, base, admin, `use dataverse TenantB; create dataset Orders primary key id;`)
	for _, tok := range []string{"A", "B"} {
		resp, err := http.Post(base+"/ingest/Orders", "application/x-ndjson",
			strings.NewReader(fmt.Sprintf("{\"id\": 1, \"tenant\": %q}\n", tok)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("ingest without session resolves Orders in Default: status %d", resp.StatusCode)
		}
	}
	runQuery(t, base, admin, `use dataverse TenantA;`)
	ingestAs := func(sess, val string) {
		req, _ := http.NewRequest("POST", base+"/ingest/Orders",
			strings.NewReader(fmt.Sprintf("{\"id\": 1, \"tenant\": %q}\n", val)))
		req.Header.Set("X-SimDB-Session", sess)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("ingest as tenant: status %d: %s", resp.StatusCode, b)
		}
	}
	ingestAs(admin, "A")
	runQuery(t, base, admin, `use dataverse TenantB;`)
	ingestAs(admin, "B")

	tenant := newSession(t, base, "TenantA")
	// The pinned session reads its own tenant's rows.
	rows, _ := runQuery(t, base, tenant, `for $o in dataset Orders return $o.tenant`)
	if len(rows) != 1 || rows[0] != "A" {
		t.Fatalf("tenant session sees %v, want [A]", rows)
	}
	// Switching dataverse is forbidden.
	resp := postQuery(t, base, tenant, `use dataverse TenantB; for $o in dataset Orders return $o`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("cross-tenant use status = %d, want 403", resp.StatusCode)
	}
	if we := decodeErrorBody(t, resp); we.Code != "forbidden" {
		t.Errorf("code = %q", we.Code)
	}
	// Re-using one's own dataverse is fine (idempotent use).
	runQuery(t, base, tenant, `use dataverse TenantA; 1 + 1`)
	// Dataverse DDL is forbidden for pinned sessions.
	ddl := postQuery(t, base, tenant, `create dataverse TenantC;`)
	defer ddl.Body.Close()
	if ddl.StatusCode != http.StatusForbidden {
		t.Errorf("tenant create dataverse status = %d, want 403", ddl.StatusCode)
	}
	// Unknown pin at session creation is a 404.
	badResp, err := http.Post(base+"/sessions", "application/json",
		strings.NewReader(`{"dataverse": "NoSuch"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer badResp.Body.Close()
	if badResp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown-dataverse session status = %d, want 404", badResp.StatusCode)
	}
}

// TestCancelEndpointAndRegistry cancels an in-flight query by ID
// through the HTTP cancel endpoint and asserts the stream terminates
// with a canceled error record — exercising the shared queryID→cancel
// registry from the serving front end.
func TestCancelEndpointAndRegistry(t *testing.T) {
	db, base := bootServer(t, func(cfg *core.Config) {
		cfg.FrameSize = 4
	})
	seedReviews(t, base, 80)
	db.Cluster().SetSimNetLatency(5 * time.Millisecond)

	resp := postQuery(t, base, "", `
		for $a in dataset Reviews
		for $b in dataset Reviews
		where $a.username = $b.username
		return $a.id`)
	defer resp.Body.Close()
	qid := resp.Header.Get("X-Simdb-Query-Id")
	if qid == "" || qid == "0" {
		t.Fatalf("no query ID on streaming response (got %q)", qid)
	}
	cresp, err := http.Post(base+"/queries/"+qid+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", cresp.StatusCode)
	}
	_, sum, werr := readStream(t, resp.Body)
	if sum != nil {
		t.Fatal("canceled query delivered a success summary")
	}
	if werr.Code != "canceled" {
		t.Errorf("terminal error code = %q, want canceled", werr.Code)
	}
	// Canceling a finished query is a 404.
	again, err := http.Post(base+"/queries/"+qid+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Body.Close()
	if again.StatusCode != http.StatusNotFound {
		t.Errorf("second cancel status = %d, want 404", again.StatusCode)
	}
	if _, _, werr := readStream(t, again.Body); werr.Code != "not-found" || werr.Status != http.StatusNotFound {
		t.Errorf("second cancel body = %+v, want a not-found wire error", werr)
	}
	// Admin routes count in the status classes like the query routes: a
	// malformed id is one more 4xx.
	before := scrapeMetric(t, base, "simdb_simdbd_http_status_4xx")
	bad, err := http.Post(base+"/queries/not-a-number/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad cancel id status = %d, want 400", bad.StatusCode)
	}
	if got := scrapeMetric(t, base, "simdb_simdbd_http_status_4xx") - before; got != 1 {
		t.Errorf("status_4xx moved by %g for one bad cancel id, want 1", got)
	}
}

// TestMetricsExposure asserts the serving counters surface through the
// shared Prometheus exposition.
func TestMetricsExposure(t *testing.T) {
	_, base := bootServer(t, nil)
	seedReviews(t, base, 20)
	before := scrapeMetric(t, base, "simdb_simdbd_http_rows_streamed")
	runQuery(t, base, "", `for $r in dataset Reviews return $r.id`)
	after := scrapeMetric(t, base, "simdb_simdbd_http_rows_streamed")
	if after-before < 20 {
		t.Errorf("rows_streamed delta = %g, want >= 20", after-before)
	}
	if v := scrapeMetric(t, base, "simdb_simdbd_http_requests"); v <= 0 {
		t.Errorf("requests counter = %g, want > 0", v)
	}
	if v := scrapeMetric(t, base, "simdb_simdbd_http_status_2xx"); v <= 0 {
		t.Errorf("status_2xx counter = %g, want > 0", v)
	}
}

// TestIndexAndHealth covers the non-query surface: liveness and the
// index page.
func TestIndexAndHealth(t *testing.T) {
	_, base := bootServer(t, nil)
	if code, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	_, body := get(t, base+"/")
	for _, route := range []string{"/query", "/metrics", "/traces", "/slowlog", "/debug/pprof/"} {
		if !strings.Contains(body, route) {
			t.Errorf("index page does not describe %s", route)
		}
	}
}

// TestActiveQueriesEndpoint lists an in-flight query over the wire.
func TestActiveQueriesEndpoint(t *testing.T) {
	// Small frames + simulated NIC latency keep the cross join running
	// long enough that the poll below must observe it; with default
	// framing the whole job can finish before the first GET /queries.
	db, base := bootServer(t, func(c *core.Config) { c.FrameSize = 4 })
	seedReviews(t, base, 60)
	db.Cluster().SetSimNetLatency(5 * time.Millisecond)
	resp := postQuery(t, base, "", `
		for $a in dataset Reviews
		for $b in dataset Reviews
		where $a.username = $b.username
		return $a.id`)
	defer resp.Body.Close()
	waitFor(t, 5*time.Second, "query listed", func() bool {
		qresp, err := http.Get(base + "/queries")
		if err != nil {
			return false
		}
		defer qresp.Body.Close()
		var infos []struct {
			ID uint64 `json:"id"`
		}
		if err := json.NewDecoder(qresp.Body).Decode(&infos); err != nil {
			return false
		}
		return len(infos) > 0
	})
	io.Copy(io.Discard, resp.Body)
}

// TestLoadAndIngestRejectTheSameLines: the shell's `load dataset`
// (core.LoadJSONLines) and POST /ingest read NDJSON through one loader,
// so the same input is accepted or refused the same way — same count
// inserted, same record number and cause in the error — whichever door
// it comes through.
func TestLoadAndIngestRejectTheSameLines(t *testing.T) {
	db, base := bootServer(t, nil)
	line := func(id int, pad int) string {
		return fmt.Sprintf("{\"id\": %d, \"summary\": %q}\n", id, strings.Repeat("x", pad))
	}
	many := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(line(i, 8))
		}
		return b.String()
	}
	cases := []struct {
		name, input string
		inserted    int
		errHas      []string // empty: the load succeeds
	}{
		{"blank lines are skipped", "\n" + line(1, 8) + "\n\n" + line(2, 8), 2, nil},
		// Accepted by the old shell limit (16 MiB), refused by the old
		// /ingest limit (8 MiB).
		{"10 MiB record", line(1, 10<<20), 1, nil},
		{"malformed third record", line(1, 8) + "\n" + line(2, 8) + "{\"id\": 3,\n" + line(4, 8), 0, []string{"record 3:"}},
		{"malformed record after a full batch", many(600) + "not json\n", 512, []string{"record 601:"}},
		{"oversize second record", line(1, 8) + line(2, 17<<20) + line(3, 8), 0, []string{"record 2:", "token too long"}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loadDS, ingestDS := fmt.Sprintf("L%d", i), fmt.Sprintf("I%d", i)
			for _, ds := range []string{loadDS, ingestDS} {
				runQuery(t, base, "", fmt.Sprintf(`create dataset %s primary key id;`, ds))
			}

			path := filepath.Join(t.TempDir(), "in.jsonl")
			if err := os.WriteFile(path, []byte(tc.input), 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, lerr := db.LoadJSONLines(loadDS, path)
			loadMsg := ""
			if lerr != nil {
				loadMsg = lerr.Error()
			}

			resp, err := http.Post(base+"/ingest/"+ingestDS, "application/x-ndjson", strings.NewReader(tc.input))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var out struct {
				Inserted int `json:"inserted"`
				Error    struct {
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatalf("ingest response %q: %v", body, err)
			}

			if len(tc.errHas) == 0 {
				if lerr != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("load err = %v, ingest status %d (%s); want both to succeed", lerr, resp.StatusCode, out.Error.Message)
				}
				if loaded != tc.inserted || out.Inserted != tc.inserted {
					t.Errorf("inserted: load %d, ingest %d, want %d", loaded, out.Inserted, tc.inserted)
				}
			} else {
				if lerr == nil || resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("load err = %v, ingest status %d; want both refused", lerr, resp.StatusCode)
				}
				if loaded != tc.inserted {
					t.Errorf("load inserted %d before the error, want %d", loaded, tc.inserted)
				}
				for _, want := range append(tc.errHas, fmt.Sprintf("after %d records", tc.inserted)) {
					if !strings.Contains(out.Error.Message, want) {
						t.Errorf("ingest error %q lacks %q", out.Error.Message, want)
					}
				}
				// One loader, one message: /ingest only prefixes it.
				if !strings.HasSuffix(out.Error.Message, loadMsg) {
					t.Errorf("ingest error %q does not end in the load error %q", out.Error.Message, loadMsg)
				}
			}
			for _, ds := range []string{loadDS, ingestDS} {
				rows, _ := runQuery(t, base, "", fmt.Sprintf(`count(for $r in dataset %s return $r)`, ds))
				if got := fmt.Sprint(rows[0]); got != fmt.Sprint(tc.inserted) {
					t.Errorf("%s holds %s records, want %d", ds, got, tc.inserted)
				}
			}
		})
	}
}
