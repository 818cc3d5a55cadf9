package simdbd_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"simdb/internal/core"
)

// get fetches url and returns the status and the whole body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsEndpoint asserts GET /metrics is valid Prometheus text
// exposition carrying the engine's query metrics after an embedded
// query.
func TestMetricsEndpoint(t *testing.T) {
	db, base := bootServer(t, nil)
	seedReviews(t, base, 5)
	if _, err := db.Query(`for $r in dataset Reviews return $r.id`); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if err := validatePrometheus(body); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	for _, want := range []string{
		"simdb_cluster_queries ",
		"# TYPE simdb_cluster_query_latency_ns summary",
		`simdb_cluster_query_latency_ns{quantile="0.99"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics", want)
		}
	}
}

// validatePrometheus is a minimal text-exposition (0.0.4) parser:
// every non-comment line must be `name[{labels}] value`, every TYPE
// comment must precede its samples, and label values must be quoted
// with only valid escapes.
func validatePrometheus(body string) error {
	typed := map[string]bool{}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return fmt.Errorf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[3] {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				return fmt.Errorf("line %d: unknown type %q", ln+1, parts[3])
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			return fmt.Errorf("line %d: unknown comment %q", ln+1, line)
		}
		name, rest, ok := splitSample(line)
		if !ok {
			return fmt.Errorf("line %d: malformed sample %q", ln+1, line)
		}
		for i := 0; i < len(name); i++ {
			c := name[i]
			valid := c == '_' || c == ':' ||
				(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(i > 0 && c >= '0' && c <= '9')
			if !valid {
				return fmt.Errorf("line %d: invalid metric name %q", ln+1, name)
			}
		}
		var v float64
		if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
			return fmt.Errorf("line %d: bad value %q: %v", ln+1, rest, err)
		}
	}
	if len(typed) == 0 {
		return fmt.Errorf("no TYPE lines")
	}
	return nil
}

// splitSample splits `name{labels} value` or `name value`, validating
// label quoting.
func splitSample(line string) (name, value string, ok bool) {
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", "", false
		}
		labels := line[i+1 : j]
		// every label must be k="v" with escaped quotes inside
		for _, kv := range strings.Split(labels, ",") {
			eq := strings.IndexByte(kv, '=')
			if eq < 1 {
				return "", "", false
			}
			v := kv[eq+1:]
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return "", "", false
			}
			inner := v[1 : len(v)-1]
			for k := 0; k < len(inner); k++ {
				if inner[k] == '\\' {
					if k+1 >= len(inner) {
						return "", "", false
					}
					switch inner[k+1] {
					case '\\', '"', 'n':
						k++
					default:
						return "", "", false
					}
				} else if inner[k] == '"' {
					return "", "", false
				}
			}
		}
		return line[:i], strings.TrimSpace(line[j+1:]), true
	}
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return "", "", false
	}
	return line[:sp], strings.TrimSpace(line[sp+1:]), true
}

// TestQueriesTracesAndSlowlog reads a query admitted through the
// embedded API back from the introspection routes: the live list, the
// trace listing, the trace itself as Chrome trace-event JSON, and the
// slow-query ring.
func TestQueriesTracesAndSlowlog(t *testing.T) {
	db, base := bootServer(t, func(cfg *core.Config) {
		cfg.SlowQueryThreshold = time.Nanosecond // everything is slow
	})
	db.Cluster().SetSlowQueryLogOutput(io.Discard)
	seedReviews(t, base, 5)
	res, err := db.Query(`for $r in dataset Reviews return $r.id`)
	if err != nil {
		t.Fatal(err)
	}
	qid := res.Stats.QueryID

	code, body := get(t, base+"/queries")
	if code != http.StatusOK {
		t.Fatalf("/queries status %d", code)
	}
	var active []map[string]any
	if err := json.Unmarshal([]byte(body), &active); err != nil {
		t.Fatalf("/queries not JSON: %v", err)
	}

	code, body = get(t, base+"/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces status %d", code)
	}
	var traces []struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("/traces not JSON: %v", err)
	}
	found := false
	for _, tr := range traces {
		found = found || tr.ID == qid
	}
	if !found {
		t.Fatalf("/traces missing query %d:\n%s", qid, body)
	}

	code, body = get(t, fmt.Sprintf("%s/traces/%d", base, qid))
	if code != http.StatusOK {
		t.Fatalf("/traces/{id} status %d", code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace export not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace export empty")
	}

	code, body = get(t, base+"/slowlog")
	if code != http.StatusOK {
		t.Fatalf("/slowlog status %d", code)
	}
	var slow []struct {
		QueryID uint64 `json:"query_id"`
	}
	if err := json.Unmarshal([]byte(body), &slow); err != nil {
		t.Fatalf("/slowlog not JSON: %v", err)
	}
	found = false
	for _, rec := range slow {
		found = found || rec.QueryID == qid
	}
	if !found {
		t.Fatalf("/slowlog missing query %d:\n%s", qid, body)
	}
}

// TestErrorBodies: every route that refuses a request answers with the
// wire error object, its status repeated in the body.
func TestErrorBodies(t *testing.T) {
	_, base := bootServer(t, nil)
	seedReviews(t, base, 5)
	for _, tc := range []struct {
		method, path, body string
		status             int
		code               string
	}{
		{"POST", "/query", `for $r in`, 400, "bad-query"},
		{"POST", "/sessions", `{"dataverse": `, 400, "bad-query"},
		{"POST", "/sessions", `{"dataverse": "NoSuch"}`, 404, "not-found"},
		{"DELETE", "/sessions/" + strings.Repeat("ab", 16), "", 404, "not-found"},
		{"POST", "/ingest/Nope", `{"id": 1}`, 404, "not-found"},
		{"POST", "/queries/nope/cancel", "", 400, "bad-query"},
		{"POST", "/queries/424242/cancel", "", 404, "not-found"},
		{"GET", "/traces/nope", "", 400, "bad-query"},
		{"GET", "/traces/999999999", "", 404, "not-found"},
	} {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			we := decodeErrorBody(t, resp)
			if we.Code != tc.code || we.Status != tc.status || we.Message == "" {
				t.Errorf("error body = %+v, want code %q, http_status %d and a message", we, tc.code, tc.status)
			}
		})
	}
	// GET on the cancel route must not cancel: the route is method-scoped.
	if code, _ := get(t, base+"/queries/424242/cancel"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET on cancel route: status %d, want 405", code)
	}
}

func TestPprofEndpoint(t *testing.T) {
	_, base := bootServer(t, nil)
	code, body := get(t, base+"/debug/pprof/goroutine?debug=1")
	if code != http.StatusOK {
		t.Fatalf("pprof status %d", code)
	}
	if !strings.Contains(body, "goroutine profile:") {
		t.Fatalf("unexpected pprof payload:\n%.200s", body)
	}
}

// TestGracefulShutdownDrainsListener: after Close the one port is
// released, so new connections are refused.
func TestGracefulShutdownDrainsListener(t *testing.T) {
	db, base := bootServer(t, nil)
	addr := strings.TrimPrefix(base, "http://")
	if code, _ := get(t, base+"/metrics"); code != http.StatusOK {
		t.Fatal("server not serving before shutdown")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("listener still accepting after Close")
	}
}
