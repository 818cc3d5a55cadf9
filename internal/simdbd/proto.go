// Wire protocol of the simdbd query server.
//
// Requests: POST /query carries one AQL request, either as a JSON
// envelope {"statement": "..."} (Content-Type: application/json) or as
// raw AQL text (any other Content-Type). The optional X-SimDB-Session
// header binds the request to a server-side session created with
// POST /sessions; requests without it run in a throwaway session.
//
// Responses stream as NDJSON (application/x-ndjson): zero or more
// row records, then exactly one terminal record —
//
//	{"row": <value>}
//	{"summary": {"query_id": 7, "rows": 2, ...}}
//
// or, when the query fails after rows already went out, an error
// record in place of the summary:
//
//	{"error": {"code": "query-timeout", "http_status": 504, ...}}
//
// Failures before the first row use the HTTP status line instead
// (400/403/404/429/503/504/500) with the same error object as the
// body, and 503 carries a Retry-After header.
package simdbd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"strings"
)

// SessionHeader names the request header carrying a session token.
const SessionHeader = "X-SimDB-Session"

// QueryIDHeader names the response header carrying the stable query ID,
// sent before the first row so clients can cancel mid-stream.
const QueryIDHeader = "X-Simdb-Query-Id"

// queryEnvelope is the JSON request body of POST /query.
type queryEnvelope struct {
	Statement string `json:"statement"`
}

// rowRecord is one streamed result row.
type rowRecord struct {
	Row any `json:"row"`
}

// summaryRecord terminates a successful stream.
type summaryRecord struct {
	Summary querySummary `json:"summary"`
}

// querySummary is the terminal stats object of a successful query.
type querySummary struct {
	QueryID      uint64 `json:"query_id"`
	Rows         int64  `json:"rows"`
	WallNs       int64  `json:"wall_ns"`
	ExecNs       int64  `json:"exec_ns"`
	AdmissionNs  int64  `json:"admission_ns"`
	PlanCacheHit bool   `json:"plan_cache_hit"`
	MemBudget    int64  `json:"mem_budget,omitempty"`
	MemHighWater int64  `json:"mem_high_water,omitempty"`
	SpillRuns    int64  `json:"spill_runs,omitempty"`
}

// errorRecord terminates a failed stream (or bodies a failed request).
type errorRecord struct {
	Error *wireError `json:"error"`
}

// wireError is the structured error payload: a stable machine-readable
// code, the HTTP status the server chose (repeated in the body so
// mid-stream failures — where the 200 status line is already out — stay
// classifiable), the engine's message, and the query ID when one was
// assigned.
type wireError struct {
	Code       string `json:"code"`
	Status     int    `json:"http_status"`
	Message    string `json:"message"`
	QueryID    uint64 `json:"query_id,omitempty"`
	RetryAfter int    `json:"retry_after_s,omitempty"`
}

// errMaxBody marks a request body over the configured limit.
var errMaxBody = errors.New("simdbd: request body too large")

// decodeStatement extracts the AQL request text from a /query body.
// JSON bodies must be a {"statement": "..."} envelope; anything else is
// treated as raw AQL text. The read is capped at maxBytes.
func decodeStatement(contentType string, body io.Reader, maxBytes int64) (string, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	lr := &io.LimitedReader{R: body, N: maxBytes + 1}
	raw, err := io.ReadAll(lr)
	if err != nil {
		return "", fmt.Errorf("simdbd: read request body: %w", err)
	}
	if int64(len(raw)) > maxBytes {
		return "", errMaxBody
	}
	mt := contentType
	if mt != "" {
		if parsed, _, err := mime.ParseMediaType(contentType); err == nil {
			mt = parsed
		}
	}
	var stmt string
	if mt == "application/json" {
		var env queryEnvelope
		dec := json.NewDecoder(strings.NewReader(string(raw)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&env); err != nil {
			return "", fmt.Errorf("simdbd: bad query envelope: %w", err)
		}
		if dec.More() {
			return "", fmt.Errorf("simdbd: trailing data after query envelope")
		}
		stmt = env.Statement
	} else {
		stmt = string(raw)
	}
	if strings.TrimSpace(stmt) == "" {
		return "", fmt.Errorf("simdbd: empty statement")
	}
	return stmt, nil
}

// validSessionToken reports whether a session header value has the
// shape issued by POST /sessions: 32 lowercase hex digits. Checking the
// shape before the map lookup keeps attacker-controlled tokens out of
// error messages and rejects header junk early.
func validSessionToken(tok string) bool {
	if len(tok) != 32 {
		return false
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
