package simdbd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"simdb/internal/obs"
	"simdb/internal/obs/trace"
)

// handleMetrics answers GET /metrics: the refreshed metrics snapshot as
// Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.c.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := snap.WritePrometheus(w); err != nil {
		obs.Log().Error("metrics write failed", "err", err)
	}
}

// handleQueries answers GET /queries: the live query list.
func (s *Server) handleQueries(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.c.ActiveQueries())
}

// handleCancel answers POST /queries/{id}/cancel through the cluster's
// one queryID→cancel registry, so a query is cancellable here whether
// it came in over /query or through the embedded API.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		s.fail(w, wireErrf(codeBadQuery, http.StatusBadRequest,
			fmt.Sprintf("simdbd: bad query id %q", r.PathValue("id"))))
		return
	}
	if !s.c.CancelQuery(id) {
		s.fail(w, wireErrf(codeNotFound, http.StatusNotFound,
			fmt.Sprintf("simdbd: no active query %d", id)))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"canceled": id})
}

// traceSummary is one row of the GET /traces listing.
type traceSummary struct {
	ID     uint64 `json:"id"`
	Query  string `json:"query"`
	WallNs int64  `json:"wall_ns"`
	Spans  int    `json:"spans"`
	Done   bool   `json:"done"`
	Error  string `json:"error,omitempty"`
}

func summarize(t *trace.Trace) traceSummary {
	return traceSummary{
		ID:     t.ID,
		Query:  t.Query,
		WallNs: t.DurNs(),
		Spans:  len(t.Spans()),
		Done:   t.Done(),
		Error:  t.Err(),
	}
}

// handleTraces answers GET /traces: running queries' traces, then the
// retired ones, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	out := []traceSummary{}
	for _, t := range s.c.Traces() {
		out = append(out, summarize(t))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTrace answers GET /traces/{id}: one trace as Chrome trace-event
// JSON, offered as a download Perfetto opens.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		s.fail(w, wireErrf(codeBadQuery, http.StatusBadRequest,
			fmt.Sprintf("simdbd: bad trace id %q", r.PathValue("id"))))
		return
	}
	t, ok := s.c.Trace(id)
	if !ok {
		s.fail(w, wireErrf(codeNotFound, http.StatusNotFound,
			fmt.Sprintf("simdbd: no trace for query %d", id)))
		return
	}
	buf, err := t.ChromeJSON(s.c.Tracer())
	if err != nil {
		s.fail(w, wireErrf(codeInternal, http.StatusInternalServerError,
			fmt.Sprintf("simdbd: trace %d: %v", id, err)))
		return
	}
	w.Header().Set("Content-Disposition",
		fmt.Sprintf(`attachment; filename="simdb-query-%d-trace.json"`, id))
	writeJSON(w, http.StatusOK, json.RawMessage(buf))
}

// handleSlowlog answers GET /slowlog: the finished queries the tracer
// retains, slowest first.
func (s *Server) handleSlowlog(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.c.SlowQueries())
}
