// Package debugsrv is SimDB's opt-in introspection HTTP server: a
// single listener (Config.DebugAddr) exposing Prometheus metrics, the
// live query list with cancellation, recent query traces as Chrome
// trace-event JSON, the slow-query log, and net/http/pprof. It is the
// first real network front end of the system — the listener lifecycle
// (bind, serve, drain) is the skeleton a future query-serving port
// builds on.
package debugsrv

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"simdb/internal/cluster"
	"simdb/internal/obs"
	"simdb/internal/obs/trace"
)

// Server is a running introspection server bound to one cluster.
type Server struct {
	c    *cluster.Cluster
	ln   net.Listener
	http *http.Server
	done chan struct{}
}

// Start binds addr (host:port, ":0" picks a free port) and serves the
// introspection endpoints for c until Shutdown.
func Start(addr string, c *cluster.Cluster) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debugsrv: listen %s: %w", addr, err)
	}
	s := &Server{c: c, ln: ln, done: make(chan struct{})}
	s.http = &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		defer close(s.done)
		if err := s.http.Serve(ln); err != nil && err != http.ErrServerClosed {
			obs.Log().Error("debug server failed", "addr", addr, "err", err)
		}
	}()
	obs.Log().Info("debug server listening", "addr", ln.Addr().String())
	return s, nil
}

// Addr returns the bound address (resolves ":0" to the real port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown gracefully drains the listener: in-flight requests finish
// (within ctx), new connections are refused, and the serve goroutine
// exits before Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	<-s.done
	return err
}

func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	MountQueryAdmin(mux, s.c)
	mux.HandleFunc("GET /traces", s.handleTraces)
	mux.HandleFunc("GET /traces/{id}", s.handleTrace)
	mux.HandleFunc("GET /slowlog", s.handleSlowlog)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	return mux
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `simdb introspection server

GET  /metrics              Prometheus text exposition
GET  /queries              active queries (id, text, phase, elapsed, mem)
POST /queries/{id}/cancel  cancel an in-flight query
GET  /traces               recent query traces (newest first)
GET  /traces/{id}          one trace as Chrome trace-event JSON (Perfetto)
GET  /slowlog              recent slow-query records
GET  /debug/pprof/         pprof index (queries carry a query_id label)
`)
}

// MountQueryAdmin registers the routes every HTTP front end of a
// cluster serves the same way — the introspection server here and the
// simdbd query server: GET /metrics (the refreshed metrics snapshot as
// Prometheus text exposition), GET /queries (the live query list) and
// POST /queries/{id}/cancel, which goes through the cluster's single
// queryID→cancel registry, so a query admitted through either front end
// is cancellable through both.
func MountQueryAdmin(mux *http.ServeMux, c *cluster.Cluster) {
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		snap := c.Metrics()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := snap.WritePrometheus(w); err != nil {
			obs.Log().Error("metrics write failed", "err", err)
		}
	})
	mux.HandleFunc("GET /queries", func(w http.ResponseWriter, _ *http.Request) {
		qs := c.ActiveQueries()
		if qs == nil {
			qs = []cluster.ActiveQueryInfo{}
		}
		writeWire(w, http.StatusOK, qs)
	})
	mux.HandleFunc("POST /queries/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad-query", fmt.Sprintf("bad query id %q", r.PathValue("id")))
			return
		}
		if !c.CancelQuery(id) {
			writeError(w, http.StatusNotFound, "not-found", fmt.Sprintf("no active query %d", id))
			return
		}
		writeWire(w, http.StatusOK, map[string]any{"canceled": id})
	})
}

// writeWire answers one of the shared routes: compact single-line JSON,
// as simdbd's line-oriented clients expect, under the given status.
func writeWire(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		obs.Log().Error("response encode failed", "err", err)
	}
}

// writeError answers with simdbd's wire error object (proto.go there).
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeWire(w, status, map[string]any{"error": map[string]any{
		"code": code, "http_status": status, "message": msg,
	}})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		obs.Log().Error("debug response encode failed", "err", err)
	}
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

func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	tc := s.c.Tracer()
	out := []traceSummary{}
	for _, t := range tc.Active() {
		out = append(out, summarize(t))
	}
	for _, t := range tc.Recent() {
		out = append(out, summarize(t))
	}
	writeJSON(w, out)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad trace id", http.StatusBadRequest)
		return
	}
	tc := s.c.Tracer()
	t, ok := tc.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no trace for query %d", id), http.StatusNotFound)
		return
	}
	buf, err := t.ChromeJSON(tc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf(`attachment; filename="simdb-query-%d-trace.json"`, id))
	_, _ = w.Write(buf)
}

func (s *Server) handleSlowlog(w http.ResponseWriter, _ *http.Request) {
	recs := s.c.SlowQueries()
	if recs == nil {
		recs = []cluster.SlowQueryRecord{}
	}
	writeJSON(w, recs)
}
