// Package simdbd is SimDB's HTTP/JSON front end, the database's one
// HTTP server: the wire that turns the embedded engine into a
// multi-user service.
// Clients create sessions (the same use/set surface the REPL carries,
// bound to a token, optionally pinned to one tenant dataverse), submit
// AQL over POST /query, and read results as a chunked NDJSON stream —
// every row is forwarded the moment the engine's collector sees it, so
// the first row reaches the client while later ones are still being
// produced and per-request buffering stays bounded by a frame multiple
// rather than the result size. The engine's typed serving errors map
// onto HTTP statuses (admission exhaustion → 503 + Retry-After,
// execution deadline → 504, parse/plan errors → 400 with a structured
// payload), client disconnects cancel the query through the request
// context, and shutdown drains: the listener closes, in-flight queries
// finish under their own deadlines, then the server exits.
//
// The same listener carries the admin and introspection routes: the
// Prometheus exposition (GET /metrics), the live query list and
// cancellation by ID (GET /queries, POST /queries/{id}/cancel — any
// query, whether it came in here or through the embedded API), recent
// query traces as Chrome trace-event JSON (GET /traces, /traces/{id}),
// the slow-query log (GET /slowlog) and net/http/pprof.
package simdbd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"simdb/internal/adm"
	"simdb/internal/aqlp"
	"simdb/internal/cluster"
	"simdb/internal/obs"
)

// Serving metrics (process-wide obs registry, exported at /metrics as
// simdb_simdbd_http_*).
var (
	mRequests     = obs.C("simdbd.http.requests")
	mRows         = obs.C("simdbd.http.rows_streamed")
	mBytes        = obs.C("simdbd.http.bytes_streamed")
	mIngested     = obs.C("simdbd.http.ingest_records")
	mStreamErrors = obs.C("simdbd.http.stream_errors")
	mDisconnects  = obs.C("simdbd.http.client_disconnects")
	mStatus2xx    = obs.C("simdbd.http.status_2xx")
	mStatus4xx    = obs.C("simdbd.http.status_4xx")
	mStatus5xx    = obs.C("simdbd.http.status_5xx")
	mStatus503    = obs.C("simdbd.http.status_503")
	mStatus504    = obs.C("simdbd.http.status_504")
	mReqLatency   = obs.H("simdbd.http.request_ns")
	mSessions     = obs.G("simdbd.http.sessions")
	mInflight     = obs.G("simdbd.http.inflight")
)

// Config tunes the serving front end; it is the Serve field of the
// database configuration.
type Config = cluster.ServeConfig

// withDefaults fills the unset fields of c.
func withDefaults(c Config) Config {
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.SessionIdleTimeout <= 0 {
		c.SessionIdleTimeout = 15 * time.Minute
	}
	return c
}

// Server is the running HTTP front end of one cluster.
type Server struct {
	c        *cluster.Cluster
	cfg      Config
	ln       net.Listener
	http     *http.Server
	sessions *sessionStore
	done     chan struct{}
}

// Start binds addr (host:port; ":0" picks a free port) and serves every
// route for c until Shutdown.
func Start(addr string, c *cluster.Cluster, cfg Config) (*Server, error) {
	cfg = withDefaults(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("simdbd: listen %s: %w", addr, err)
	}
	s := &Server{
		c:        c,
		cfg:      cfg,
		ln:       ln,
		sessions: newSessionStore(cfg.MaxSessions, cfg.SessionIdleTimeout),
		done:     make(chan struct{}),
	}
	s.http = &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// Without an explicit IdleTimeout, ReadHeaderTimeout doubles as the
		// idle keep-alive deadline, reaping pooled client connections after
		// 10s and racing their reuse (POSTs then fail with EOF and are not
		// retried by net/http).
		IdleTimeout: 2 * time.Minute,
	}
	go func() {
		defer close(s.done)
		if err := s.http.Serve(ln); err != nil && err != http.ErrServerClosed {
			obs.Log().Error("simdbd server failed", "addr", addr, "err", err)
		}
	}()
	obs.Log().Info("simdbd serving", "addr", ln.Addr().String())
	return s, nil
}

// Addr returns the bound address (resolves ":0" to the real port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown drains gracefully: the listener stops accepting, in-flight
// requests (including open result streams) run to completion under
// their own deadlines, and only then does the serve goroutine exit. If
// ctx expires first, remaining connections are closed hard — which
// cancels their queries through the request contexts.
func (s *Server) Shutdown(ctx context.Context) error {
	s.sessions.stop()
	err := s.http.Shutdown(ctx)
	if err != nil {
		// Drain deadline hit: sever the stragglers. Their handlers see
		// write failures and canceled request contexts, so the queries
		// abort and release admission slots and memory grants.
		closeErr := s.http.Close()
		<-s.done
		if closeErr != nil {
			return fmt.Errorf("simdbd: drain: %w (close: %w)", err, closeErr)
		}
		return fmt.Errorf("simdbd: drain: %w", err)
	}
	<-s.done
	return nil
}

// Close drains with the configured DrainTimeout.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}

func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /sessions", s.handleSessionCreate)
	mux.HandleFunc("DELETE /sessions/{token}", s.handleSessionClose)
	mux.HandleFunc("POST /ingest/{dataset}", s.handleIngest)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /queries", s.handleQueries)
	mux.HandleFunc("POST /queries/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /traces", s.handleTraces)
	mux.HandleFunc("GET /traces/{id}", s.handleTrace)
	mux.HandleFunc("GET /slowlog", s.handleSlowlog)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w}
		mux.ServeHTTP(sr, r)
		countStatus(sr.status)
	})
}

// statusRecorder notes the status a route answered with, so the mux
// boundary counts every response once, net/http/pprof's included. Zero
// means no WriteHeader call: net/http's implicit 200. A handler whose
// outcome differs from its status line (an error record ending a stream
// that began under 200) overwrites status before it returns.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

// Flush keeps NDJSON streaming: each row still reaches the wire as it is
// produced.
func (sr *statusRecorder) Flush() {
	if fl, ok := sr.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `simdbd: the SimDB HTTP front end

POST   /query                  run AQL; NDJSON stream: {"row":...}* then {"summary":...}|{"error":...}
POST   /sessions               create a session ({"dataverse": "X"} pins a tenant); token in response
DELETE /sessions/{token}       close a session
POST   /ingest/{dataset}       bulk-ingest NDJSON records into a dataset (session's dataverse)
GET    /healthz                liveness
GET    /metrics                Prometheus text exposition
GET    /queries                active queries (id, text, phase, elapsed, mem)
POST   /queries/{id}/cancel    cancel an in-flight query, however it was submitted
GET    /traces                 recent query traces (newest first)
GET    /traces/{id}            one trace as Chrome trace-event JSON (Perfetto)
GET    /slowlog                recent queries, slowest first
GET    /debug/pprof/           pprof index (queries carry a query_id label)
`)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"sessions": s.sessions.count(),
	})
}

// sessionCreateRequest is the optional JSON body of POST /sessions.
type sessionCreateRequest struct {
	// Dataverse pins the session to one dataverse (per-tenant scoping):
	// `use` of any other dataverse — and dataverse DDL — is refused with
	// 403 for the session's lifetime. Empty: unrestricted, starting in
	// Default.
	Dataverse string `json:"dataverse"`
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req sessionCreateRequest
	// An empty body, sized or chunked, is the empty request.
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		s.fail(w, wireErrf(codeBadQuery, http.StatusBadRequest,
			fmt.Sprintf("simdbd: bad session request: %v", err)))
		return
	}
	if req.Dataverse != "" && !s.c.Catalog.HasDataverse(req.Dataverse) {
		s.fail(w, wireErrf(codeNotFound, http.StatusNotFound,
			fmt.Sprintf("simdbd: unknown dataverse %q", req.Dataverse)))
		return
	}
	ss, werr := s.sessions.create(req.Dataverse)
	if werr != nil {
		s.fail(w, werr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"session":   ss.id,
		"dataverse": ss.sess.Dataverse,
		"tenant":    ss.tenant != "",
	})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	tok := r.PathValue("token")
	if !s.sessions.close(tok) {
		s.fail(w, wireErrf(codeNotFound, http.StatusNotFound, "simdbd: unknown session"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"closed": tok})
}

// tenantViolation screens a request's statements against a session's
// tenant pin before execution: `use` of another dataverse and
// dataverse DDL are refused. Parse errors pass through — the engine
// reports them as proper 400s with its own message.
func tenantViolation(tenant, stmt string) *wireError {
	if tenant == "" {
		return nil
	}
	q, err := aqlp.Parse(stmt)
	if err != nil {
		return nil
	}
	for _, st := range q.Stmts {
		switch s := st.(type) {
		case aqlp.UseStmt:
			if s.Dataverse != tenant {
				return wireErrf(codeForbidden, http.StatusForbidden,
					fmt.Sprintf("simdbd: session is scoped to dataverse %q", tenant))
			}
		case aqlp.CreateDataverseStmt:
			return wireErrf(codeForbidden, http.StatusForbidden,
				"simdbd: tenant sessions cannot create dataverses")
		}
	}
	return nil
}

// handleQuery runs one AQL request and streams its result. The row
// callback runs on the engine's result-sink goroutine while the job is
// still executing: rows reach the wire (with a flush each) as they are
// produced, and a stalled client backpressures the job through the
// runtime's bounded frame channels instead of growing a server-side
// buffer.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	mRequests.Inc()
	mInflight.Add(1)
	defer mInflight.Add(-1)
	defer func() { mReqLatency.Observe(time.Since(t0).Nanoseconds()) }()

	stmt, err := decodeStatement(r.Header.Get("Content-Type"), r.Body, maxRequestBytes)
	if err != nil {
		status := http.StatusBadRequest
		if err == errMaxBody {
			status = http.StatusRequestEntityTooLarge
		}
		s.fail(w, wireErrf(codeBadQuery, status, err.Error()))
		return
	}
	ss, release, werr := s.sessions.acquire(r.Header.Get(SessionHeader))
	if werr != nil {
		s.fail(w, werr)
		return
	}
	defer release()
	if werr := tenantViolation(ss.tenant, stmt); werr != nil {
		s.fail(w, werr)
		return
	}

	sw := &streamWriter{w: w}
	res, err := s.c.ExecuteStream(r.Context(), ss.sess, stmt, cluster.StreamHandler{
		OnQueryID: func(id uint64) { sw.queryID = id },
		OnRow:     sw.row,
	})
	if err != nil {
		we := classify(err)
		if r.Context().Err() != nil {
			mDisconnects.Inc()
		}
		if sw.started {
			// Rows already went out under a 200: terminate the stream with
			// an error record instead of a status line.
			mStreamErrors.Inc()
			if sr, ok := w.(*statusRecorder); ok {
				sr.status = we.Status
			}
			sw.writeRecord(errorRecord{Error: we})
			return
		}
		s.fail(w, we)
		return
	}
	sum := summaryRecord{Summary: querySummary{
		QueryID:      res.Stats.QueryID,
		Rows:         res.Stats.RowsOut,
		WallNs:       time.Since(t0).Nanoseconds(),
		ExecNs:       res.Stats.ExecNs,
		AdmissionNs:  res.Stats.AdmissionNs,
		PlanCacheHit: res.Stats.PlanCacheHit,
		MemBudget:    res.Stats.MemBudget,
		MemHighWater: res.Stats.MemHighWater,
		SpillRuns:    res.Stats.SpillRuns,
	}}
	sw.start() // zero-row queries still open the stream
	sw.writeRecord(sum)
}

// handleIngest bulk-loads NDJSON records into a dataset through the
// partition-parallel ingestion pipeline, reading the request body
// incrementally in batches (the body is never materialized whole).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	mInflight.Add(1)
	defer mInflight.Add(-1)
	ds := r.PathValue("dataset")
	ss, release, werr := s.sessions.acquire(r.Header.Get(SessionHeader))
	if werr != nil {
		s.fail(w, werr)
		return
	}
	defer release()
	dv := ss.sess.Dataverse
	if _, ok := s.c.Catalog.Dataset(dv, ds); !ok {
		s.fail(w, wireErrf(codeNotFound, http.StatusNotFound,
			fmt.Sprintf("simdbd: unknown dataset %s.%s", dv, ds)))
		return
	}
	n, err := s.c.LoadJSONLines(dv, ds, r.Body)
	mIngested.Add(int64(n))
	if err != nil {
		s.fail(w, wireErrf(codeBadQuery, http.StatusBadRequest,
			fmt.Sprintf("simdbd: ingest after %d records: %v", n, err)))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"inserted": n})
}

// streamWriter renders the NDJSON response. row/writeRecord run on the
// result-sink goroutine during execution and on the handler goroutine
// after it; the engine joins all job goroutines before ExecuteStream
// returns, so the fields need no locks.
type streamWriter struct {
	w       http.ResponseWriter
	queryID uint64
	started bool
}

// start sends the 200 header block once.
func (sw *streamWriter) start() {
	if sw.started {
		return
	}
	sw.started = true
	h := sw.w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	h.Set(QueryIDHeader, fmt.Sprint(sw.queryID))
	sw.w.WriteHeader(http.StatusOK)
}

// row streams one result row and flushes it to the wire.
func (sw *streamWriter) row(v adm.Value) error {
	sw.start()
	if err := sw.writeRecord(rowRecord{Row: adm.ToJSONish(v)}); err != nil {
		return err
	}
	mRows.Inc()
	return nil
}

// writeRecord emits one NDJSON record and flushes.
func (sw *streamWriter) writeRecord(rec any) error {
	buf, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if _, err := sw.w.Write(buf); err != nil {
		return err
	}
	mBytes.Add(int64(len(buf)))
	if fl, ok := sw.w.(http.Flusher); ok {
		fl.Flush()
	}
	return nil
}

// fail writes a structured error response with the mapped HTTP status
// (Retry-After on 503s).
func (s *Server) fail(w http.ResponseWriter, we *wireError) {
	if we.RetryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprint(we.RetryAfter))
	}
	if we.QueryID != 0 {
		w.Header().Set(QueryIDHeader, fmt.Sprint(we.QueryID))
	}
	status := we.Status
	if status == statusClientClosed {
		// Non-standard; the client is gone, but net/http needs something
		// real on the wire for the connection teardown.
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, errorRecord{Error: we})
}

// countStatus feeds the per-class status counters, once per response.
func countStatus(status int) {
	switch {
	case status == http.StatusServiceUnavailable:
		mStatus503.Inc()
		mStatus5xx.Inc()
	case status == http.StatusGatewayTimeout:
		mStatus504.Inc()
		mStatus5xx.Inc()
	case status >= 500 || status == statusClientClosed:
		mStatus5xx.Inc()
	case status >= 400:
		mStatus4xx.Inc()
	default: // 2xx, and 0: a response that never called WriteHeader
		mStatus2xx.Inc()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		obs.Log().Error("simdbd response encode failed", "err", err)
	}
}
