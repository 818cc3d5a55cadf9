// Command simdbd serves a SimDB database over HTTP/JSON:
//
//	simdbd -data ./mydb -addr :8095
//
// Clients create sessions (POST /sessions), run AQL (POST /query) and
// read results as a chunked NDJSON stream, bulk-ingest records (POST
// /ingest/{dataset}), and cancel in-flight queries by ID; the same port
// serves /metrics, /traces, /slowlog and /debug/pprof. Admission
// rejections come back as 503 + Retry-After, execution deadlines as
// 504, and parse/plan errors as structured 400s. SIGINT/SIGTERM drains
// gracefully: the listener closes, in-flight queries finish under
// -drain-timeout, then the database shuts down.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"simdb/internal/core"
)

func main() {
	// The tcp transport re-executes this binary as worker processes; the
	// hook must run before flag parsing.
	core.MaybeRunWorker()
	var (
		dataDir   = flag.String("data", "", "database directory (required)")
		addr      = flag.String("addr", ":8095", "serve address (host:port; :0 picks a free port)")
		nodes     = flag.Int("nodes", 2, "simulated node count")
		parts     = flag.Int("parts", 2, "partitions per node")
		transport = flag.String("transport", "", `frame transport: "inproc" (default) or "tcp"`)
		maxConc   = flag.Int("max-concurrent", 0, "admission bound on concurrent queries (0 = engine default)")
		admitTO   = flag.Duration("admission-timeout", 2*time.Second, "max admission wait before a 503 (0 = wait forever)")
		queryTO   = flag.Duration("query-timeout", 0, "per-query execution deadline (0 = none)")
		drainTO   = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound on shutdown")
		maxSess   = flag.Int("max-sessions", 0, "session-table cap (0 = default 1024)")
		sessIdle  = flag.Duration("session-idle-timeout", 0, "idle session eviction (0 = default 15m)")
	)
	flag.Parse()
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "simdbd: -data is required")
		os.Exit(2)
	}
	cfg := core.Config{
		DataDir:              *dataDir,
		NumNodes:             *nodes,
		PartitionsPerNode:    *parts,
		Transport:            *transport,
		MaxConcurrentQueries: *maxConc,
		AdmissionTimeout:     *admitTO,
		QueryTimeout:         *queryTO,
		ServeAddr:            *addr,
	}
	cfg.Serve.DrainTimeout = *drainTO
	cfg.Serve.MaxSessions = *maxSess
	cfg.Serve.SessionIdleTimeout = *sessIdle

	db, err := core.Open(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simdbd:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "simdbd serving on http://%s/\n", db.ServeAddr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "simdbd: %s — draining (up to %s)\n", s, *drainTO)
	// Close drains the listener first (in-flight queries finish), then
	// stops the cluster.
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "simdbd: shutdown:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "simdbd: drained, bye")
}
