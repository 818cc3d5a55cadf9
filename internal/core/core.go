// Package core is SimDB's public embedding API: open a database, run
// AQL (including DDL, similarity queries, and AQL+ machinery under the
// hood), inspect plans and statistics, and load data. It wraps the
// simulated cluster with a stable, documented surface that the
// examples, CLI, and benchmark harness all use. Its Config is the
// cluster's own configuration struct, so every setting is declared,
// defaulted and documented once, in internal/cluster; Open adds only
// the optional HTTP front end (Config.ServeAddr).
//
// Quick start:
//
//	db, err := core.Open(core.Config{DataDir: dir})
//	defer db.Close()
//	db.MustExecute(`create dataset Reviews primary key id;`)
//	db.InsertJSON("Reviews", `{"id": 1, "summary": "great product"}`)
//	res, err := db.Query(`
//	    for $r in dataset Reviews
//	    where similarity-jaccard(word-tokens($r.summary),
//	                             word-tokens('great products')) >= 0.5
//	    return $r.id`)
package core

import (
	"context"
	"os"

	"simdb/internal/adm"
	"simdb/internal/algebra"
	"simdb/internal/cluster"
	"simdb/internal/invindex"
	"simdb/internal/obs"
	"simdb/internal/optimizer"
	"simdb/internal/simdbd"
)

// Config configures a Database. It is cluster.Config, the one
// configuration struct: each setting is declared, defaulted and
// documented there, and zero values take its defaults.
type Config = cluster.Config

// Database is an open SimDB instance.
type Database struct {
	c   *cluster.Cluster
	srv *simdbd.Server
}

// Result is a query result: one ADM value per row plus the execution
// profile (plan, per-stage timings, network bytes, index candidates).
type Result = cluster.Result

// Session carries use/set state and optimizer option overrides across
// statements, like one AsterixDB client connection.
type Session = cluster.Session

// OptimizerOptions re-exports the ablation knobs.
type OptimizerOptions = optimizer.Options

// MaybeRunWorker checks whether this process was launched as a
// tcp-transport worker (the coordinator sets an environment marker on
// the child it spawns) and, if so, runs the worker loop and exits —
// never returning. Binaries that open a database with Transport "tcp"
// must call this at the top of main, before flag parsing.
func MaybeRunWorker() {
	cluster.MaybeRunWorker()
}

// Open creates (or reopens) a database under cfg.DataDir and, when
// cfg.ServeAddr is set, starts the simdbd HTTP front end on it.
func Open(cfg Config) (*Database, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	db := &Database{c: c}
	if cfg.ServeAddr != "" {
		db.srv, err = simdbd.Start(cfg.ServeAddr, c, cfg.Serve)
		if err != nil {
			c.Close()
			return nil, err
		}
	}
	return db, nil
}

// Close shuts the database down: the HTTP front end drains first (stop
// accepting, let in-flight queries finish under its configured
// DrainTimeout), then the cluster flushes and stops.
func (db *Database) Close() error {
	if db.srv != nil {
		if err := db.srv.Close(); err != nil {
			obs.Log().Error("serve front end shutdown failed", "err", err)
		}
		db.srv = nil
	}
	return db.c.Close()
}

// ServeAddr returns the HTTP front end's bound address (""
// when Config.ServeAddr was unset). With ":0" this resolves the real
// port.
func (db *Database) ServeAddr() string {
	if db.srv == nil {
		return ""
	}
	return db.srv.Addr()
}

// ExecuteStream runs an AQL request like Execute but delivers result
// rows through h as the job produces them instead of buffering them
// into Result.Rows (which stays nil; Stats.RowsOut still counts them).
// A slow h.OnRow backpressures the job through the runtime's bounded
// frame channels; an OnRow error aborts the query.
func (db *Database) ExecuteStream(ctx context.Context, sess *Session, aql string, h cluster.StreamHandler) (*Result, error) {
	return db.c.ExecuteStream(ctx, sess, aql, h)
}

// StreamHandler re-exports the streaming delivery callbacks.
type StreamHandler = cluster.StreamHandler

// Cluster exposes the underlying simulated cluster for advanced use
// (index statistics, per-node cache counters, direct job generation).
func (db *Database) Cluster() *cluster.Cluster { return db.c }

// NewSession returns a fresh session bound to the Default dataverse.
func (db *Database) NewSession() *Session { return cluster.NewSession() }

// Execute runs an AQL request in a session (nil for a throwaway one)
// and returns its result. DDL-only requests return empty Rows.
func (db *Database) Execute(ctx context.Context, sess *Session, aql string) (*Result, error) {
	return db.c.Execute(ctx, sess, aql)
}

// Query runs AQL with a default session and background context.
func (db *Database) Query(aql string) (*Result, error) {
	return db.Execute(context.Background(), nil, aql)
}

// MustExecute runs AQL and panics on error; for setup code in examples
// and tests.
func (db *Database) MustExecute(aql string) *Result {
	res, err := db.Query(aql)
	if err != nil {
		panic(err)
	}
	return res
}

// Insert adds one record to a dataset in the Default dataverse.
func (db *Database) Insert(dataset string, rec adm.Value) error {
	return db.c.Insert("Default", dataset, rec)
}

// InsertBatch ingests records through the partition-parallel pipeline:
// records are hash-routed to per-partition workers that tokenize and
// apply primary and secondary-index entries together. Substantially
// faster than per-record Insert for bulk loads; per-record failures
// are joined into the returned error while the rest of the batch still
// lands.
func (db *Database) InsertBatch(dataset string, recs []adm.Value) error {
	return db.c.InsertBatch("Default", dataset, recs)
}

// InsertJSON parses a JSON object and inserts it.
func (db *Database) InsertJSON(dataset, jsonDoc string) error {
	v, err := adm.FromJSON([]byte(jsonDoc))
	if err != nil {
		return err
	}
	return db.Insert(dataset, v)
}

// LoadJSONLines bulk-imports a newline-delimited JSON file into a
// dataset through the batched ingestion pipeline, flushing at the end.
// It returns the record count.
func (db *Database) LoadJSONLines(dataset, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := db.c.LoadJSONLines("Default", dataset, f)
	if err != nil {
		return n, err
	}
	return n, db.c.FlushAll()
}

// Flush forces all in-memory LSM components to disk.
func (db *Database) Flush() error { return db.c.FlushAll() }

// IndexFootprint reports an index's total on-disk bytes and entry count
// (pass "" for the dataset's primary index). Table 5 uses this.
func (db *Database) IndexFootprint(dataset, index string) (bytes, entries int64, err error) {
	s, err := db.c.IndexStats("Default", dataset, index)
	if err != nil {
		return 0, 0, err
	}
	return s.DiskBytes, s.DiskEntries, nil
}

// PlanCacheStats reports the compiled-plan cache's counters.
func (db *Database) PlanCacheStats() cluster.PlanCacheStats {
	return db.c.PlanCache().Stats()
}

// ServingStats reports the admission controller's counters.
func (db *Database) ServingStats() cluster.QueryManagerStats {
	return db.c.QueryManager().Stats()
}

// Metrics returns a point-in-time snapshot of every process-wide
// counter, gauge, and latency histogram: query throughput and latency
// quantiles, storage flush/merge activity, buffer-cache and
// bloom-filter effectiveness, plan-cache and admission counters.
func (db *Database) Metrics() obs.Snapshot { return db.c.Metrics() }

// SetLogLevel sets the process-wide structured logger's level
// ("debug", "info", "warn", "error", "off"; default off, also settable
// via the SIMDB_LOG environment variable).
func (db *Database) SetLogLevel(level string) {
	obs.Log().SetLevel(obs.ParseLevel(level))
}

// SetTOccurrence switches the inverted-index merge algorithm at run
// time ("scancount", "mergeskip", "divideskip").
func (db *Database) SetTOccurrence(name string) error {
	algo, err := invindex.ParseAlgorithm(name)
	if err != nil {
		return err
	}
	db.c.SetTOccurrenceAlgorithm(algo)
	return nil
}

// Explained describes a compiled (not executed) query plan.
type Explained struct {
	PlanOps     int
	Plan        string
	KindCounts  map[string]int
	TranslateNs int64
	OptimizeNs  int64
}

// Explain compiles a request (use/set statements, then a query) and
// reports its optimized plan, the plan `explain` prints and the run
// executes: the operator total and per-kind counts reproduce the paper's
// Figure 15, and the timing split its §6.4.1 compile-overhead discussion.
func (db *Database) Explain(sess *Session, aql string) (*Explained, error) {
	plan, stats, err := db.c.Compile(sess, aql)
	if err != nil {
		return nil, err
	}
	counts := map[string]int{}
	algebra.Walk(plan, func(op *algebra.Op) { counts[op.Kind.String()]++ })
	return &Explained{
		PlanOps:     stats.PlanOps,
		Plan:        stats.LogicalPlan,
		KindCounts:  counts,
		TranslateNs: stats.TranslateNs,
		OptimizeNs:  stats.OptimizeNs,
	}, nil
}
