// Package cluster simulates the paper's shared-nothing AsterixDB
// deployment inside one process: a cluster controller (coordinator)
// plus N node controllers, each owning on-disk storage partitions, a
// buffer cache, and a slice of every dataset and secondary index.
// Queries go through the full lifecycle — AQL parse, translate,
// rule-based optimization (including AQL+), job generation, parallel
// execution on the hyracks runtime — and return rows plus execution
// statistics.
package cluster

import (
	"time"

	"simdb/internal/storage"
)

// Config mirrors the paper's Table 2 knobs, scaled for a single-host
// simulation. It is the database's one configuration: core.Config is
// this type, and tcp workers receive it in their bootstrap. Zero values
// take the defaults WithDefaults fills in (2 nodes × 2 partitions,
// DivideSkip merging). Page size, stall bound and maintenance pool are
// constants (EXPERIMENTS.md, "The knob sweep").
type Config struct {
	// NumNodes is the simulated node-controller count (paper: 8).
	NumNodes int
	// PartitionsPerNode is the data partition count per node (paper: 2,
	// "to provide full I/O parallelism").
	PartitionsPerNode int
	// DataDir is the root directory for all node storage. Required.
	DataDir string
	// DiskBufferCacheBytes is the per-node buffer cache (paper: 2 GB).
	DiskBufferCacheBytes int64
	// MemComponentBudgetBytes is the in-memory LSM component budget per
	// dataset partition (paper: 1.5 GB per dataset per node).
	MemComponentBudgetBytes int64
	// TOccurrence names the inverted-index T-occurrence solver, as
	// invindex.ParseAlgorithm reads it: "divideskip" (the default),
	// "mergeskip" or "scancount". All three read posting lists through
	// seekable cursors and return the same candidates; DivideSkip merges
	// the short lists and probes the long ones, so it decodes the fewest
	// postings, and it won the paired sel_index runs against the other
	// two (EXPERIMENTS.md).
	TOccurrence string
	// MaxConcurrentQueries bounds admission: at most this many queries
	// execute at once; excess callers wait (default 64).
	MaxConcurrentQueries int
	// QueryTimeout caps each admitted query's execution; 0 disables.
	QueryTimeout time.Duration
	// AdmissionTimeout bounds how long a query may wait for an admission
	// slot. Past it the query fails with ErrAdmissionTimeout even if the
	// caller's context has no deadline — the load-shedding signal a
	// serving front end turns into 503 + Retry-After. 0 disables: waits
	// are bounded only by the caller's context.
	AdmissionTimeout time.Duration
	// WALSyncMode selects crash durability for ingestion. "commit" (the
	// default) fsyncs the per-partition write-ahead log before
	// acknowledging, with concurrent committers coalesced into one
	// fsync; "interval" acknowledges immediately and fsyncs on a timer
	// (every 25ms), trading the last interval's tail for latency;
	// "off" disables logging entirely — unflushed memtables die with
	// the process.
	WALSyncMode string
	// FS routes all storage file operations; nil uses the real
	// filesystem. Crash-recovery tests inject a fault-injecting
	// implementation. Must be nil under the tcp transport: a VFS cannot
	// cross process boundaries.
	FS storage.VFS
	// Transport selects how connector frames move between nodes:
	// "inproc" (the default) keeps every node in this process and moves
	// frames over channels, byte-identical to the pre-transport runtime;
	// "tcp" places node controllers 1..NumNodes-1 in child worker
	// processes and ships cross-node frames over real TCP loopback
	// connections.
	Transport string
	// FrameSize is the tuple batch size per connector send (0 takes
	// hyracks.DefaultFrameSize, 128). Only the simdbd streaming tests
	// set it, so that a small result spans many frames (4 000 rows in
	// frames of 8 in TestBoundedBuffering).
	FrameSize int
	// ServeAddr, when set (e.g. ":8095" or ":0"), makes core.Open start
	// the simdbd HTTP front end: sessions, streaming NDJSON query
	// results, bulk ingest, cancellation, /metrics, /queries, /traces,
	// /slowlog and /debug/pprof. Empty (the default) starts no listener;
	// core's Database.ServeAddr resolves the bound address. The cluster
	// itself never reads it.
	ServeAddr string
	// Serve tunes that front end; ignored unless ServeAddr is set.
	Serve ServeConfig
}

// ServeConfig tunes the simdbd serving front end; zero values take the
// defaults.
type ServeConfig struct {
	// DrainTimeout bounds the graceful drain on Close: how long
	// in-flight queries get to finish after the listener stops
	// accepting. Default 30s.
	DrainTimeout time.Duration
	// MaxSessions caps concurrently issued session tokens; POST
	// /sessions past it returns 429. Default 1024.
	MaxSessions int
	// SessionIdleTimeout evicts sessions with no request for this long.
	// Default 15m.
	SessionIdleTimeout time.Duration
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.NumNodes <= 0 {
		c.NumNodes = 2
	}
	if c.PartitionsPerNode <= 0 {
		c.PartitionsPerNode = 2
	}
	if c.DiskBufferCacheBytes <= 0 {
		c.DiskBufferCacheBytes = 64 << 20
	}
	if c.MemComponentBudgetBytes <= 0 {
		c.MemComponentBudgetBytes = 16 << 20
	}
	if c.TOccurrence == "" {
		c.TOccurrence = "divideskip"
	}
	if c.WALSyncMode == "" {
		c.WALSyncMode = string(storage.WALSyncCommit)
	}
	if c.Transport == "" {
		c.Transport = "inproc"
	}
	return c
}

// Partitions returns the total data partition count.
func (c Config) Partitions() int { return c.NumNodes * c.PartitionsPerNode }
