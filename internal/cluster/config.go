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
	"runtime"
	"time"

	"simdb/internal/invindex"
	"simdb/internal/storage"
)

// Config mirrors the paper's Table 2 knobs, scaled for a single-host
// simulation.
type Config struct {
	// NumNodes is the simulated node-controller count (paper: 8).
	NumNodes int
	// PartitionsPerNode is the data partition count per node (paper: 2,
	// "to provide full I/O parallelism").
	PartitionsPerNode int
	// DataDir is the root directory for all node storage.
	DataDir string
	// PageSize is the storage page size (paper: 128 KB; scaled default
	// 32 KB).
	PageSize int
	// DiskBufferCacheBytes is the per-node buffer cache (paper: 2 GB).
	DiskBufferCacheBytes int64
	// MemComponentBudgetBytes is the in-memory LSM component budget per
	// dataset partition (paper: 1.5 GB per dataset per node).
	MemComponentBudgetBytes int64
	// TOccurrenceAlgorithm selects the inverted-index T-occurrence solver;
	// the zero value is the default, DivideSkip.
	TOccurrenceAlgorithm invindex.Algorithm
	// MaxConcurrentQueries bounds admission: at most this many queries
	// execute at once; excess callers wait (default 64).
	MaxConcurrentQueries int
	// QueryTimeout caps each admitted query's execution; 0 disables.
	QueryTimeout time.Duration
	// AdmissionTimeout bounds how long a query may wait for admission (a
	// slot plus, when a cluster memory pool is configured, budgeted
	// memory). Past it the query fails with ErrAdmissionTimeout even if
	// the caller's context has no deadline — the load-shedding signal a
	// serving front end turns into 503 + Retry-After. 0 disables: waits
	// are bounded only by the caller's context.
	AdmissionTimeout time.Duration
	// PlanCacheSize bounds the compiled-plan cache (entries, LRU).
	// 0 takes the default of 256; negative disables the cache.
	PlanCacheSize int
	// SlowQueryThreshold, when positive, makes Execute emit one
	// structured JSON log line for every query whose total wall time
	// (admission + compile + execution) reaches it. 0 disables the log.
	SlowQueryThreshold time.Duration
	// QueryMemoryBudget bounds each query's operator working memory in
	// bytes: blocking operators (sort, hash join, group-by, materialize)
	// draw grants against it and spill runs to disk past it. 0 (the
	// default) disables budgets entirely — the legacy in-memory behavior.
	// Sessions override per connection via `set memorybudget '32m';`.
	// Positive budgets are clamped up to hyracks.MinQueryMemory. When 0,
	// the SIMDB_TEST_MEMORY_BUDGET environment variable (same syntax)
	// supplies a default — the CI low-memory job uses it to force spill
	// paths under the whole test suite.
	QueryMemoryBudget int64
	// ClusterMemoryBudget, when positive, bounds the SUM of admitted
	// queries' budgets: admission holds a query until enough budgeted
	// memory is free (FIFO). It only gates queries that have a per-query
	// budget; unbudgeted queries claim nothing. 0 disables the pool.
	ClusterMemoryBudget int64
	// IngestWorkers is the number of ingestion-pipeline workers; records
	// route to worker partition%IngestWorkers, so per-partition (and
	// per-PK) order is preserved. Default: min(Partitions(), GOMAXPROCS)
	// — one worker per partition caps useful parallelism, and more
	// workers than cores only adds scheduling overhead.
	IngestWorkers int
	// IngestQueueDepth bounds each ingestion worker's queue; enqueuers
	// block when a queue is full (backpressure). Default 256.
	IngestQueueDepth int
	// MaintenanceWorkers sizes each node's background flush/merge worker
	// pool, shared by every LSM tree on the node. Default 2.
	MaintenanceWorkers int
	// StallThreshold is the per-tree cap on rotated, flush-pending
	// in-memory components: writers stall once this many pile up until
	// background flushing catches up. Default 4.
	StallThreshold int
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
	// hyracks.DefaultFrameSize, 128).
	FrameSize int
	// ChanCap is the per-channel frame buffer — the connector
	// backpressure bound, mirrored by the tcp transport as its
	// per-stream credit window (0 takes hyracks.DefaultChanCap, 4).
	ChanCap int
	// WorkerCmd is the command line that launches one worker process in
	// tcp mode; the child must call MaybeRunWorker early in main (or
	// TestMain). Empty runs os.Executable() with no arguments — correct
	// for binaries and `go test` processes that install the hook.
	WorkerCmd []string
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.NumNodes <= 0 {
		c.NumNodes = 2
	}
	if c.PartitionsPerNode <= 0 {
		c.PartitionsPerNode = 2
	}
	if c.PageSize <= 0 {
		c.PageSize = 32 << 10
	}
	if c.DiskBufferCacheBytes <= 0 {
		c.DiskBufferCacheBytes = 64 << 20
	}
	if c.MemComponentBudgetBytes <= 0 {
		c.MemComponentBudgetBytes = 16 << 20
	}
	if c.IngestWorkers <= 0 {
		c.IngestWorkers = c.Partitions()
		if p := runtime.GOMAXPROCS(0); p < c.IngestWorkers {
			c.IngestWorkers = p
		}
	}
	if c.IngestQueueDepth <= 0 {
		c.IngestQueueDepth = 256
	}
	if c.MaintenanceWorkers <= 0 {
		c.MaintenanceWorkers = 2
	}
	if c.StallThreshold <= 0 {
		c.StallThreshold = 4
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
