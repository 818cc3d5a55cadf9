package cluster

import (
	"fmt"
	"io"
	"log/slog"
	"time"
	"unicode/utf8"

	"simdb/internal/obs"
)

// Process-wide query-serving counters. Handles are resolved once; each
// event is a single atomic add.
var (
	queriesTotal = obs.C("cluster.queries")
	queryErrors  = obs.C("cluster.query_errors")
	queryLatency = obs.H("cluster.query_latency_ns")
	slowQueries  = obs.C("cluster.slow_queries")
)

// SetSlowQueryLogOutput redirects the slow-query log (default stderr);
// tests and embedders point it at a buffer or a file.
func (c *Cluster) SetSlowQueryLogOutput(w io.Writer) {
	c.slowLog.Store(slog.New(slog.NewJSONHandler(w, nil)))
}

// SlowQueryRecord is one retained slow-query log entry (GET /slowlog).
type SlowQueryRecord struct {
	QueryID      uint64    `json:"query_id"`
	Time         time.Time `json:"time"`
	WallNs       int64     `json:"wall_ns"`
	Query        string    `json:"query"`
	PlanCacheHit bool      `json:"plan_cache_hit"`
	Rows         int       `json:"rows"`
	Error        string    `json:"error,omitempty"`
}

// slowRingCap bounds the retained slow-query records.
const slowRingCap = 128

// SlowQueries returns the retained slow-query records, newest first.
func (c *Cluster) SlowQueries() []SlowQueryRecord {
	c.slowMu.Lock()
	defer c.slowMu.Unlock()
	out := make([]SlowQueryRecord, 0, len(c.slowRing))
	for i := len(c.slowRing) - 1; i >= 0; i-- {
		out = append(out, c.slowRing[i])
	}
	return out
}

// logSlowQuery emits the structured one-line JSON record for a query
// whose wall time reached the threshold, and retains it in the slowlog
// ring. query is the request's text as /queries shows it.
func (c *Cluster) logSlowQuery(qid uint64, query string, wallNs int64, res *Result, err error) {
	slowQueries.Inc()
	rec := SlowQueryRecord{
		QueryID: qid,
		Time:    time.Now(),
		WallNs:  wallNs,
		Query:   query,
	}
	if res != nil {
		rec.PlanCacheHit = res.Stats.PlanCacheHit
		rec.Rows = int(res.Stats.RowsOut)
	}
	if err != nil {
		rec.Error = err.Error()
	}
	c.slowMu.Lock()
	c.slowRing = append(c.slowRing, rec)
	if len(c.slowRing) > slowRingCap {
		n := copy(c.slowRing, c.slowRing[len(c.slowRing)-slowRingCap:])
		c.slowRing = c.slowRing[:n]
	}
	c.slowMu.Unlock()

	kv := []any{
		"query_id", qid,
		"wall_ms", float64(wallNs) / 1e6,
		"query", query,
	}
	if res != nil {
		st := &res.Stats
		kv = append(kv,
			"admission_ms", float64(st.AdmissionNs)/1e6,
			"compile_ms", float64(st.ParseNs+st.TranslateNs+st.OptimizeNs+st.JobGenNs)/1e6,
			"exec_ms", float64(st.ExecNs)/1e6,
			"plan_cache_hit", st.PlanCacheHit,
			"rows", res.Stats.RowsOut,
		)
		if st.MemBudget > 0 {
			kv = append(kv, "mem_budget", st.MemBudget, "mem_high_water", st.MemHighWater)
		}
		if st.SpillRuns > 0 {
			kv = append(kv, "spill_runs", st.SpillRuns, "spilled_bytes", st.SpilledBytes)
		}
		if st.IndexSearches > 0 {
			kv = append(kv,
				"occurrence_t", st.OccurrenceT,
				"postings", st.PostingsRead,
				"pruned", st.PrunedTotal,
				"candidates", st.CandidatesTotal,
				"verified", st.VerifiedTotal,
			)
		}
	}
	if err != nil {
		kv = append(kv, "error", err.Error())
	}
	c.slowLog.Load().Warn("slow query", kv...)
}

// truncateQuery bounds the query text recorded in /queries, traces
// and log lines to about 200 bytes, cut at a rune boundary.
func truncateQuery(norm string) string {
	const max = 200
	if len(norm) <= max {
		return norm
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(norm[cut]) {
		cut--
	}
	return norm[:cut] + "..."
}

// Metrics refreshes the point-in-time gauges (storage, caches, serving
// counters) and returns a snapshot of the process-wide registry.
// Event-stream metrics (flush/merge counts, query latency histograms,
// bloom-filter checks) accumulate continuously; state gauges are read
// here rather than maintained on hot paths.
func (c *Cluster) Metrics() obs.Snapshot {
	r := obs.Default()

	var memEntries, memBytes, diskComponents, diskEntries, diskBytes int64
	var immMemtables, immEntries, immBytes int64
	var maintPending, maintRunning int64
	var cacheHits, cacheMisses, cacheEvictions, pagesRead int64
	var walSegments, walBytes, indexBytes int64
	for _, n := range c.nodes {
		if n == nil {
			// tcp mode: this node lives in another process; its storage
			// gauges are that process's to report.
			continue
		}
		segs, bytes := n.WALStats()
		walSegments += int64(segs)
		walBytes += bytes
		cs := n.CacheStats()
		r.Gauge(fmt.Sprintf("storage.cache.node%d.resident_bytes", n.ID)).Set(cs.Resident)
		r.Gauge(fmt.Sprintf("storage.cache.node%d.streamed_reads", n.ID)).Set(cs.Streamed)
		cacheHits += cs.Hits
		cacheMisses += cs.Misses
		cacheEvictions += cs.Evictions
		pagesRead += cs.PagesRead
		ms := n.MaintenanceStats()
		maintPending += int64(ms.Pending)
		maintRunning += int64(ms.Running)
		n.mu.Lock()
		for _, t := range n.primaries {
			st := t.Stats()
			memEntries += int64(st.MemEntries)
			memBytes += st.MemBytes
			immMemtables += int64(st.ImmMemtables)
			immEntries += int64(st.ImmEntries)
			immBytes += st.ImmBytes
			diskComponents += int64(st.DiskComponents)
			diskEntries += st.DiskEntries
			diskBytes += st.DiskBytes
		}
		for _, ix := range n.inverted {
			indexBytes += ix.Stats().DiskBytes
		}
		n.mu.Unlock()
	}
	// The memtable.* and disk.* gauges cover the primary trees only:
	// simbench reads storage.components_at_end from disk.components, so
	// their meaning stays. The secondary indexes' component bytes are
	// index.bytes and the log's live segment bytes wal.bytes; after a
	// flush the three byte gauges sum to the data directory's files.
	r.Gauge("storage.memtable.entries").Set(memEntries)
	r.Gauge("storage.memtable.bytes").Set(memBytes)
	r.Gauge("storage.memtable.imm_count").Set(immMemtables)
	r.Gauge("storage.memtable.imm_entries").Set(immEntries)
	r.Gauge("storage.memtable.imm_bytes").Set(immBytes)
	r.Gauge("storage.disk.components").Set(diskComponents)
	r.Gauge("storage.disk.entries").Set(diskEntries)
	r.Gauge("storage.disk.bytes").Set(diskBytes)
	r.Gauge("storage.maintenance.pool_pending").Set(maintPending)
	r.Gauge("storage.maintenance.pool_running").Set(maintRunning)
	r.Gauge("storage.index.bytes").Set(indexBytes)
	r.Gauge("storage.wal.segments").Set(walSegments)
	r.Gauge("storage.wal.bytes").Set(walBytes)
	r.Gauge("cluster.ingest.queue_depth").Set(c.ingesting.Load())
	r.Gauge("storage.cache.hits").Set(cacheHits)
	r.Gauge("storage.cache.misses").Set(cacheMisses)
	r.Gauge("storage.cache.evictions").Set(cacheEvictions)
	r.Gauge("storage.cache.pages_read").Set(pagesRead)

	ps := c.planCache.Stats()
	r.Gauge("cluster.plancache.hits").Set(ps.Hits)
	r.Gauge("cluster.plancache.misses").Set(ps.Misses)
	r.Gauge("cluster.plancache.invalidations").Set(ps.Invalidations)
	r.Gauge("cluster.plancache.evictions").Set(ps.Evictions)
	r.Gauge("cluster.plancache.entries").Set(int64(ps.Entries))

	ms := c.MemoStats()
	r.Gauge("cluster.joinmemo.entries").Set(int64(ms.Entries))
	r.Gauge("cluster.joinmemo.bytes").Set(ms.Bytes)
	r.Gauge("cluster.joinmemo.hits").Set(ms.Hits)
	r.Gauge("cluster.joinmemo.misses").Set(ms.Misses)
	r.Gauge("cluster.joinmemo.reruns").Set(ms.Reruns)

	qs := c.qm.Stats()
	r.Gauge("querymanager.admitted").Set(qs.Admitted)
	r.Gauge("querymanager.completed").Set(qs.Completed)
	r.Gauge("querymanager.failed").Set(qs.Failed)
	r.Gauge("querymanager.rejected").Set(qs.Rejected)
	r.Gauge("querymanager.timed_out").Set(qs.TimedOut)
	r.Gauge("querymanager.active").Set(qs.Active)
	r.Gauge("querymanager.peak_active").Set(qs.PeakActive)

	return r.Snapshot()
}
