package cluster

import (
	"io"
	"time"

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
	c.slowLog.SetOutput(w)
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
// ring.
func (c *Cluster) logSlowQuery(qid uint64, src string, wallNs int64, res *Result, err error) {
	slowQueries.Inc()
	rec := SlowQueryRecord{
		QueryID: qid,
		Time:    time.Now(),
		WallNs:  wallNs,
		Query:   truncateQuery(src),
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
		"query", truncateQuery(src),
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
				"candidates", st.CandidatesTotal,
				"verified", st.VerifiedTotal,
			)
		}
	}
	if err != nil {
		kv = append(kv, "error", err.Error())
	}
	c.slowLog.Warn("slow query", kv...)
}

// truncateQuery bounds the query text recorded in log lines.
func truncateQuery(src string) string {
	const max = 200
	src = normalizeAQL(src)
	if len(src) > max {
		return src[:max] + "..."
	}
	return src
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
	var walSegments int64
	for _, n := range c.nodes {
		if n == nil {
			// tcp mode: this node lives in another process; its storage
			// gauges are that process's to report.
			continue
		}
		walSegments += int64(n.WALSegments())
		cs := n.CacheStats()
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
		n.mu.Unlock()
	}
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
	r.Gauge("storage.wal.segments").Set(walSegments)
	r.Gauge("cluster.ingest.queue_depth").Set(int64(c.ing.queued()))
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

	qs := c.qm.Stats()
	r.Gauge("querymanager.admitted").Set(qs.Admitted)
	r.Gauge("querymanager.completed").Set(qs.Completed)
	r.Gauge("querymanager.failed").Set(qs.Failed)
	r.Gauge("querymanager.rejected").Set(qs.Rejected)
	r.Gauge("querymanager.timed_out").Set(qs.TimedOut)
	r.Gauge("querymanager.active").Set(qs.Active)
	r.Gauge("querymanager.peak_active").Set(qs.PeakActive)
	if qs.MemCapacity > 0 {
		r.Gauge("querymanager.mem_capacity").Set(qs.MemCapacity)
		r.Gauge("querymanager.mem_used").Set(qs.MemUsed)
		r.Gauge("querymanager.mem_waiting").Set(int64(qs.MemWaiting))
	}

	return r.Snapshot()
}
