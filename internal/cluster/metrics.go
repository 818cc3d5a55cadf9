package cluster

import (
	"fmt"
	"sort"
	"time"
	"unicode/utf8"

	"simdb/internal/obs"
	"simdb/internal/obs/trace"
)

// Process-wide query-serving counters. Handles are resolved once; each
// event is a single atomic add.
var (
	queriesTotal = obs.C("cluster.queries")
	queryErrors  = obs.C("cluster.query_errors")
	queryLatency = obs.H("cluster.query_latency_ns")
)

// SlowQueryRecord is one finished query the tracer keeps as GET
// /slowlog lists it.
type SlowQueryRecord struct {
	QueryID      uint64    `json:"query_id"`
	Time         time.Time `json:"time"`
	WallNs       int64     `json:"wall_ns"`
	Query        string    `json:"query"`
	PlanCacheHit bool      `json:"plan_cache_hit"`
	Rows         int       `json:"rows"`
	Error        string    `json:"error,omitempty"`
}

// SlowQueries returns the finished queries the tracer retains, the
// newest and the slowest, slowest first; Time is when each finished.
func (c *Cluster) SlowQueries() []SlowQueryRecord {
	out := []SlowQueryRecord{}
	seen := map[*trace.Trace]bool{}
	for _, t := range append(c.tracer.Slowest(), c.tracer.Recent()...) {
		if seen[t] {
			continue
		}
		seen[t] = true
		rec := SlowQueryRecord{
			QueryID: t.ID,
			WallNs:  t.DurNs(),
			Query:   t.Query,
			Error:   t.Err(),
		}
		rec.Time = t.Start.Add(time.Duration(rec.WallNs))
		for _, a := range t.Args() {
			switch a.Key {
			case "rows":
				rec.Rows = int(a.Val)
			case "plan_cache_hit":
				rec.PlanCacheHit = a.Val != 0
			}
		}
		out = append(out, rec)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].WallNs > out[j].WallNs })
	return out
}

// traceArgs are the arguments a finished query's trace carries: the
// rows and plan-cache outcome the slow-query log reads back, the phase
// split, the memory budget and spills, and the similarity funnel.
func (st *QueryStats) traceArgs() []trace.Arg {
	hit := int64(0)
	if st.PlanCacheHit {
		hit = 1
	}
	return []trace.Arg{
		trace.I("rows", st.RowsOut),
		trace.I("plan_cache_hit", hit),
		trace.I("admission_ns", st.AdmissionNs),
		trace.I("compile_ns", st.ParseNs+st.TranslateNs+st.OptimizeNs+st.JobGenNs),
		trace.I("exec_ns", st.ExecNs),
		trace.I("mem_budget", st.MemBudget),
		trace.I("mem_high_water", st.MemHighWater),
		trace.I("spill_runs", st.SpillRuns),
		trace.I("spilled_bytes", st.SpilledBytes),
		trace.I("occurrence_t", st.OccurrenceT),
		trace.I("postings", st.PostingsRead),
		trace.I("pruned", st.PrunedTotal),
		trace.I("candidates", st.CandidatesTotal),
		trace.I("verified", st.VerifiedTotal),
	}
}

// truncateQuery bounds the query text recorded in /queries, traces
// and the slow-query log to about 200 bytes, cut at a rune boundary.
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
