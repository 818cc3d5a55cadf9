package cluster

import (
	"container/list"
	"sync"
	"sync/atomic"

	"simdb/internal/algebra"
)

// PlanCache caches compiled (translated + optimized) query plans so a
// repeated similarity query skips the whole parse/translate/optimize
// pipeline — the ~900 ms per-query AQL+ compile overhead the paper's
// §6.4.1 measures and amortizes across a workload.
//
// Entries are keyed by the canonical AQL request text (aqlp.Canonical:
// comments dropped, whitespace between tokens collapsed, tokens kept
// byte for byte) plus everything
// else a client can send that feeds compilation: the session's
// dataverse, simfunction, simthreshold and resolved memory budget at
// request entry. A session carrying an optimizer-options override is an
// ablation run and never reaches the cache (see Session.Opts). Each
// entry records the catalog epoch it was compiled under; any DDL bumps
// the epoch, so a hit is served only when no catalog change happened
// since compilation — a cached plan can never be stale with respect to
// a new index, a dropped dataset, or a redefined UDF.
//
// Hits return a deep copy of the plan through algebra.Copy (the AQL+
// remapping machinery), so concurrent executions never share mutable
// plan state. Only requests whose statements are all session-scoped
// (use/set) are cacheable; requests containing DDL or other statements
// bypass the cache entirely.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[planKey]*list.Element
	lru      *list.List // front = most recently used

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	evictions     atomic.Int64
}

// planKey identifies one compilable request. All fields participate in
// equality.
type planKey struct {
	text         string // aqlp.Canonical of the request
	dataverse    string
	simFunction  string
	simThreshold string
	memBudget    int64 // resolved per-query operator budget in bytes, 0 = unlimited
}

// planEntry is one cached compilation result.
type planEntry struct {
	key   planKey
	plan  *algebra.Op
	epoch uint64
	// post is the session state after the request's use/set statements
	// ran; applied on a hit so the cache is transparent to session flow.
	post        sessionState
	planOps     int
	logicalPlan string
	ruleTrace   []string
	cornerCases int
}

// planCacheSize is the capacity of every cluster's plan cache.
const planCacheSize = 256

// NewPlanCache returns a cache bounded to capacity entries (LRU
// eviction).
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{
		capacity: capacity,
		entries:  make(map[planKey]*list.Element),
		lru:      list.New(),
	}
}

// get returns the cached entry for key if present and compiled under
// the current epoch. Stale entries are evicted on sight.
func (pc *PlanCache) get(key planKey, epoch uint64) (*planEntry, bool) {
	pc.mu.Lock()
	el, ok := pc.entries[key]
	if !ok {
		pc.mu.Unlock()
		pc.misses.Add(1)
		return nil, false
	}
	e := el.Value.(*planEntry)
	if e.epoch != epoch {
		pc.lru.Remove(el)
		delete(pc.entries, key)
		pc.mu.Unlock()
		pc.invalidations.Add(1)
		pc.misses.Add(1)
		return nil, false
	}
	pc.lru.MoveToFront(el)
	pc.mu.Unlock()
	pc.hits.Add(1)
	return e, true
}

// put stores a freshly compiled plan, evicting the least recently used
// entry when over capacity.
func (pc *PlanCache) put(e *planEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[e.key]; ok {
		el.Value = e
		pc.lru.MoveToFront(el)
		return
	}
	pc.entries[e.key] = pc.lru.PushFront(e)
	for pc.lru.Len() > pc.capacity {
		oldest := pc.lru.Back()
		pc.lru.Remove(oldest)
		delete(pc.entries, oldest.Value.(*planEntry).key)
		pc.evictions.Add(1)
	}
}

// PlanCacheStats is a point-in-time snapshot of cache counters.
type PlanCacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Evictions     int64
	Entries       int
}

// Stats returns the current counters.
func (pc *PlanCache) Stats() PlanCacheStats {
	pc.mu.Lock()
	n := pc.lru.Len()
	pc.mu.Unlock()
	return PlanCacheStats{
		Hits:          pc.hits.Load(),
		Misses:        pc.misses.Load(),
		Invalidations: pc.invalidations.Load(),
		Evictions:     pc.evictions.Load(),
		Entries:       n,
	}
}
