package cluster

import (
	"container/list"
	"sync"
	"sync/atomic"

	"simdb/internal/algebra"
	"simdb/internal/aqlp"
)

// PlanCache caches compiled (translated + optimized) query plans so a
// repeated similarity query skips the whole parse/translate/optimize
// pipeline — the ~900 ms per-query AQL+ compile overhead the paper's
// §6.4.1 measures and amortizes across a workload.
//
// Entries are keyed by the shape of the text after the request's mode
// (aqlp.Shape: its canonical text with every literal lifted into a
// parameter and replaced by a placeholder of its kind, so q, `explain
// q` and `explain analyze q` share an entry) plus everything
// else a client can send that feeds compilation: the session's
// dataverse, simfunction, simthreshold and resolved memory budget at
// request entry. A session carrying an optimizer-options override is an
// ablation run and never reaches the cache (see Session.Opts).
//
// A literal the translator turned into a constant tagged with its slot
// (algebra.Const.Slot) and no rule read the value of is a free
// parameter of the plan: a hit's job generation compiles the constant
// to the request's value (see boundPlan), so requests that differ only
// there share one entry. Every other parameter is value-keyed: its
// value is part of the key. The cache keeps one set of value-keyed slots per shape, which
// only grows: a compile that keys a slot outside the set widens it and
// drops the shape's entries. This is
// sound because compilation is deterministic: a request that agrees with
// an entry's on every slot the entry's compile read takes the same rule
// decisions and gets the same plan up to its free values.
//
// Each entry records the catalog epoch it was compiled under; any DDL
// bumps the epoch, so a hit is served only when no catalog change
// happened since compilation — a cached plan can never be stale with
// respect to a new index, a dropped dataset, or a redefined UDF.
//
// Hits share the entry's plan and never copy it: nothing writes a plan
// after the optimizer, so concurrent executions read one plan, each
// with its own literals, and the entry keeps the analyses job generation
// needs of the plan alone (planFacts). Only requests whose statements
// are all session-scoped (use/set) are cacheable; requests containing
// DDL or other statements bypass the cache entirely.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	shapes   map[planKey]*shapeSlots // by the shape's own key
	entries  map[planKey]*list.Element
	lru      *list.List // front = most recently used

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	evictions     atomic.Int64
}

// planKey identifies a request shape, or one entry of it, under one
// session state. All fields participate in equality.
type planKey struct {
	// text is the shape (aqlp.Shape.Text) in the key of a shape, and the
	// shape with its value-keyed parameters filled in (Shape.Fill) in
	// the key of an entry: the canonical text when every parameter is.
	text         string
	dataverse    string
	simFunction  string
	simThreshold string
	memBudget    int64 // resolved per-query operator budget in bytes, 0 = unlimited
}

// shapeSlots is what the cache keeps of a shape while it has entries:
// the slots its entries are keyed on, and how many entries there are.
type shapeSlots struct {
	keyed   algebra.SlotSet
	entries int
}

// planEntry is one compilation result, as the cache keeps it. Its plan
// is shared by every hit and only read: each hit binds its own literals as job
// generation compiles the plan (see boundPlan), and facts are the plan's
// planFacts, computed once when the plan was compiled.
type planEntry struct {
	key, shape planKey
	plan       *algebra.Op
	facts      *planFacts
	epoch      uint64
	// post is the session state after the request's use/set statements
	// ran; applied on a hit so the cache is transparent to session flow.
	post        sessionState
	planOps     int
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
		shapes:   make(map[planKey]*shapeSlots),
		entries:  make(map[planKey]*list.Element),
		lru:      list.New(),
	}
}

// entryKey is the key of the entry for a request of shape sh, canonical
// text canonical and key sk (sh's), when the shape keys slots keyed.
func entryKey(sk planKey, sh aqlp.Shape, canonical string, keyed algebra.SlotSet) planKey {
	sk.text = canonical
	for i := range sh.Params {
		if !keyed.Has(i + 1) {
			sk.text = sh.Fill(keyed)
			break
		}
	}
	return sk
}

// get returns the cached entry for a request of shape sh under key sk
// (sh's), if present and compiled under the current epoch. Stale
// entries are evicted on sight. A hit is counted here, a miss by the
// caller (miss) once the request proves to have a query body: a request
// of statements alone has no plan to find, and is neither.
func (pc *PlanCache) get(sk planKey, sh aqlp.Shape, canonical string, epoch uint64) (*planEntry, bool) {
	pc.mu.Lock()
	var el *list.Element
	if rec, ok := pc.shapes[sk]; ok {
		el = pc.entries[entryKey(sk, sh, canonical, rec.keyed)]
	}
	if el == nil {
		pc.mu.Unlock()
		return nil, false
	}
	e := el.Value.(*planEntry)
	if e.epoch != epoch {
		pc.remove(el)
		pc.mu.Unlock()
		pc.invalidations.Add(1)
		return nil, false
	}
	pc.lru.MoveToFront(el)
	pc.mu.Unlock()
	pc.hits.Add(1)
	return e, true
}

// miss counts a lookup that found no plan for a request with a body.
func (pc *PlanCache) miss() { pc.misses.Add(1) }

// put stores a freshly compiled plan for a request of shape sh under
// key sk (sh's), whose compile leaves the slots in keyed value-keyed. A
// keyed slot outside the shape's set widens the set and drops the
// shape's entries (counted as invalidations). The least recently used
// entry goes when the cache is over capacity.
func (pc *PlanCache) put(sk planKey, sh aqlp.Shape, canonical string, keyed algebra.SlotSet, e *planEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	rec := pc.shapes[sk]
	if rec == nil {
		rec = &shapeSlots{keyed: keyed}
		pc.shapes[sk] = rec
	} else if !rec.keyed.Contains(keyed) {
		rec.keyed.AddAll(keyed)
		for el := pc.lru.Front(); el != nil; {
			next := el.Next()
			if el.Value.(*planEntry).shape == sk {
				pc.remove(el)
				pc.invalidations.Add(1)
			}
			el = next
		}
		pc.shapes[sk] = rec // remove dropped it with its last entry
	}
	e.shape, e.key = sk, entryKey(sk, sh, canonical, rec.keyed)
	if el, ok := pc.entries[e.key]; ok {
		el.Value = e
		pc.lru.MoveToFront(el)
		return
	}
	pc.entries[e.key] = pc.lru.PushFront(e)
	rec.entries++
	for pc.lru.Len() > pc.capacity {
		pc.remove(pc.lru.Back())
		pc.evictions.Add(1)
	}
}

// remove drops one entry, and its shape's record with its last entry.
// The caller holds pc.mu.
func (pc *PlanCache) remove(el *list.Element) {
	e := el.Value.(*planEntry)
	pc.lru.Remove(el)
	delete(pc.entries, e.key)
	if rec := pc.shapes[e.shape]; rec != nil {
		if rec.entries--; rec.entries == 0 {
			delete(pc.shapes, e.shape)
		}
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
