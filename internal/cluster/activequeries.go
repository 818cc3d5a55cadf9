package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"simdb/internal/hyracks"
	"simdb/internal/obs/trace"
)

// QueryError stamps a failed query's stable query ID onto its error so
// log lines, traces, stats, and client-visible errors all
// cross-reference the same execution. errors.Is/As see through it to
// the typed serving errors (ErrQueryTimeout and friends).
type QueryError struct {
	QueryID uint64
	Err     error
}

// Error implements error.
func (e *QueryError) Error() string { return fmt.Sprintf("query %d: %v", e.QueryID, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *QueryError) Unwrap() error { return e.Err }

// PlanError marks a failure caused by the request itself — a parse
// error, an unknown dataset or set property, a statement the engine
// rejects — as opposed to a runtime or serving failure. Front ends map
// it onto 4xx (the client should fix the request, not retry). It is
// text-transparent: Error() returns the wrapped message unchanged, so
// existing error strings are unaffected.
type PlanError struct{ Err error }

// Error implements error.
func (e *PlanError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *PlanError) Unwrap() error { return e.Err }

// planErr wraps err as a PlanError (nil-safe).
func planErr(err error) error {
	if err == nil {
		return nil
	}
	return &PlanError{Err: err}
}

// queryPhase is where in its lifecycle an admitted query currently is.
type queryPhase int32

const (
	phaseAdmission queryPhase = iota
	phaseParse
	phasePlanCache
	phaseCompile
	phaseJobGen
	phaseExecute
)

// String names the phase for the /queries listing.
func (p queryPhase) String() string {
	switch p {
	case phaseAdmission:
		return "admission"
	case phaseParse:
		return "parse"
	case phasePlanCache:
		return "plan-cache"
	case phaseCompile:
		return "compile"
	case phaseJobGen:
		return "jobgen"
	case phaseExecute:
		return "execute"
	}
	return fmt.Sprintf("phase(%d)", int32(p))
}

// queryRun carries one execution's identity through the lifecycle: the
// stable query ID, the trace being recorded, and the live-registry
// entry.
type queryRun struct {
	id uint64
	tr *trace.Trace
	aq *activeQuery
	// stream, when non-nil, receives result rows as the job produces
	// them instead of having them buffered into Result.Rows.
	stream *StreamHandler
}

// setPhase advances the live phase and is nil-safe like the trace.
func (qr *queryRun) setPhase(p queryPhase) {
	if qr.aq != nil {
		qr.aq.phase.Store(int32(p))
	}
}

// activeQuery is one in-flight query in the live registry.
type activeQuery struct {
	id     uint64
	query  string
	start  time.Time
	phase  atomic.Int32
	cancel context.CancelFunc
	// mem is set once the job runs under a memory accountant, so the
	// /queries listing can report the live high-water mark.
	mem atomic.Pointer[hyracks.MemoryAccountant]
}

// ActiveQueryInfo describes one in-flight query for introspection
// (GET /queries).
type ActiveQueryInfo struct {
	ID           uint64 `json:"id"`
	Query        string `json:"query"`
	Phase        string `json:"phase"`
	ElapsedNs    int64  `json:"elapsed_ns"`
	MemHighWater int64  `json:"mem_high_water,omitempty"`
}

// activeQueries is the cluster's registry of in-flight queries.
type activeQueries struct {
	mu sync.Mutex
	m  map[uint64]*activeQuery
}

func newActiveQueries() *activeQueries {
	return &activeQueries{m: map[uint64]*activeQuery{}}
}

func (r *activeQueries) add(aq *activeQuery) {
	r.mu.Lock()
	r.m[aq.id] = aq
	r.mu.Unlock()
}

func (r *activeQueries) remove(id uint64) {
	r.mu.Lock()
	delete(r.m, id)
	r.mu.Unlock()
}

func (r *activeQueries) get(id uint64) (*activeQuery, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	aq, ok := r.m[id]
	return aq, ok
}

func (r *activeQueries) list() []*activeQuery {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*activeQuery, 0, len(r.m))
	for _, aq := range r.m {
		out = append(out, aq)
	}
	return out
}

// registerQuery opens a query's live-registry entry and its trace.
func (c *Cluster) registerQuery(id uint64, src string, cancel context.CancelFunc) *queryRun {
	aq := &activeQuery{
		id:     id,
		query:  truncateQuery(src),
		start:  time.Now(),
		cancel: cancel,
	}
	c.activeQ.add(aq)
	return &queryRun{
		id: id,
		tr: c.tracer.Start(id, aq.query),
		aq: aq,
	}
}

// unregisterQuery closes the entry and seals the trace.
func (c *Cluster) unregisterQuery(qr *queryRun, err error) {
	c.activeQ.remove(qr.id)
	qr.tr.Finish(err)
}

// ActiveQueries lists the in-flight queries, oldest first: stable ID,
// normalized text, current phase, elapsed time, and the live memory
// high-water mark for budgeted queries.
func (c *Cluster) ActiveQueries() []ActiveQueryInfo {
	live := c.activeQ.list()
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	out := make([]ActiveQueryInfo, 0, len(live))
	for _, aq := range live {
		info := ActiveQueryInfo{
			ID:        aq.id,
			Query:     aq.query,
			Phase:     queryPhase(aq.phase.Load()).String(),
			ElapsedNs: time.Since(aq.start).Nanoseconds(),
		}
		if m := aq.mem.Load(); m != nil {
			info.MemHighWater = m.HighWater()
		}
		out = append(out, info)
	}
	return out
}

// CancelQuery cancels the in-flight query with the given ID (whether
// it is waiting for admission or executing) and reports whether such a
// query existed. The query's Execute call returns a context
// cancellation classified by the query manager.
func (c *Cluster) CancelQuery(id uint64) bool {
	aq, ok := c.activeQ.get(id)
	if !ok {
		return false
	}
	aq.cancel()
	return true
}

// Tracer exposes the tracer recording this cluster's queries (the
// process-wide default).
func (c *Cluster) Tracer() *trace.Tracer { return c.tracer }
