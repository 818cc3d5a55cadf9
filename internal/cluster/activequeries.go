package cluster

import (
	"context"
	"fmt"
	"sort"
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

// queryRun is one in-flight query: its trace, which carries the stable
// query ID, the canonical text, the start time and the current phase;
// the cancel func; and the memory accountant once the job runs under
// one.
type queryRun struct {
	id     uint64
	tr     *trace.Trace
	cancel context.CancelFunc
	mem    atomic.Pointer[hyracks.MemoryAccountant]
	// stream, when non-nil, receives result rows as the job produces
	// them instead of having them buffered into Result.Rows.
	stream *StreamHandler
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

// registerQuery lists qr among the in-flight queries.
func (c *Cluster) registerQuery(qr *queryRun) {
	c.runningMu.Lock()
	c.running[qr.id] = qr
	c.runningMu.Unlock()
}

// unregisterQuery seals the trace, with args annotating the whole
// query, and then unlists the query, so a reader finds its trace in the
// list or in the tracer's ring at every moment.
func (c *Cluster) unregisterQuery(qr *queryRun, err error, args ...trace.Arg) {
	qr.tr.Finish(err, args...)
	c.runningMu.Lock()
	delete(c.running, qr.id)
	c.runningMu.Unlock()
}

// runningQueries returns the in-flight queries, oldest first.
func (c *Cluster) runningQueries() []*queryRun {
	c.runningMu.Lock()
	out := make([]*queryRun, 0, len(c.running))
	for _, qr := range c.running {
		out = append(out, qr)
	}
	c.runningMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// ActiveQueries lists the in-flight queries, oldest first: stable ID,
// normalized text, current phase, elapsed time, and the live memory
// high-water mark for budgeted queries.
func (c *Cluster) ActiveQueries() []ActiveQueryInfo {
	live := c.runningQueries()
	out := make([]ActiveQueryInfo, 0, len(live))
	for _, qr := range live {
		info := ActiveQueryInfo{
			ID:        qr.id,
			Query:     qr.tr.Query,
			Phase:     qr.tr.Phase(),
			ElapsedNs: time.Since(qr.tr.Start).Nanoseconds(),
		}
		if m := qr.mem.Load(); m != nil {
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
	c.runningMu.Lock()
	qr, ok := c.running[id]
	c.runningMu.Unlock()
	if ok {
		qr.cancel()
	}
	return ok
}

// Traces returns the running queries' traces, oldest first, then the
// finished ones, newest first.
func (c *Cluster) Traces() []*trace.Trace {
	var out []*trace.Trace
	for _, qr := range c.runningQueries() {
		if !qr.tr.Done() { // a finished one is in the ring already
			out = append(out, qr.tr)
		}
	}
	return append(out, c.tracer.Recent()...)
}

// Trace finds a query's trace, running or finished, by its ID.
func (c *Cluster) Trace(id uint64) (*trace.Trace, bool) {
	c.runningMu.Lock()
	qr, ok := c.running[id]
	c.runningMu.Unlock()
	if ok {
		return qr.tr, true
	}
	return c.tracer.Get(id)
}

// Tracer exposes the tracer recording this cluster's queries (the
// process-wide default).
func (c *Cluster) Tracer() *trace.Tracer { return c.tracer }
