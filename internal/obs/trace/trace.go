// Package trace is SimDB's always-available query tracing layer. Every
// query execution owns a Trace: a bounded tree of spans covering the
// full lifecycle (admission wait, parse, plan-cache lookup, optimize,
// job generation, per-operator execution), recorded with one mutex-
// protected append per span — cheap enough to leave on in production.
// Finished traces land in a bounded ring buffer so the last N queries
// are always inspectable after the fact, and every trace exports as
// Chrome trace-event JSON (chrome.go) that loads directly in
// about:tracing and Perfetto.
//
// Background storage work (LSM flushes, merges, WAL group-commit
// fsyncs) is not owned by any single query, so it records into a
// separate bounded event ring attributed by tree/WAL identifier; trace
// exports overlay the events that overlap the query's time window,
// which is how "why was this query slow" meets "a merge was hogging
// the disk".
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span categories. Exports group lanes by category.
const (
	CatPhase    = "phase"    // query lifecycle phases
	CatOperator = "operator" // one operator instance of the job DAG
	CatStorage  = "storage"  // LSM flush/merge maintenance
	CatWAL      = "wal"      // WAL group-commit activity
)

// RootSpan is the parent ID of top-level spans.
const RootSpan = int32(-1)

// Arg is one key/value annotation on a span. Val carries numeric
// arguments; Str, when non-empty, wins.
type Arg struct {
	Key string
	Val int64
	Str string
}

// I builds a numeric span argument.
func I(key string, val int64) Arg { return Arg{Key: key, Val: val} }

// S builds a string span argument.
func S(key, val string) Arg { return Arg{Key: key, Str: val} }

// Span is one completed interval of a trace. StartNs is relative to
// the owning trace's Start so spans stay meaningful across export.
type Span struct {
	ID      int32
	Parent  int32 // RootSpan for top-level spans
	Name    string
	Cat     string
	Node    int
	Part    int
	StartNs int64
	DurNs   int64
	Args    []Arg
}

// SpanRef is a handle for an in-progress span created by StartSpan.
// The zero SpanRef (from a nil trace) is safe to End.
type SpanRef struct {
	tr    *Trace
	ID    int32
	start time.Time
	name  string
	cat   string
	par   int32
}

// Trace is the record of one query execution. Span recording is safe
// from concurrent goroutines (operator instances run in parallel).
type Trace struct {
	ID    uint64
	Query string
	Start time.Time

	tracer *Tracer
	nextID atomic.Int32

	mu    sync.Mutex
	spans []Span
	endNs int64
	err   string
	done  bool
}

// maxSpansPerTrace bounds a single trace's memory: a runaway query
// (huge operator fan-out) cannot grow a trace without limit. Spans past
// the cap are dropped and counted.
const maxSpansPerTrace = 4096

// StartSpan opens a span under parent and returns its handle. Nil-safe:
// a nil trace returns a zero ref whose End is a no-op.
func (t *Trace) StartSpan(parent int32, name, cat string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	return SpanRef{
		tr:    t,
		ID:    t.nextID.Add(1) - 1,
		start: time.Now(),
		name:  name,
		cat:   cat,
		par:   parent,
	}
}

// End completes the span and records it.
func (r SpanRef) End(args ...Arg) {
	if r.tr == nil {
		return
	}
	r.tr.append(Span{
		ID:      r.ID,
		Parent:  r.par,
		Name:    r.name,
		Cat:     r.cat,
		StartNs: r.start.Sub(r.tr.Start).Nanoseconds(),
		DurNs:   time.Since(r.start).Nanoseconds(),
		Args:    args,
	})
}

// SpanAt records an already-measured span (start/duration known after
// the fact) and returns its ID. Nil-safe.
func (t *Trace) SpanAt(parent int32, name, cat string, start time.Time, dur time.Duration, args ...Arg) int32 {
	return t.SpanAtOn(parent, name, cat, 0, 0, start, dur, args...)
}

// SpanAtOn is SpanAt with an explicit (node, partition) placement, used
// for operator-instance spans.
func (t *Trace) SpanAtOn(parent int32, name, cat string, node, part int, start time.Time, dur time.Duration, args ...Arg) int32 {
	if t == nil {
		return RootSpan
	}
	id := t.nextID.Add(1) - 1
	t.append(Span{
		ID:      id,
		Parent:  parent,
		Name:    name,
		Cat:     cat,
		Node:    node,
		Part:    part,
		StartNs: start.Sub(t.Start).Nanoseconds(),
		DurNs:   dur.Nanoseconds(),
		Args:    args,
	})
	return id
}

func (t *Trace) append(s Span) {
	t.mu.Lock()
	if len(t.spans) < maxSpansPerTrace {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Finish seals the trace (recording the error text, if any) and moves
// it from the tracer's active set into the recent-trace ring. Nil-safe;
// double Finish is a no-op.
func (t *Trace) Finish(err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.endNs = time.Since(t.Start).Nanoseconds()
	if err != nil {
		t.err = err.Error()
	}
	t.mu.Unlock()
	t.tracer.retire(t)
}

// DurNs returns the trace's total duration: end-to-end once finished,
// elapsed-so-far while active.
func (t *Trace) DurNs() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return t.endNs
	}
	return time.Since(t.Start).Nanoseconds()
}

// Err returns the recorded error text ("" for success or active).
func (t *Trace) Err() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Done reports whether the trace has finished.
func (t *Trace) Done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// Event is one background storage/WAL interval, attributed by Key
// (tree directory or WAL directory) rather than by query.
type Event struct {
	Name  string
	Cat   string
	Key   string
	Start time.Time
	DurNs int64
	Args  []Arg
}

// Tracer owns the recent-trace ring, the active-trace set, and the
// background event ring. One process-wide Default() instance exists,
// mirroring the obs metrics registry.
type Tracer struct {
	enabled atomic.Bool

	mu     sync.Mutex
	cap    int
	ring   []*Trace // completed traces, oldest first
	active map[uint64]*Trace

	emu    sync.Mutex
	ecap   int
	events []Event // background events, oldest first
}

// NewTracer builds a tracer retaining the last `capacity` finished
// traces (<= 0 takes 128) and 4x that many background events. Tracing
// starts enabled.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 128
	}
	t := &Tracer{cap: capacity, ecap: capacity * 4, active: map[uint64]*Trace{}}
	t.enabled.Store(true)
	return t
}

var defaultTracer = NewTracer(128)

// Default returns the process-wide tracer.
func Default() *Tracer { return defaultTracer }

// queryIDs allocates process-wide stable query IDs, starting at 1.
var queryIDs atomic.Uint64

// NextQueryID returns a fresh process-unique query ID. The same ID
// stamps the query's trace, stats, slow-log line, spill directory,
// pprof label and typed-error payload, so every observability surface
// cross-references.
func NextQueryID() uint64 { return queryIDs.Add(1) }

// SetEnabled turns span/event recording on or off. Start returns nil
// traces while disabled, and Event becomes a no-op.
func (tc *Tracer) SetEnabled(on bool) { tc.enabled.Store(on) }

// Enabled reports whether recording is on.
func (tc *Tracer) Enabled() bool { return tc.enabled.Load() }

// Start opens a trace for query id, or returns nil when disabled
// (every Trace method is nil-safe, so call sites never branch).
func (tc *Tracer) Start(id uint64, query string) *Trace {
	if !tc.enabled.Load() {
		return nil
	}
	t := &Trace{ID: id, Query: query, Start: time.Now(), tracer: tc}
	tc.mu.Lock()
	tc.active[id] = t
	tc.mu.Unlock()
	return t
}

// retire moves a finished trace from active to the bounded ring.
func (tc *Tracer) retire(t *Trace) {
	tc.mu.Lock()
	delete(tc.active, t.ID)
	tc.ring = append(tc.ring, t)
	if len(tc.ring) > tc.cap {
		n := copy(tc.ring, tc.ring[len(tc.ring)-tc.cap:])
		for i := n; i < len(tc.ring); i++ {
			tc.ring[i] = nil
		}
		tc.ring = tc.ring[:n]
	}
	tc.mu.Unlock()
}

// Recent returns the finished traces, newest first.
func (tc *Tracer) Recent() []*Trace {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	out := make([]*Trace, 0, len(tc.ring))
	for i := len(tc.ring) - 1; i >= 0; i-- {
		out = append(out, tc.ring[i])
	}
	return out
}

// Active returns the currently-recording traces (unordered).
func (tc *Tracer) Active() []*Trace {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	out := make([]*Trace, 0, len(tc.active))
	for _, t := range tc.active {
		out = append(out, t)
	}
	return out
}

// Get finds a trace by query ID among active then finished traces.
func (tc *Tracer) Get(id uint64) (*Trace, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if t, ok := tc.active[id]; ok {
		return t, true
	}
	for i := len(tc.ring) - 1; i >= 0; i-- {
		if tc.ring[i].ID == id {
			return tc.ring[i], true
		}
	}
	return nil, false
}

// Event records one background storage/WAL interval. A single atomic
// load gates the disabled path.
func (tc *Tracer) Event(name, cat, key string, start time.Time, dur time.Duration, args ...Arg) {
	if !tc.enabled.Load() {
		return
	}
	tc.emu.Lock()
	tc.events = append(tc.events, Event{
		Name: name, Cat: cat, Key: key,
		Start: start, DurNs: dur.Nanoseconds(), Args: args,
	})
	if len(tc.events) > tc.ecap {
		n := copy(tc.events, tc.events[len(tc.events)-tc.ecap:])
		tc.events = tc.events[:n]
	}
	tc.emu.Unlock()
}

// EventsBetween returns the background events overlapping [lo, hi].
func (tc *Tracer) EventsBetween(lo, hi time.Time) []Event {
	tc.emu.Lock()
	defer tc.emu.Unlock()
	var out []Event
	for _, e := range tc.events {
		end := e.Start.Add(time.Duration(e.DurNs))
		if end.Before(lo) || e.Start.After(hi) {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Events returns a copy of the whole background-event ring, oldest
// first.
func (tc *Tracer) Events() []Event {
	tc.emu.Lock()
	defer tc.emu.Unlock()
	return append([]Event(nil), tc.events...)
}
