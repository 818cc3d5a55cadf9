// Package trace is SimDB's always-available query tracing layer. Every
// query execution owns a Trace: a bounded tree of spans covering the
// full lifecycle (admission wait, parse, plan-cache lookup, optimize,
// job generation, per-operator execution), recorded with one mutex-
// protected append per span — cheap enough to leave on in production.
// Finished traces land in a bounded ring buffer so the last N queries
// are always inspectable after the fact, beside the slowest few, so a
// rare slow query outlives the fast ones after it; every trace exports
// as Chrome trace-event JSON (chrome.go) that loads directly in
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
	"slices"
	"sort"
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
	// phase names the newest top-level phase span opened.
	phase string
	// args annotate the whole query; Finish records them.
	args  []Arg
	endNs int64
	err   string
	done  bool
}

// maxSpansPerTrace bounds a single trace's memory: a runaway query
// (huge operator fan-out) cannot grow a trace without limit. Spans past
// the cap are dropped and counted.
const maxSpansPerTrace = 4096

// StartSpan opens a span under parent and returns its handle. A
// top-level phase span becomes the trace's current Phase.
func (t *Trace) StartSpan(parent int32, name, cat string) SpanRef {
	if cat == CatPhase && parent == RootSpan {
		t.mu.Lock()
		t.phase = name
		t.mu.Unlock()
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

// End completes the span, records it and returns its duration.
func (r SpanRef) End(args ...Arg) time.Duration {
	dur := time.Since(r.start)
	r.tr.append(Span{
		ID:      r.ID,
		Parent:  r.par,
		Name:    r.name,
		Cat:     r.cat,
		StartNs: r.start.Sub(r.tr.Start).Nanoseconds(),
		DurNs:   dur.Nanoseconds(),
		Args:    args,
	})
	return dur
}

// SpanAt records an already-measured span (start/duration known after
// the fact) and returns its ID.
func (t *Trace) SpanAt(parent int32, name, cat string, start time.Time, dur time.Duration, args ...Arg) int32 {
	return t.SpanAtOn(parent, name, cat, 0, 0, start, dur, args...)
}

// SpanAtOn is SpanAt with an explicit (node, partition) placement, used
// for operator-instance spans.
func (t *Trace) SpanAtOn(parent int32, name, cat string, node, part int, start time.Time, dur time.Duration, args ...Arg) int32 {
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
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Finish seals the trace, recording the error text, if any, and args
// that annotate the whole query, and moves it into the tracer's
// recent-trace ring. Double Finish is a no-op.
func (t *Trace) Finish(err error, args ...Arg) {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.endNs = time.Since(t.Start).Nanoseconds()
	t.args = args
	if err != nil {
		t.err = err.Error()
	}
	t.mu.Unlock()
	t.tracer.retire(t)
}

// Phase names the newest top-level phase span opened ("" before the
// first).
func (t *Trace) Phase() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.phase
}

// Args returns the arguments Finish recorded (nil while active).
func (t *Trace) Args() []Arg {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.args
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

// SlowestKept is how many of the slowest finished traces a tracer keeps
// beside its ring of the newest.
const SlowestKept = 32

// Tracer owns the ring of finished traces, the slowest finished traces
// and the background event ring; the traces of running queries are
// their owner's to list. One process-wide Default() instance exists,
// mirroring the obs metrics registry.
type Tracer struct {
	mu   sync.Mutex
	cap  int
	ring []*Trace // completed traces, oldest first
	slow []*Trace // the SlowestKept slowest completed traces, slowest first

	emu    sync.Mutex
	ecap   int
	events []Event // background events, oldest first
}

// NewTracer builds a tracer retaining the last `capacity` finished
// traces (<= 0 takes 128), the SlowestKept slowest, and 4x capacity
// background events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 128
	}
	return &Tracer{cap: capacity, ecap: capacity * 4}
}

var defaultTracer = NewTracer(128)

// Default returns the process-wide tracer.
func Default() *Tracer { return defaultTracer }

// queryIDs allocates process-wide stable query IDs, starting at 1.
var queryIDs atomic.Uint64

// NextQueryID returns a fresh process-unique query ID. The same ID
// stamps the query's trace, stats, slow-log record, spill directory,
// pprof label and typed-error payload, so every observability surface
// cross-references.
func NextQueryID() uint64 { return queryIDs.Add(1) }

// Start opens a trace for query id; Finish hands it to the ring.
func (tc *Tracer) Start(id uint64, query string) *Trace {
	return &Trace{ID: id, Query: query, Start: time.Now(), tracer: tc}
}

// retire appends a finished trace to the bounded ring, and keeps it
// among the slowest if it is one of them.
func (tc *Tracer) retire(t *Trace) {
	tc.mu.Lock()
	dur := t.DurNs()
	i := sort.Search(len(tc.slow), func(i int) bool { return tc.slow[i].DurNs() < dur })
	if i < SlowestKept {
		tc.slow = slices.Insert(tc.slow, i, t)
		if len(tc.slow) > SlowestKept {
			tc.slow[SlowestKept] = nil
			tc.slow = tc.slow[:SlowestKept]
		}
	}
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

// Slowest returns the slowest finished traces kept, slowest first.
func (tc *Tracer) Slowest() []*Trace {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return slices.Clone(tc.slow)
}

// Get finds a finished trace, newest or slowest, by query ID.
func (tc *Tracer) Get(id uint64) (*Trace, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for i := len(tc.ring) - 1; i >= 0; i-- {
		if tc.ring[i].ID == id {
			return tc.ring[i], true
		}
	}
	for _, t := range tc.slow {
		if t.ID == id {
			return t, true
		}
	}
	return nil, false
}

// Event records one background storage/WAL interval.
func (tc *Tracer) Event(name, cat, key string, start time.Time, dur time.Duration, args ...Arg) {
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
