// Package span is simbench's in-memory span recorder. The benchmark
// wraps each call it makes into a layer's public functions in a span;
// nothing is written until the run ends, when the spans become one
// Chrome trace-event file. A nil *Recorder records nothing, which is
// how the untraced run pays no cost.
package span

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// ID names a recorded span; 0 is "no span" (the parent of a root).
type ID int32

// Span is one timed interval. Spans of one benchmark operation (one
// query, one batch) share Op; Lane is the client goroutine that ran it.
type Span struct {
	Name       string
	Start, End time.Duration // since the recorder was made
	Parent     ID
	Op         uint64
	Lane       int
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder collects spans from any number of goroutines.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// New returns an empty recorder whose clock starts now.
func New() *Recorder { return &Recorder{epoch: time.Now()} }

// Add records a finished span and returns its ID.
func (r *Recorder) Add(name string, parent ID, op uint64, lane int, start, end time.Time) ID {
	if r == nil {
		return 0
	}
	s := Span{Name: name, Start: start.Sub(r.epoch), End: end.Sub(r.epoch), Parent: parent, Op: op, Lane: lane}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	id := ID(len(r.spans))
	r.mu.Unlock()
	return id
}

// Spans returns a copy of everything recorded; span i has ID i+1.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, for each span, its duration minus the part of its
// interval that its child spans cover (overlapping children count once,
// and a child is clipped to its parent).
func SelfTimes(spans []Span) []time.Duration {
	children := make(map[ID][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[ID(i+1)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already accounted for
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.Dur() - covered
	}
	return self
}

// SelfByName sums self time per span name.
func SelfByName(spans []Span) map[string]time.Duration {
	self := map[string]time.Duration{}
	for i, d := range SelfTimes(spans) {
		self[spans[i].Name] += d
	}
	return self
}

// WriteChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microseconds), loadable in chrome://tracing and Perfetto.
func (r *Recorder) WriteChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	spans := r.Spans()
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur()) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": i + 1, "parent": s.Parent, "op": s.Op},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
