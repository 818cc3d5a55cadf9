package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// that about:tracing and Perfetto load). Complete events use ph "X"
// with microsecond ts/dur; metadata events ("M") name processes and
// threads.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Chrome pid/tid layout: the query's phases and operators live in pid
// 1; overlapping background storage work in pid 2, one lane per
// category.
const (
	chromePidQuery   = 1
	chromePidStorage = 2

	chromeTidPhases = 0
	// Operator lanes: tid = operatorLaneBase + node*operatorLaneStride + part.
	operatorLaneBase   = 10
	operatorLaneStride = 64

	chromeTidFlushMerge = 1
	chromeTidWAL        = 2
)

func argsMap(args []Arg) map[string]any {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]any, len(args))
	for _, a := range args {
		if a.Str != "" {
			m[a.Key] = a.Str
		} else {
			m[a.Key] = a.Val
		}
	}
	return m
}

func metaName(pid, tid int, kind, name string) chromeEvent {
	return chromeEvent{
		Name: kind, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	}
}

// ChromeJSON renders the trace — plus any background storage/WAL
// events overlapping its time window, when a tracer is supplied — as
// Chrome trace-event JSON. The output loads in about:tracing and
// Perfetto: query phases on one lane, operator instances on one lane
// per (node, partition), background work in a second process.
func (t *Trace) ChromeJSON(tc *Tracer) ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("trace: no trace")
	}
	spans := t.Spans()
	out := chromeTrace{DisplayTimeUnit: "ms"}
	out.TraceEvents = append(out.TraceEvents,
		metaName(chromePidQuery, 0, "process_name", fmt.Sprintf("query %d", t.ID)),
		metaName(chromePidQuery, chromeTidPhases, "thread_name", "phases"),
	)

	// The whole query as the root event so empty traces still render; it
	// carries the arguments Finish recorded.
	root := argsMap(t.Args())
	if root == nil {
		root = map[string]any{}
	}
	root["query"], root["query_id"], root["error"] = t.Query, t.ID, t.Err()
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "query", Cat: CatPhase, Ph: "X",
		Ts: 0, Dur: float64(t.DurNs()) / 1e3,
		Pid: chromePidQuery, Tid: chromeTidPhases,
		Args: root,
	})

	seenLanes := map[int]string{}
	for _, s := range spans {
		tid := chromeTidPhases
		if s.Cat == CatOperator {
			tid = operatorLaneBase + s.Node*operatorLaneStride + s.Part
			if _, ok := seenLanes[tid]; !ok {
				seenLanes[tid] = fmt.Sprintf("node %d / part %d", s.Node, s.Part)
			}
		}
		dur := float64(s.DurNs) / 1e3
		if dur <= 0 {
			dur = 0.001 // keep zero-length spans visible
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts: float64(s.StartNs) / 1e3, Dur: dur,
			Pid: chromePidQuery, Tid: tid,
			Args: argsMap(s.Args),
		})
	}
	lanes := make([]int, 0, len(seenLanes))
	for tid := range seenLanes {
		lanes = append(lanes, tid)
	}
	sort.Ints(lanes)
	for _, tid := range lanes {
		out.TraceEvents = append(out.TraceEvents,
			metaName(chromePidQuery, tid, "thread_name", seenLanes[tid]))
	}

	if tc != nil {
		// The overlay window covers the trace's wall duration and every
		// recorded span (spans injected with SpanAt may extend past the
		// measured end).
		endNs := t.DurNs()
		for _, s := range spans {
			if e := s.StartNs + s.DurNs; e > endNs {
				endNs = e
			}
		}
		end := t.Start.Add(time.Duration(endNs))
		events := tc.EventsBetween(t.Start, end)
		if len(events) > 0 {
			out.TraceEvents = append(out.TraceEvents,
				metaName(chromePidStorage, 0, "process_name", "storage maintenance"),
				metaName(chromePidStorage, chromeTidFlushMerge, "thread_name", "flush/merge"),
				metaName(chromePidStorage, chromeTidWAL, "thread_name", "wal"),
			)
			for _, e := range events {
				tid := chromeTidFlushMerge
				if e.Cat == CatWAL {
					tid = chromeTidWAL
				}
				args := argsMap(e.Args)
				if args == nil {
					args = map[string]any{}
				}
				args["key"] = e.Key
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: e.Name, Cat: e.Cat, Ph: "X",
					Ts:  float64(e.Start.Sub(t.Start).Nanoseconds()) / 1e3,
					Dur: float64(e.DurNs) / 1e3,
					Pid: chromePidStorage, Tid: tid,
					Args: args,
				})
			}
		}
	}
	return json.Marshal(out)
}
