package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTraceSpansAndRing(t *testing.T) {
	tc := NewTracer(2)
	tr := tc.Start(1, "for $r in dataset R return $r")
	if tr.Phase() != "" {
		t.Fatalf("phase before any span = %q", tr.Phase())
	}
	sp := tr.StartSpan(RootSpan, "parse", CatPhase)
	if tr.Phase() != "parse" {
		t.Fatalf("phase = %q, want parse", tr.Phase())
	}
	// A nested phase span and an operator span leave the phase alone.
	tr.StartSpan(sp.ID, "plan-copy", CatPhase).End()
	tr.StartSpan(RootSpan, "scan", CatOperator).End()
	if tr.Phase() != "parse" {
		t.Fatalf("phase after nested spans = %q, want parse", tr.Phase())
	}
	if d := sp.End(I("tokens", 12)); d <= 0 {
		t.Fatalf("End returned %v", d)
	}
	tr.SpanAtOn(RootSpan, "DataScan", CatOperator, 1, 3, tr.Start, time.Millisecond, I("tuples_out", 10))

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[2].Name != "parse" || spans[2].Cat != CatPhase {
		t.Fatalf("span 2 = %+v", spans[2])
	}
	if spans[3].Node != 1 || spans[3].Part != 3 {
		t.Fatalf("operator span placement = node %d part %d", spans[3].Node, spans[3].Part)
	}

	if _, ok := tc.Get(1); ok || len(tc.Recent()) != 0 {
		t.Fatal("a running trace is in the ring")
	}
	tr.Finish(errors.New("boom"), I("rows", 3))
	if tr.Err() != "boom" || !tr.Done() {
		t.Fatalf("finish: err=%q done=%v", tr.Err(), tr.Done())
	}
	if args := tr.Args(); len(args) != 1 || args[0] != I("rows", 3) {
		t.Fatalf("finish args = %+v", args)
	}
	tr.Finish(nil) // double finish is a no-op
	if tr.Err() != "boom" || len(tr.Args()) != 1 {
		t.Fatal("double Finish overwrote the error or the args")
	}
	if len(tc.Recent()) != 1 {
		t.Fatalf("retire: recent=%d", len(tc.Recent()))
	}

	// Ring keeps only the newest `capacity` traces, newest first, and Get
	// also finds the SlowestKept slowest. Each later trace runs longer
	// than the one before, so traces 1 to 3 leave both sets.
	last := uint64(SlowestKept + 3)
	for id := uint64(2); id <= last; id++ {
		tr := tc.Start(id, "q")
		tr.Start = tr.Start.Add(-time.Duration(id) * time.Second)
		tr.Finish(nil)
	}
	recent := tc.Recent()
	if len(recent) != 2 || recent[0].ID != last || recent[1].ID != last-1 {
		t.Fatalf("ring contents: %v", ids(recent))
	}
	for id := uint64(1); id <= 3; id++ {
		if _, ok := tc.Get(id); ok {
			t.Fatalf("evicted trace %d still reachable", id)
		}
	}
	if got, ok := tc.Get(last); !ok || got.ID != last {
		t.Fatalf("Get(%d) failed", last)
	}
	if got, ok := tc.Get(4); !ok || got.ID != 4 {
		t.Fatal("Get(4) failed: a trace among the slowest must be found after it left the ring")
	}
}

func ids(ts []*Trace) []uint64 {
	out := make([]uint64, len(ts))
	for i, tr := range ts {
		out[i] = tr.ID
	}
	return out
}

func TestSpanCap(t *testing.T) {
	tc := NewTracer(1)
	tr := tc.Start(1, "q")
	for i := 0; i < maxSpansPerTrace+50; i++ {
		tr.SpanAt(RootSpan, "s", CatOperator, tr.Start, 0)
	}
	if got := len(tr.Spans()); got != maxSpansPerTrace {
		t.Fatalf("spans = %d, want cap %d", got, maxSpansPerTrace)
	}
}

func TestConcurrentSpanRecording(t *testing.T) {
	tc := NewTracer(1)
	tr := tc.Start(1, "q")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.SpanAtOn(RootSpan, "op", CatOperator, g, i, tr.Start, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 800 {
		t.Fatalf("spans = %d, want 800", got)
	}
	tr.Finish(nil)
}

func TestEventRingAndWindow(t *testing.T) {
	tc := NewTracer(1)
	base := time.Now()
	tc.Event("flush", CatStorage, "tree-a", base, 10*time.Millisecond, I("bytes", 100))
	tc.Event("wal-sync", CatWAL, "wal-0", base.Add(50*time.Millisecond), time.Millisecond)
	tc.Event("merge", CatStorage, "tree-b", base.Add(time.Hour), time.Second)

	in := tc.EventsBetween(base, base.Add(100*time.Millisecond))
	if len(in) != 2 {
		t.Fatalf("window events = %d, want 2", len(in))
	}
	// Ring bound: capacity is 4x trace capacity = 4.
	for i := 0; i < 10; i++ {
		tc.Event("flush", CatStorage, "t", base, 0)
	}
	if got := len(tc.Events()); got != 4 {
		t.Fatalf("event ring = %d, want 4", got)
	}
}

func TestNextQueryIDMonotonic(t *testing.T) {
	a := NextQueryID()
	b := NextQueryID()
	if b <= a {
		t.Fatalf("ids not increasing: %d then %d", a, b)
	}
}

// TestChromeJSONShape validates the trace-event export: a JSON object
// with a traceEvents array of "X"/"M" events carrying µs timestamps —
// the exact shape Perfetto and about:tracing load.
func TestChromeJSONShape(t *testing.T) {
	tc := NewTracer(4)
	tr := tc.Start(7, "for $r in dataset R return $r")
	tr.SpanAt(RootSpan, "parse", CatPhase, tr.Start, 2*time.Millisecond)
	exec := tr.SpanAt(RootSpan, "execute", CatPhase, tr.Start.Add(2*time.Millisecond), 8*time.Millisecond)
	tr.SpanAtOn(exec, "DataScan", CatOperator, 0, 1, tr.Start.Add(3*time.Millisecond), 5*time.Millisecond,
		I("tuples_out", 42))
	tc.Event("wal-sync", CatWAL, "wal-0", tr.Start.Add(time.Millisecond), time.Millisecond, I("recs", 3))
	tr.Finish(nil, I("rows", 5))

	buf, err := tr.ChromeJSON(tc)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	byName := map[string]int{}
	var sawMeta, sawWAL bool
	for _, e := range doc.TraceEvents {
		byName[e.Name]++
		switch e.Ph {
		case "M":
			sawMeta = true
		case "X":
			if e.Dur <= 0 {
				t.Fatalf("complete event %q has dur %v", e.Name, e.Dur)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
		if e.Name == "wal-sync" {
			sawWAL = true
			if e.Pid != chromePidStorage {
				t.Fatalf("wal event in pid %d, want storage pid", e.Pid)
			}
			if e.Args["key"] != "wal-0" {
				t.Fatalf("wal event key = %v", e.Args["key"])
			}
		}
		if e.Name == "query" && (e.Args["rows"] != float64(5) || e.Args["query_id"] != float64(7)) {
			t.Fatalf("query event args = %v, want the Finish args and the query id", e.Args)
		}
		if e.Name == "DataScan" {
			wantTid := operatorLaneBase + 0*operatorLaneStride + 1
			if e.Tid != wantTid {
				t.Fatalf("operator lane tid = %d, want %d", e.Tid, wantTid)
			}
		}
	}
	for _, want := range []string{"query", "parse", "execute", "DataScan"} {
		if byName[want] == 0 {
			t.Fatalf("missing %q event; have %v", want, byName)
		}
	}
	if !sawMeta {
		t.Fatal("no metadata (process/thread name) events")
	}
	if !sawWAL {
		t.Fatal("overlapping WAL event not overlaid")
	}
	// The parse phase's timestamp must be µs-scaled (2ms span → dur 2000µs).
	for _, e := range doc.TraceEvents {
		if e.Name == "parse" && (e.Dur < 1900 || e.Dur > 2100) {
			t.Fatalf("parse dur = %vµs, want ~2000", e.Dur)
		}
	}
}

func TestChromeJSONNilTrace(t *testing.T) {
	var tr *Trace
	if _, err := tr.ChromeJSON(nil); err == nil {
		t.Fatal("nil trace should error")
	}
}

func ExampleTrace_spans() {
	tc := NewTracer(1)
	tr := tc.Start(1, "q")
	tr.SpanAt(RootSpan, "parse", CatPhase, tr.Start, time.Millisecond)
	tr.Finish(nil)
	fmt.Println(len(tr.Spans()))
	// Output: 1
}
