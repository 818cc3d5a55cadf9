package span

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeOfAKnownTree(t *testing.T) {
	r := New()
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	// query [0,100]
	//   compile [10,30]
	//   exec    [30,90]
	//     scan  [40,60]
	//     sort  [55,80]   overlaps scan by 5 ms
	//   late    [95,120]  runs past its parent's end
	query := r.Add("query", 0, 1, 0, at(0), at(100))
	r.Add("compile", query, 1, 0, at(10), at(30))
	exec := r.Add("exec", query, 1, 0, at(30), at(90))
	r.Add("scan", exec, 1, 0, at(40), at(60))
	r.Add("sort", exec, 1, 0, at(55), at(80))
	r.Add("late", query, 1, 0, at(95), at(120))
	other := r.Add("query", 0, 2, 1, at(200), at(210))

	spans := r.Spans()
	if len(spans) != 7 || other != 7 {
		t.Fatalf("recorded %d spans, last id %d; want 7 and 7", len(spans), other)
	}
	want := []time.Duration{
		15 * time.Millisecond, // query: 100 - 20 - 60 - 5 (late clipped to [95,100])
		20 * time.Millisecond, // compile
		20 * time.Millisecond, // exec: 60 - [40,80]
		20 * time.Millisecond, // scan
		25 * time.Millisecond, // sort
		25 * time.Millisecond, // late
		10 * time.Millisecond, // the other query
	}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", i+1, spans[i].Name, got[i], want[i])
		}
	}
	if self := SelfByName(spans); self["query"] != 25*time.Millisecond || self["exec"] != 20*time.Millisecond {
		t.Errorf("self by name: query %v, exec %v; want 25ms, 20ms", self["query"], self["exec"])
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	if id := r.Add("x", 0, 1, 0, time.Now(), time.Now()); id != 0 {
		t.Errorf("nil recorder returned span id %d", id)
	}
	if s := r.Spans(); s != nil {
		t.Errorf("nil recorder holds %d spans", len(s))
	}
}

func TestChromeTrace(t *testing.T) {
	r := New()
	root := r.Add("query", 0, 42, 3, r.epoch.Add(time.Millisecond), r.epoch.Add(3*time.Millisecond))
	r.Add("exec", root, 42, 3, r.epoch.Add(2*time.Millisecond), r.epoch.Add(3*time.Millisecond))
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Tid  int
			Args struct{ ID, Parent, Op int }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	e := doc.TraceEvents[1]
	if e.Name != "exec" || e.Ph != "X" || e.Ts != 2000 || e.Dur != 1000 || e.Tid != 3 ||
		e.Args.ID != 2 || e.Args.Parent != 1 || e.Args.Op != 42 {
		t.Errorf("second event = %+v", e)
	}
}
