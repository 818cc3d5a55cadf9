package harness

import (
	"testing"
	"time"
)

func TestHostSlowdown(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// A quiet second, then a second in which the host runs at two thirds
	// of its speed, with one outlier in each.
	var one []probeSample
	for ms := 0; ms < 2000; ms += 50 {
		ns := int64(probeRefNs)
		if ms >= 1000 {
			ns = probeRefNs * 3 / 2
		}
		if ms == 500 || ms == 1500 {
			ns *= 4
		}
		one = append(one, probeSample{at: at(ms), ns: ns})
	}
	h := hostSpeed{one}
	for _, c := range []struct {
		name     string
		from, to int
		want     float64
	}{
		{"quiet second", 0, 1000, 1},
		{"slow second", 1000, 2000, 1.5},
		{"an interval between two quanta takes its neighbours", 1010, 1020, 1.5},
		{"after the last quantum", 5000, 6000, 1.5},
		{"before the first", -2000, -1000, 1},
	} {
		if got := h.slowdown(at(c.from), at(c.to)); got != c.want {
			t.Errorf("%s: slowdown = %g, want %g", c.name, got, c.want)
		}
	}
	if got := (hostSpeed{nil}).slowdown(at(0), at(1000)); got != 1 {
		t.Errorf("no quantum at all: slowdown = %g, want 1", got)
	}
	// A second core that is twice as slow throughout: the mean of the two.
	var other []probeSample
	for ms := 25; ms < 2000; ms += 50 {
		other = append(other, probeSample{at: at(ms), ns: 2 * probeRefNs})
	}
	if got := (hostSpeed{one, other}).slowdown(at(0), at(1000)); got != 1.5 {
		t.Errorf("two cores at 1 and 2: slowdown = %g, want 1.5", got)
	}
}

// TestHostProbeRuns checks that the probe times its quanta on a clock
// that moves, in time order, and that Stop ends it.
func TestHostProbeRuns(t *testing.T) {
	p := startHostProbe()
	time.Sleep(3 * probeEvery)
	from := time.Now().Add(-time.Minute)
	h := p.Stop()
	if len(h) < 1 {
		t.Fatal("no probe thread")
	}
	for cpu, quanta := range h {
		if len(quanta) < 2 {
			t.Fatalf("core %d: %d quanta in %v", cpu, len(quanta), 3*probeEvery)
		}
		for i, q := range quanta {
			if q.ns <= 0 {
				t.Errorf("core %d: quantum %d took %d ns of thread CPU time", cpu, i, q.ns)
			}
			if i > 0 && q.at.Before(quanta[i-1].at) {
				t.Errorf("core %d: quantum %d ended before quantum %d", cpu, i, i-1)
			}
		}
	}
	// On any machine of this decade the quantum takes between a tenth and
	// ten times the reference.
	if s := h.slowdown(from, time.Now()); s < 0.1 || s > 10 {
		t.Errorf("slowdown = %g", s)
	}
}
