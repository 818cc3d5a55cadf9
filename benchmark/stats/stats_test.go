package stats

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	v := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {95, 48}, {10, 14},
	} {
		if got := Percentile(v, c.p); !near(got, c.want) {
			t.Errorf("Percentile(%v, %g) = %g, want %g", v, c.p, got, c.want)
		}
	}
	if v[0] != 50 {
		t.Error("Percentile reordered its input")
	}
	if got := Percentile([]float64{7}, 95); got != 7 {
		t.Errorf("one sample: p95 = %g, want 7", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("no samples: want NaN")
	}
	if got := Median([]float64{1, 2, 3, 4}); !near(got, 2.5) {
		t.Errorf("Median = %g, want 2.5", got)
	}
	if got := Mean([]float64{1, 2, 6}); !near(got, 3) {
		t.Errorf("Mean = %g, want 3", got)
	}
}

// The expected values are Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 5, 3, 8}, 2, 9},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
	} {
		q1, q3 := Quartiles(c.v)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %g, %g; want %g, %g", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("Spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := Spread([]float64{4}); got != 0 {
		t.Errorf("Spread of one value = %g, want 0", got)
	}
}

// fakeClock advances only when told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// A writer that stalls once: requests are due every 10 ms and take 1 ms,
// except request 2, which takes 35 ms. Requests 3, 4 and 5 are sent late,
// and their latency counts from when they were due, not from when they
// were sent.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	res := OpenLoop(clk, start, 10*time.Millisecond, start.Add(80*time.Millisecond), func(i int) bool {
		if i == 2 {
			clk.Sleep(35 * time.Millisecond)
		} else {
			clk.Sleep(time.Millisecond)
		}
		return true
	})
	// due:        0  10  20  30  40  50  60  70
	// sent:       0  10  20  55  56  57  60  70
	// completed:  1  11  55  56  57  58  61  71
	want := []float64{1, 1, 35, 26, 17, 8, 1, 1}
	if len(res.LatencyMs) != len(want) {
		t.Fatalf("%d requests, want %d: %v", len(res.LatencyMs), len(want), res.LatencyMs)
	}
	for i := range want {
		if !near(res.LatencyMs[i], want[i]) {
			t.Errorf("request %d: latency %g ms from due time, want %g", i, res.LatencyMs[i], want[i])
		}
	}
	if !near(res.MaxLagMs, 25) {
		t.Errorf("max lag = %g ms, want 25 (request 3 due at 30, sent at 55)", res.MaxLagMs)
	}
}

func TestOpenLoopStopsWhenToldTo(t *testing.T) {
	start := time.Unix(0, 0)
	clk := &fakeClock{now: start}
	res := OpenLoop(clk, start, time.Millisecond, start.Add(time.Second), func(i int) bool { return i < 3 })
	if len(res.LatencyMs) != 3 {
		t.Errorf("%d requests completed, want 3", len(res.LatencyMs))
	}
}
