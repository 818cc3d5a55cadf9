// Package stats holds simbench's arithmetic: percentiles, the
// run-to-run spread the regression bounds are judged against, and the
// open-loop schedule that times each request from when it was due.
package stats

import (
	"math"
	"sort"
	"time"
)

// Percentile returns the p-th percentile (0..100) of v by linear
// interpolation between closest ranks; v need not be sorted and is not
// modified. It returns NaN for an empty v.
func Percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is the 50th percentile.
func Median(v []float64) float64 { return Percentile(v, 50) }

// Mean is the arithmetic mean, 0 for an empty v.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// Quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what
// judges this benchmark's steadiness. It needs at least two values.
func Quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(3)
}

// Spread is the interquartile distance of v as a share of its median:
// the run-to-run noise a regression bound has to exceed. It is 0 for
// fewer than two values.
func Spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := Quartiles(v)
	m := Median(v)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// Clock is the time source of an open loop; tests substitute a fake.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// Wall is the real clock.
var Wall Clock = wallClock{}

// OpenLoopResult is what an open loop measured.
type OpenLoopResult struct {
	// LatencyMs[i] is request i's completion time minus its due time: a
	// stall in request i delays the sending of i+1, i+2, ... and that
	// wait is part of their latency.
	LatencyMs []float64
	// MaxLagMs is the longest any request was sent after it was due: how
	// far the generator fell behind its schedule.
	MaxLagMs float64
}

// OpenLoop calls do(i) for i = 0, 1, ... on a fixed schedule — request
// i is due at start + i*interval — until a request's due time reaches
// end or do returns false. One caller sends in order, so a slow do makes
// the following requests late rather than dropping them.
func OpenLoop(c Clock, start time.Time, interval time.Duration, end time.Time, do func(i int) bool) OpenLoopResult {
	var res OpenLoopResult
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return res
		}
		if wait := due.Sub(c.Now()); wait > 0 {
			c.Sleep(wait)
		}
		lag := float64(c.Now().Sub(due)) / 1e6
		res.MaxLagMs = math.Max(res.MaxLagMs, lag)
		if !do(i) {
			return res
		}
		res.LatencyMs = append(res.LatencyMs, float64(c.Now().Sub(due))/1e6)
	}
}
