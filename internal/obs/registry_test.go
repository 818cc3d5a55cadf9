package obs

import (
	"bytes"
	"math"
	"sync"
	"testing"
)

func TestBucketMonotonicAndConsistent(t *testing.T) {
	vals := []int64{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 100, 1000, 1 << 20, 1 << 40, 1 << 62, math.MaxInt64}
	prev := -1
	for _, v := range vals {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf not monotonic at %d: %d < %d", v, b, prev)
		}
		prev = b
		if u := bucketUpper(b); u < v {
			t.Fatalf("bucketUpper(%d)=%d < value %d", b, u, v)
		}
	}
	// Every value must land inside its bucket: upper(b-1) < v <= upper(b).
	for v := int64(0); v < 100000; v += 7 {
		b := bucketOf(v)
		if bucketUpper(b) < v {
			t.Fatalf("value %d above its bucket upper %d", v, bucketUpper(b))
		}
		if b > 0 && bucketUpper(b-1) >= v {
			t.Fatalf("value %d should be in bucket %d, fits in %d", v, b, b-1)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	// Uniform 1..1000: p50 ~ 500, p95 ~ 950, p99 ~ 990 within the
	// documented 12.5% relative bucket error.
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	check := func(p float64, exact int64) {
		got := h.Quantile(p)
		if got < exact || float64(got) > float64(exact)*1.125+1 {
			t.Errorf("Quantile(%v) = %d, want in [%d, %.0f]", p, got, exact, float64(exact)*1.125+1)
		}
	}
	check(0.50, 500)
	check(0.95, 950)
	check(0.99, 990)
	if got := h.Quantile(1.0); got != 1000 {
		t.Errorf("Quantile(1.0) = %d, want 1000 (observed max cap)", got)
	}
	if got := h.Quantile(0); got < 1 {
		t.Errorf("Quantile(0) = %d, want >= 1", got)
	}
	s := h.Snapshot()
	if s.Min != 1 || s.Max != 1000 || s.Sum != 500500 {
		t.Errorf("snapshot min/max/sum = %d/%d/%d, want 1/1000/500500", s.Min, s.Max, s.Sum)
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	h := newHistogram()
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	s := h.Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
	h.Observe(-5)
	if s := h.Snapshot(); s.Count != 1 || s.Min != 0 || s.Max != 0 {
		t.Errorf("negative observation should clamp to 0, got %+v", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(seed*1000 + i)
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

func TestRegistrySnapshotDeterminism(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("z.queries").Add(7)
		r.Counter("a.flushes").Inc()
		r.Gauge("mem.bytes").Set(4096)
		r.Gauge("peak").SetMax(3)
		r.Gauge("peak").SetMax(9)
		r.Gauge("peak").SetMax(2)
		for v := int64(1); v <= 100; v++ {
			r.Histogram("lat.ns").Observe(v * 10)
		}
		return r
	}
	j1, err := build().Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := build().Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("snapshot JSON not deterministic:\n%s\nvs\n%s", j1, j2)
	}
	s := build().Snapshot()
	if s.Counters["z.queries"] != 7 || s.Counters["a.flushes"] != 1 {
		t.Errorf("counters = %v", s.Counters)
	}
	if s.Gauges["peak"] != 9 {
		t.Errorf("SetMax gauge = %d, want 9", s.Gauges["peak"])
	}
	if s.Histograms["lat.ns"].Count != 100 {
		t.Errorf("histogram count = %d", s.Histograms["lat.ns"].Count)
	}
}

func TestRegistrySameHandle(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter should return a stable handle")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Error("Gauge should return a stable handle")
	}
	if r.Histogram("x") != r.Histogram("x") {
		t.Error("Histogram should return a stable handle")
	}
}
