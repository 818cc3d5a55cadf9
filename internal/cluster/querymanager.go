package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Typed serving errors. Callers distinguish the three failure modes
// with errors.Is: a query that never got a slot before its context
// expired (ErrAdmissionTimeout), an admission wait abandoned by the
// client (ErrAdmissionCanceled), and an admitted query killed by the
// per-query execution deadline (ErrQueryTimeout).
var (
	ErrAdmissionTimeout  = errors.New("cluster: timed out waiting for query admission")
	ErrAdmissionCanceled = errors.New("cluster: admission wait canceled")
	ErrQueryTimeout      = errors.New("cluster: query exceeded execution timeout")
)

// QueryManager gates concurrent query execution: a bounded admission
// semaphore keeps the cluster from oversubscribing itself under heavy
// traffic, a per-query deadline bounds runaway queries, and per-query
// stats are collected without racing (each query gets its own
// QueryStats; shared counters are atomic). Admission waits respect the
// caller's context, so a cancelled client stops waiting immediately.
type QueryManager struct {
	sem     chan struct{}
	timeout time.Duration
	// admitWait bounds the admission wait itself: a query that cannot
	// get a slot within admitWait fails with ErrAdmissionTimeout even
	// when the caller's context has no deadline. Serving front ends map that onto 503 + Retry-After so
	// overload surfaces as fast rejection instead of unbounded queueing.
	// 0 means wait as long as the caller's context allows.
	admitWait time.Duration

	admitted  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	rejected  atomic.Int64
	timedOut  atomic.Int64
	active    atomic.Int64
	peak      atomic.Int64
}

// newQueryManager builds a manager admitting at most maxConcurrent
// queries at a time (<= 0 means the default of 64) with an optional
// per-query timeout (0 means none) and an optional bound on the
// admission wait itself (0 means none).
func newQueryManager(maxConcurrent int, timeout, admitWait time.Duration) *QueryManager {
	if maxConcurrent <= 0 {
		maxConcurrent = 64
	}
	return &QueryManager{
		sem:       make(chan struct{}, maxConcurrent),
		timeout:   timeout,
		admitWait: admitWait,
	}
}

// admit blocks until a slot frees up or ctx is done. On success it
// returns the (possibly deadline-wrapped) query context, a release
// function, and the time spent waiting for admission. release classifies the query's outcome:
// it returns the error as-is, or wrapped in ErrQueryTimeout when the
// per-query deadline (not the caller's context) killed the execution.
func (m *QueryManager) admit(ctx context.Context) (context.Context, func(err error) error, int64, error) {
	t0 := time.Now()
	// actx bounds only the admission wait: once admitted, the query runs
	// under ctx (plus the per-query execution deadline below). A query
	// that exhausts admitWait while every slot is taken rejects with
	// ErrAdmissionTimeout regardless of the caller's own deadline.
	actx := ctx
	if m.admitWait > 0 {
		var cancelAdmit context.CancelFunc
		actx, cancelAdmit = context.WithTimeout(ctx, m.admitWait)
		defer cancelAdmit()
	}
	select {
	case m.sem <- struct{}{}:
	case <-actx.Done():
		m.rejected.Add(1)
		if errors.Is(actx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
			// The admission-wait bound fired, not the caller's context.
			return nil, nil, 0, fmt.Errorf("%w: %w", ErrAdmissionTimeout, actx.Err())
		}
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, nil, 0, fmt.Errorf("%w: %w", ErrAdmissionTimeout, ctx.Err())
		}
		return nil, nil, 0, fmt.Errorf("%w: %w", ErrAdmissionCanceled, ctx.Err())
	}
	waitNs := time.Since(t0).Nanoseconds()
	m.admitted.Add(1)
	a := m.active.Add(1)
	for {
		p := m.peak.Load()
		if a <= p || m.peak.CompareAndSwap(p, a) {
			break
		}
	}
	qctx := ctx
	cancel := func() {}
	if m.timeout > 0 {
		qctx, cancel = context.WithTimeout(ctx, m.timeout)
	}
	release := func(err error) error {
		// Classify before cancel(): cancelling would overwrite the
		// deadline state of qctx.
		if err != nil && m.timeout > 0 &&
			errors.Is(qctx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
			err = fmt.Errorf("%w: %w", ErrQueryTimeout, err)
			m.timedOut.Add(1)
		}
		cancel()
		m.active.Add(-1)
		if err != nil {
			m.failed.Add(1)
		} else {
			m.completed.Add(1)
		}
		<-m.sem
		return err
	}
	return qctx, release, waitNs, nil
}

// QueryManagerStats is a point-in-time snapshot of serving counters.
type QueryManagerStats struct {
	Admitted   int64 // queries that obtained a slot
	Completed  int64 // finished without error
	Failed     int64 // finished with an error (including timeouts)
	Rejected   int64 // gave up waiting for admission (context done)
	TimedOut   int64 // admitted but killed by the per-query deadline
	Active     int64 // currently executing
	PeakActive int64 // high-water mark of concurrent execution
	MaxActive  int   // the admission bound
}

// Stats returns the current counters.
func (m *QueryManager) Stats() QueryManagerStats {
	return QueryManagerStats{
		Admitted:   m.admitted.Load(),
		Completed:  m.completed.Load(),
		Failed:     m.failed.Load(),
		Rejected:   m.rejected.Load(),
		TimedOut:   m.timedOut.Load(),
		Active:     m.active.Load(),
		PeakActive: m.peak.Load(),
		MaxActive:  cap(m.sem),
	}
}
