// Package hyracks is SimDB's parallel dataflow runtime, modeled on the
// Hyracks layer the paper's AsterixDB executes on: a job is a DAG of
// operators and connectors; each operator runs as one goroutine per
// partition; connectors (one-to-one, hash repartition, hash repartition
// merge, broadcast, merge-to-coordinator) move tuple frames between
// partitions over channels that double as the simulated cluster
// network, counting every cross-node byte.
package hyracks

import (
	"context"
	"sort"
	"sync"
	"time"

	"simdb/internal/adm"
)

// Tuple is one row: a positional list of values. Columns are bound to
// variable names at plan-compile time; the runtime deals in positions.
type Tuple []adm.Value

// Clone returns a shallow copy of the tuple (values are immutable).
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// EncodedSize returns the tuple's wire size under the adm binary
// encoding; connectors charge this many bytes for cross-node hops.
func (t Tuple) EncodedSize() int {
	n := 0
	for _, v := range t {
		n += adm.EncodedSize(v)
	}
	return n
}

// frame is a batch of tuples moved through a channel in one send.
type frame struct {
	tuples []Tuple
}

// DefaultFrameSize is the tuple batch size per connector send when
// Topology.FrameSize is unset.
const DefaultFrameSize = 128

// DefaultChanCap is every connector channel's frame buffer (the
// backpressure bound) and the TCP transport's per-stream credit window,
// so a stream exerts the same backpressure within a process and across
// two (EXPERIMENTS.md, "The knob sweep").
const DefaultChanCap = 4

// SortCol names a sort column and direction for merging connectors and
// sort operators.
type SortCol struct {
	Col  int
	Desc bool
}

// CompareTuples orders two tuples by the given sort columns.
func CompareTuples(a, b Tuple, cols []SortCol) int {
	for _, sc := range cols {
		c := adm.Compare(a[sc.Col], b[sc.Col])
		if sc.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// PortReader delivers the tuples arriving at one input port of one
// operator instance. Plain ports multiplex every producer into one
// channel; merging ports keep one channel per producer and k-way merge
// them by sort order. Readers track time blocked on the network so the
// executor can compute operator busy time.
type PortReader struct {
	ctx     context.Context
	ch      chan frame   // plain port
	chans   []chan frame // merging port: one per producer
	mergeBy []SortCol
	waitNs  *int64
	state   *instanceState
	portIdx int

	// tuplesIn counts tuples delivered through this port. It is owned by
	// the reading instance's goroutine (no atomics needed) and summed
	// into the instance's OpSpan when it finishes.
	tuplesIn int64

	buf    []Tuple
	bufPos int

	// merge state
	heads  []Tuple
	inited bool
	bufs   [][]Tuple
	poss   []int
}

// Next returns the next tuple, or ok=false when the port is exhausted
// or the job is cancelled.
func (r *PortReader) Next() (Tuple, bool) {
	if r.chans != nil {
		return r.nextMerged()
	}
	for r.bufPos >= len(r.buf) {
		t0 := time.Now()
		r.state.set("recv", r.portIdx, r.ch)
		select {
		case f, ok := <-r.ch:
			r.state.clear()
			*r.waitNs += time.Since(t0).Nanoseconds()
			if !ok {
				return nil, false
			}
			r.buf = f.tuples
			r.bufPos = 0
		case <-r.ctx.Done():
			r.state.clear()
			*r.waitNs += time.Since(t0).Nanoseconds()
			return nil, false
		}
	}
	t := r.buf[r.bufPos]
	r.bufPos++
	r.tuplesIn++
	return t, true
}

// Drain consumes and discards any remaining input (used on early exit
// so producers do not block forever on a full channel).
func (r *PortReader) Drain() {
	for {
		if _, ok := r.Next(); !ok {
			return
		}
	}
}

func (r *PortReader) nextMerged() (Tuple, bool) {
	if !r.inited {
		r.inited = true
		r.heads = make([]Tuple, len(r.chans))
		r.bufs = make([][]Tuple, len(r.chans))
		r.poss = make([]int, len(r.chans))
		for i := range r.chans {
			r.advance(i)
		}
	}
	best := -1
	for i, h := range r.heads {
		if h == nil {
			continue
		}
		if best < 0 || CompareTuples(h, r.heads[best], r.mergeBy) < 0 {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	t := r.heads[best]
	r.advance(best)
	r.tuplesIn++
	return t, true
}

// advance loads the next tuple from producer stream i into heads[i].
func (r *PortReader) advance(i int) {
	for r.poss[i] >= len(r.bufs[i]) {
		t0 := time.Now()
		r.state.set("recv-merge", r.portIdx, r.chans[i])
		select {
		case f, ok := <-r.chans[i]:
			r.state.clear()
			*r.waitNs += time.Since(t0).Nanoseconds()
			if !ok {
				r.heads[i] = nil
				return
			}
			r.bufs[i] = f.tuples
			r.poss[i] = 0
		case <-r.ctx.Done():
			r.state.clear()
			*r.waitNs += time.Since(t0).Nanoseconds()
			r.heads[i] = nil
			return
		}
	}
	r.heads[i] = r.bufs[i][r.poss[i]]
	r.poss[i]++
}

// refCountedChan closes ch after done() has been called by every
// producer feeding it.
type refCountedChan struct {
	ch        chan frame
	remaining int
	mu        sync.Mutex
}

func (rc *refCountedChan) done() {
	rc.mu.Lock()
	rc.remaining--
	last := rc.remaining == 0
	rc.mu.Unlock()
	if last {
		close(rc.ch)
	}
}

// sendCtx sends f on ch unless the context is cancelled; it reports the
// nanoseconds spent blocked.
func sendCtx(ctx context.Context, ch chan frame, f frame) int64 {
	t0 := time.Now()
	select {
	case ch <- f:
	case <-ctx.Done():
	}
	return time.Since(t0).Nanoseconds()
}

// sortTuples sorts ts in place by the sort columns.
func sortTuples(ts []Tuple, cols []SortCol) {
	sort.SliceStable(ts, func(i, j int) bool {
		return CompareTuples(ts[i], ts[j], cols) < 0
	})
}
