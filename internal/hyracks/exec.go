package hyracks

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// OpSpan is the one record hyracks.Run writes per operator instance.
// Every other figure about a job — the per-operator table, per-node
// busy time and tuple counts, spill totals — is a fold over these.
// Short JSON names: a worker's job reply carries its list on every
// query.
type OpSpan struct {
	ID   int    `json:"id"` // operator ID, in job order
	Op   string `json:"op"`
	Part int    `json:"p,omitempty"`
	Node int    `json:"n,omitempty"`
	// StartNs is the instance's start as an offset from the start of Run
	// in the process that ran it, so spans of different processes line up
	// without comparing their wall clocks.
	StartNs    int64 `json:"s"`
	WallNs     int64 `json:"w"`
	BusyNs     int64 `json:"b"` // wall minus time blocked on connectors
	TuplesIn   int64 `json:"i,omitempty"`
	TuplesOut  int64 `json:"o,omitempty"`
	FramesSent int64 `json:"f,omitempty"`
	BytesMoved int64 `json:"x,omitempty"` // cross-node bytes only
	// SpillRuns and SpilledBytes count runs written to temp storage when
	// the instance exceeded its memory grant (0 when everything fit).
	SpillRuns    int64 `json:"sr,omitempty"`
	SpilledBytes int64 `json:"sb,omitempty"`
}

// OpStats is the per-operator aggregate over all instances. BusyNs,
// tuple, frame, byte and spill counts are summed across instances;
// WallNs is the slowest instance's wall time.
type OpStats struct {
	ID           int
	Name         string
	Instances    int
	TuplesIn     int64
	TuplesOut    int64
	BusyNs       int64
	WallNs       int64
	FramesSent   int64
	BytesMoved   int64
	SpillRuns    int64
	SpilledBytes int64
}

// AggregateOps folds instance records into one row per operator ID, in
// ID order — job order, whatever order the instances finished in and
// whichever process ran them. Operators that share a name (the two
// scans of a self-join) stay separate rows.
func AggregateOps(spans []OpSpan) []OpStats {
	at := map[int]int{} // operator ID → index in ops
	var ops []OpStats
	for i := range spans {
		sp := &spans[i]
		j, ok := at[sp.ID]
		if !ok {
			j = len(ops)
			at[sp.ID] = j
			ops = append(ops, OpStats{ID: sp.ID, Name: sp.Op})
		}
		o := &ops[j]
		o.Instances++
		o.TuplesIn += sp.TuplesIn
		o.TuplesOut += sp.TuplesOut
		o.BusyNs += sp.BusyNs
		o.FramesSent += sp.FramesSent
		o.BytesMoved += sp.BytesMoved
		o.SpillRuns += sp.SpillRuns
		o.SpilledBytes += sp.SpilledBytes
		if sp.WallNs > o.WallNs {
			o.WallNs = sp.WallNs
		}
	}
	sort.Slice(ops, func(a, b int) bool { return ops[a].ID < ops[b].ID })
	return ops
}

// JobStats summarizes one job execution: real wall time, the simulated
// or real network traffic, and one OpSpan per operator instance. The
// cluster layer's cost model combines the per-node folds below into an
// estimated parallel makespan for the scale-out and speed-up
// experiments.
//
// Under a multi-process Transport each process records only the
// instances it ran; the coordinator merges the partial JobStats of
// every process into the query's totals.
type JobStats struct {
	WallNs        int64    `json:"w"`
	BytesShuffled int64    `json:"bytes,omitempty"`
	NetMessages   int64    `json:"msgs,omitempty"`
	Spans         []OpSpan `json:"spans"`
}

// SpillTotals returns the job-wide spill run and byte counts.
func (s *JobStats) SpillTotals() (runs, bytes int64) {
	for i := range s.Spans {
		runs += s.Spans[i].SpillRuns
		bytes += s.Spans[i].SpilledBytes
	}
	return runs, bytes
}

// maxPerNode sums f over each node's instances and returns the busiest
// node's sum.
func (s *JobStats) maxPerNode(f func(*OpSpan) int64) int64 {
	perNode := map[int]int64{}
	var max int64
	for i := range s.Spans {
		sp := &s.Spans[i]
		perNode[sp.Node] += f(sp)
		if perNode[sp.Node] > max {
			max = perNode[sp.Node]
		}
	}
	return max
}

// MaxNodeTuples returns the busiest node's emitted-tuple count — a
// contention-free work measure the cost model uses for the
// scale-out/speed-up estimates (goroutine time-sharing on a small host
// inflates busy time across configurations; tuple counts do not).
func (s *JobStats) MaxNodeTuples() int64 {
	return s.maxPerNode(func(sp *OpSpan) int64 { return sp.TuplesOut })
}

// MaxNodeBusyNs returns the busiest node's operator time (time not
// spent blocked on connectors).
func (s *JobStats) MaxNodeBusyNs() int64 {
	return s.maxPerNode(func(sp *OpSpan) int64 { return sp.BusyNs })
}

// TotalBusyNs returns the summed operator time across nodes.
func (s *JobStats) TotalBusyNs() int64 {
	var sum int64
	for i := range s.Spans {
		sum += s.Spans[i].BusyNs
	}
	return sum
}

// Merge folds another process's partial JobStats for the same job into
// s: each instance ran in exactly one process, so instance records
// append, and traffic totals add (bytes are counted on the sending side
// only). WallNs stays the receiver's — the coordinator's run spans the
// workers'.
func (s *JobStats) Merge(o *JobStats) {
	if o == nil {
		return
	}
	s.BytesShuffled += o.BytesShuffled
	s.NetMessages += o.NetMessages
	s.Spans = append(s.Spans, o.Spans...)
}

// edge carries the plumbing for one (producer port, consumer port)
// connection: in-process channels for pairs whose two ends live in
// this process, transport streams for pairs that cross processes.
type edge struct {
	idx       int // deterministic edge index, part of every StreamID
	spec      ConnectorSpec
	prodParts int
	consParts int
	plain     []*refCountedChan // per consumer; nil for merging connectors or non-local consumers
	merged    [][]chan frame    // merged[consumer][producer]; nil rows for non-local consumers
	senders   [][]FrameSender   // senders[producer][consumer]; nil without cross-process pairs
	prodNodes []int
	consNodes []int
}

// forwarder bridges one inbound transport stream into the consumer-side
// channel the PortReader drains.
type forwarder struct {
	recv FrameReceiver
	ch   chan frame      // merging edge: this producer's private channel (closed at EOS)
	rc   *refCountedChan // plain edge: shared channel (done() at EOS)
}

// Run executes the job on the topology and blocks until every operator
// instance placed on this process's node finishes (every instance, when
// no Transport restricts placement). The first operator error cancels
// the job and is returned.
func Run(ctx context.Context, job *Job, topo Topology) (*JobStats, error) {
	start := time.Now()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var bytesShuffled, netMessages atomic.Int64
	tr := topo.Transport
	chanCap := topo.chanCap()

	// Validate and build edges, indexed by (consumer op, input port).
	// Edge indexes are assigned in DAG construction order, so every
	// process compiling the same job derives identical StreamIDs.
	edges := make(map[*OpNode][]*edge)
	var forwarders []*forwarder
	nextEdge := 0
	nLocalStreams, nRemoteStreams := 0, 0
	for _, n := range job.nodes {
		if n.Parts < 1 {
			return nil, fmt.Errorf("hyracks: op %s has %d partitions", n.Name, n.Parts)
		}
		for _, in := range n.Inputs {
			if in.FromPort >= in.From.OutPorts {
				return nil, fmt.Errorf("hyracks: op %s reads missing port %d of %s", n.Name, in.FromPort, in.From.Name)
			}
			spec := in.Conn
			switch spec.Type {
			case OneToOne:
				if in.From.Parts != n.Parts {
					return nil, fmt.Errorf("hyracks: OneToOne between %s(%d) and %s(%d)", in.From.Name, in.From.Parts, n.Name, n.Parts)
				}
			case GatherOne, MergeOne:
				if n.Parts != 1 {
					return nil, fmt.Errorf("hyracks: %v into %s with %d parts", spec.Type, n.Name, n.Parts)
				}
			}
			e := &edge{idx: nextEdge, spec: spec, prodParts: in.From.Parts, consParts: n.Parts}
			nextEdge++
			e.prodNodes = make([]int, in.From.Parts)
			for p := range e.prodNodes {
				e.prodNodes[p] = topo.NodeOf(p, in.From.Parts)
			}
			e.consNodes = make([]int, n.Parts)
			for c := 0; c < n.Parts; c++ {
				e.consNodes[c] = topo.NodeOf(c, n.Parts)
			}
			merging := spec.Type == HashMerge || spec.Type == MergeOne
			if merging {
				e.merged = make([][]chan frame, n.Parts)
			} else {
				e.plain = make([]*refCountedChan, n.Parts)
			}
			for c := 0; c < n.Parts; c++ {
				if topo.hostsNode(e.consNodes[c]) {
					// Local consumer: channels for every producer — local
					// producers write them directly, remote producers feed
					// them through a forwarder goroutine per stream.
					var rc *refCountedChan
					if merging {
						e.merged[c] = make([]chan frame, in.From.Parts)
						for p := range e.merged[c] {
							e.merged[c][p] = make(chan frame, chanCap)
						}
					} else {
						rc = &refCountedChan{ch: make(chan frame, chanCap), remaining: in.From.Parts}
						e.plain[c] = rc
					}
					for p := 0; p < in.From.Parts; p++ {
						if topo.hostsNode(e.prodNodes[p]) {
							nLocalStreams++
							continue
						}
						recv, err := tr.OpenRecv(StreamID{Job: topo.JobID, Edge: e.idx, Prod: p, Cons: c}, e.prodNodes[p])
						if err != nil {
							return nil, fmt.Errorf("hyracks: open recv stream for %s: %w", n.Name, err)
						}
						fw := &forwarder{recv: recv}
						if merging {
							fw.ch = e.merged[c][p]
						} else {
							fw.rc = rc
						}
						forwarders = append(forwarders, fw)
					}
					continue
				}
				// Remote consumer: local producers send through the
				// transport; no channels exist on this side.
				for p := 0; p < in.From.Parts; p++ {
					if !topo.hostsNode(e.prodNodes[p]) {
						continue
					}
					s, err := tr.OpenSend(StreamID{Job: topo.JobID, Edge: e.idx, Prod: p, Cons: c}, e.consNodes[c])
					if err != nil {
						return nil, fmt.Errorf("hyracks: open send stream for %s: %w", n.Name, err)
					}
					if e.senders == nil {
						e.senders = make([][]FrameSender, in.From.Parts)
					}
					if e.senders[p] == nil {
						e.senders[p] = make([]FrameSender, n.Parts)
					}
					e.senders[p][c] = s
					nRemoteStreams++
				}
			}
			edges[n] = append(edges[n], e)
		}
	}
	if nLocalStreams > 0 {
		inprocStreams.Add(int64(nLocalStreams))
	}
	if nRemoteStreams > 0 {
		remoteStreams.Add(int64(nRemoteStreams))
	}

	// Output edges per (producer, port). Each output port must feed
	// exactly one consumer edge.
	outEdges := make(map[*OpNode][]*edge)
	for _, n := range job.nodes {
		outEdges[n] = make([]*edge, n.OutPorts)
	}
	for _, n := range job.nodes {
		for i, in := range n.Inputs {
			slot := outEdges[in.From]
			if slot[in.FromPort] != nil {
				return nil, fmt.Errorf("hyracks: output port %d of %s feeds two consumers", in.FromPort, in.From.Name)
			}
			slot[in.FromPort] = edges[n][i]
		}
	}
	for _, n := range job.nodes {
		for p, e := range outEdges[n] {
			if e == nil {
				return nil, fmt.Errorf("hyracks: output port %d of %s is unconnected", p, n.Name)
			}
		}
	}

	var reg *stateRegistry
	if delay := hangDumpAfter(); delay > 0 {
		reg = &stateRegistry{}
		stop := armWatchdog(reg, delay)
		defer stop()
	}

	nInstances := 0
	for _, n := range job.nodes {
		nInstances += n.Parts
	}
	spans := make([]OpSpan, 0, nInstances)
	var statsMu sync.Mutex

	var firstErr error
	var errOnce sync.Once
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	var wg sync.WaitGroup
	for _, fw := range forwarders {
		fw := fw
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch := fw.ch
			if ch == nil {
				ch = fw.rc.ch
			}
		loop:
			for {
				ts, ok := fw.recv.Recv(runCtx)
				if !ok {
					break
				}
				select {
				case ch <- frame{tuples: ts}:
				case <-runCtx.Done():
					break loop
				}
			}
			if fw.ch != nil {
				close(fw.ch)
			} else {
				fw.rc.done()
			}
		}()
	}
	for _, n := range job.nodes {
		n := n
		for p := 0; p < n.Parts; p++ {
			p := p
			node := topo.NodeOf(p, n.Parts)
			if !topo.hostsNode(node) {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				var recvWait int64

				instState := reg.add(n.Name, p)
				ins := make([]*PortReader, len(n.Inputs))
				for i, e := range edges[n] {
					pr := &PortReader{ctx: runCtx, waitNs: &recvWait, state: instState, portIdx: i}
					if e.merged != nil {
						pr.chans = e.merged[p]
						pr.mergeBy = e.spec.SortCols
					} else {
						pr.ch = e.plain[p].ch
					}
					ins[i] = pr
				}
				outs := make([]*Emitter, n.OutPorts)
				for o, e := range outEdges[n] {
					emState := instState
					if n.OutPorts > 1 {
						// Replicate-style ops write ports concurrently;
						// give each emitter its own diagnostic slot.
						emState = reg.add(fmt.Sprintf("%s/out%d", n.Name, o), p)
					}
					em := &Emitter{
						state:         emState,
						ctx:           runCtx,
						spec:          e.spec,
						prodPart:      p,
						prodNode:      node,
						consNodes:     e.consNodes,
						frameSize:     topo.frameSize(),
						netLatency:    topo.NetFrameLatency,
						bufs:          make([][]Tuple, e.consParts),
						bytesShuffled: &bytesShuffled,
						netMessages:   &netMessages,
					}
					if e.senders != nil {
						em.senders = e.senders[p]
					}
					if e.merged != nil {
						em.merged = make([]chan frame, e.consParts)
						for c := 0; c < e.consParts; c++ {
							if e.merged[c] != nil {
								em.merged[c] = e.merged[c][p]
							}
						}
					} else {
						em.plain = e.plain
					}
					outs[o] = em
				}

				t0 := time.Now()
				op := n.Make()
				tc := &TaskCtx{Ctx: runCtx, Part: p, Node: node, Mem: topo.Mem, Spill: topo.Spill}
				err := op.Run(tc, ins, outs)
				// Drain unread input so upstream producers can finish,
				// then close outputs.
				for _, pr := range ins {
					pr.Drain()
				}
				var tuplesOut, sendWait, frames, crossBytes int64
				var remoteF, remoteB int64
				for _, em := range outs {
					em.Close()
					tuplesOut += em.tuplesOut
					sendWait += em.sendWaitNs
					frames += em.framesSent
					crossBytes += em.crossBytes
					remoteF += em.remoteFrames
					remoteB += em.remoteBytesN
					if err == nil && em.sendErr != nil {
						err = em.sendErr
					}
				}
				tuplesIn := tc.RowsRead
				for _, pr := range ins {
					tuplesIn += pr.tuplesIn
				}
				if frames > remoteF {
					inprocFrames.Add(frames - remoteF)
				}
				if crossBytes > remoteB {
					inprocBytes.Add(crossBytes - remoteB)
				}
				if remoteF > 0 {
					remoteFrames.Add(remoteF)
					remoteBytes.Add(remoteB)
				}
				instState.finish()
				wall := time.Since(t0).Nanoseconds()
				busy := wall - recvWait - sendWait
				if busy < 0 {
					busy = 0
				}
				statsMu.Lock()
				spans = append(spans, OpSpan{
					ID: n.ID, Op: n.Name, Part: p, Node: node,
					StartNs: t0.Sub(start).Nanoseconds(), WallNs: wall, BusyNs: busy,
					TuplesIn: tuplesIn, TuplesOut: tuplesOut,
					FramesSent: frames, BytesMoved: crossBytes,
					SpillRuns: tc.SpillRuns, SpilledBytes: tc.SpilledBytes,
				})
				statsMu.Unlock()
				if err != nil {
					fail(fmt.Errorf("%s[%d]: %w", n.Name, p, err))
				}
			}()
		}
	}
	wg.Wait()

	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	return &JobStats{
		WallNs:        time.Since(start).Nanoseconds(),
		BytesShuffled: bytesShuffled.Load(),
		NetMessages:   netMessages.Load(),
		Spans:         spans,
	}, firstErr
}
