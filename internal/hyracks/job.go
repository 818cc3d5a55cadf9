package hyracks

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"simdb/internal/adm"
	"simdb/internal/storage"
)

// ConnType enumerates the connector kinds of the paper's plans.
type ConnType int

// Connector kinds. OneToOne keeps tuples on their partition ("Local" in
// the paper's figures); Hash repartitions by key ("Hash repartition");
// HashMerge repartitions and merges sorted streams ("Hash repartition
// merge"); Broadcast replicates to every partition ("Broadcast to all
// nodes"); GatherOne funnels everything to a single instance (the
// coordinator); MergeOne is GatherOne preserving a sort order.
const (
	OneToOne ConnType = iota
	Hash
	HashMerge
	Broadcast
	GatherOne
	MergeOne
	// RoundRobin spreads tuples evenly regardless of content; it
	// bridges mismatched partition counts where no key applies.
	RoundRobin
)

// String names the connector like the paper's figures.
func (c ConnType) String() string {
	switch c {
	case OneToOne:
		return "Local"
	case Hash:
		return "HashRepartition"
	case HashMerge:
		return "HashRepartitionMerge"
	case Broadcast:
		return "Broadcast"
	case GatherOne:
		return "Gather"
	case MergeOne:
		return "Merge"
	case RoundRobin:
		return "RoundRobin"
	}
	return fmt.Sprintf("ConnType(%d)", int(c))
}

// ConnectorSpec configures the edge between a producer and a consumer.
type ConnectorSpec struct {
	Type     ConnType
	HashCols []int     // for Hash/HashMerge
	SortCols []SortCol // for HashMerge/MergeOne
	Seed     uint64    // hash seed (defaults to 0)
}

// Input connects one input port of an OpNode to a producer's output port.
type Input struct {
	From     *OpNode
	FromPort int
	Conn     ConnectorSpec
}

// Operator is the runtime behavior of one operator instance. Run must
// consume its input readers and emit to its output emitters, returning
// only when done; the executor closes the emitters afterwards. A nil
// error with unread input is allowed (e.g. Limit) — the executor drains
// abandoned ports.
type Operator interface {
	Run(ctx *TaskCtx, in []*PortReader, out []*Emitter) error
}

// OpFunc adapts a function to the Operator interface.
type OpFunc func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error

// Run implements Operator.
func (f OpFunc) Run(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
	return f(ctx, in, out)
}

// OpNode is one operator of a job DAG.
type OpNode struct {
	ID       int
	Name     string // for plans and stats, e.g. "HashJoin"
	Parts    int    // number of parallel instances
	OutPorts int    // defaults to 1
	Inputs   []Input
	// Make builds the per-instance operator. It is called once per
	// partition.
	Make func() Operator
}

// Job is an executable operator DAG.
type Job struct {
	nodes  []*OpNode
	nextID int
}

// Add registers an operator node and returns it.
func (j *Job) Add(name string, parts int, make func() Operator, inputs ...Input) *OpNode {
	n := &OpNode{ID: j.nextID, Name: name, Parts: parts, OutPorts: 1, Inputs: inputs, Make: make}
	j.nextID++
	j.nodes = append(j.nodes, n)
	return n
}

// Nodes returns the job's operator nodes in creation order.
func (j *Job) Nodes() []*OpNode { return j.nodes }

// TaskCtx is the per-instance execution context.
type TaskCtx struct {
	Ctx  context.Context
	Part int // instance index within the operator
	Node int // node hosting this instance

	// Mem is the query's memory accountant; nil means unlimited (the
	// legacy in-memory behavior). Blocking operators draw grants from it
	// and spill when a reservation fails.
	Mem *MemoryAccountant
	// Spill manages this query's temp run files; nil disables spilling
	// even under a budget (operators then Force past it).
	Spill *storage.RunFileManager

	// SpillRuns and SpilledBytes count this instance's spill activity.
	// They are owned by the instance goroutine and harvested by the
	// executor after Run returns.
	SpillRuns    int64
	SpilledBytes int64
	// RowsRead is set by a source that reads more rows than it emits (a
	// scan with a record filter): the executor reports it as the
	// instance's tuples in, so read versus emitted shows on the source's
	// line. Owned and harvested like the spill counters.
	RowsRead int64
}

// canSpill reports whether this instance may write spill runs.
func (ctx *TaskCtx) canSpill() bool { return ctx.Mem != nil && ctx.Spill != nil }

// Topology describes the simulated cluster layout for a job run.
type Topology struct {
	// Partitions is the default data parallelism (total partitions).
	Partitions int
	// PartsPerNode maps partition indexes to nodes: node = part / PartsPerNode.
	PartsPerNode int
	// NetFrameLatency is a test seam: when positive, every cross-node
	// frame send over a channel sleeps that long, which holds a query in
	// flight for tests of cancellation and streaming. Production code
	// leaves it zero; frames sent over a Transport never sleep.
	NetFrameLatency time.Duration
	// Mem, when non-nil, enforces a query-wide memory budget on blocking
	// operators (shared by all instances of all operators in the job).
	Mem *MemoryAccountant
	// Spill, when non-nil, provides the temp run-file store operators
	// spill to once Mem denies a reservation.
	Spill *storage.RunFileManager
	// FrameSize overrides the tuple batch size per connector send;
	// 0 takes DefaultFrameSize.
	FrameSize int
	// ChanCap overrides the per-channel frame buffer — the backpressure
	// bound, mirrored by the TCP transport as its per-stream credit
	// window; 0 takes DefaultChanCap.
	ChanCap int
	// Transport, when non-nil, carries frames between nodes hosted by
	// different processes: Run executes only the instances placed on
	// Transport.LocalNode() and bridges cross-process edges through
	// sender/receiver streams. nil (the default) keeps every edge on
	// in-process channels, byte-identical to the pre-transport runtime.
	Transport Transport
	// JobID namespaces this job's transport streams. Every process
	// running the same job must pass the same value; unused without a
	// Transport.
	JobID uint64
}

// frameSize returns the effective connector batch size.
func (t Topology) frameSize() int {
	if t.FrameSize > 0 {
		return t.FrameSize
	}
	return DefaultFrameSize
}

// chanCap returns the effective per-channel frame buffer.
func (t Topology) chanCap() int {
	if t.ChanCap > 0 {
		return t.ChanCap
	}
	return DefaultChanCap
}

// NodeOf returns the node hosting partition p of an operator with n
// instances. Single-instance operators (coordinator-side) live on node 0.
func (t Topology) NodeOf(p, n int) int {
	if n <= 1 {
		return 0
	}
	ppn := t.PartsPerNode
	if ppn <= 0 {
		ppn = 1
	}
	return p / ppn
}

// Emitter is one output port of one operator instance. Emit routes a
// tuple to the consumer instance(s) selected by the connector, counting
// bytes for cross-node hops.
type Emitter struct {
	ctx           context.Context
	spec          ConnectorSpec
	prodPart      int
	prodNode      int
	consNodes     []int // node of each consumer instance
	plain         []*refCountedChan
	merged        []chan frame  // merged[consumer]: this producer's private channel
	senders       []FrameSender // senders[consumer]: transport stream to a remote node
	bufs          [][]Tuple
	state         *instanceState
	closed        bool
	frameSize     int
	netLatency    time.Duration
	sendErr       error // first transport-send failure; surfaced by the executor
	sendWaitNs    int64 // owned by this emitter; summed by the executor
	bytesShuffled *atomic.Int64
	netMessages   *atomic.Int64
	tuplesOut     int64
	framesSent    int64 // frames flushed by this instance (local + remote)
	crossBytes    int64 // cross-node bytes this instance moved
	remoteFrames  int64 // frames that left the process over the transport
	remoteBytesN  int64 // actual wire bytes of those frames
}

// Emit routes one tuple. The tuple must not be modified afterwards.
func (e *Emitter) Emit(t Tuple) {
	e.tuplesOut++
	switch e.spec.Type {
	case OneToOne:
		e.buffer(e.prodPart, t)
	case GatherOne, MergeOne:
		e.buffer(0, t)
	case Broadcast:
		for d := range e.bufs {
			e.buffer(d, t)
		}
	case Hash, HashMerge:
		h := uint64(e.spec.Seed)
		for _, c := range e.spec.HashCols {
			h = adm.HashSeed(h+0x9E37, t[c])
		}
		e.buffer(int(h%uint64(len(e.bufs))), t)
	case RoundRobin:
		e.buffer(int((e.tuplesOut-1)%int64(len(e.bufs))), t)
	}
}

func (e *Emitter) buffer(dest int, t Tuple) {
	e.bufs[dest] = append(e.bufs[dest], t)
	if len(e.bufs[dest]) >= e.frameSize {
		e.flush(dest)
	}
}

func (e *Emitter) flush(dest int) {
	buf := e.bufs[dest]
	if len(buf) == 0 {
		return
	}
	e.bufs[dest] = nil
	e.framesSent++
	if e.senders != nil && e.senders[dest] != nil {
		// Remote consumer: ship the frame over the transport, charging
		// the actual wire bytes (framing header + encoded payload) —
		// not the EncodedSize estimate — and skipping the simulated
		// latency (the wire is real here). Send blocks on flow-control
		// credit, mirroring the channel path's backpressure.
		t0 := time.Now()
		n, err := e.senders[dest].Send(e.ctx, buf)
		e.sendWaitNs += time.Since(t0).Nanoseconds()
		if err != nil {
			if e.sendErr == nil {
				e.sendErr = err
			}
			return
		}
		e.bytesShuffled.Add(int64(n))
		e.netMessages.Add(1)
		e.crossBytes += int64(n)
		e.remoteFrames++
		e.remoteBytesN += int64(n)
		return
	}
	if e.prodNode != e.consNodes[dest] {
		n := 0
		for _, t := range buf {
			n += t.EncodedSize()
		}
		e.bytesShuffled.Add(int64(n))
		e.netMessages.Add(1)
		e.crossBytes += int64(n)
		if e.netLatency > 0 {
			// Simulated wire time; counted as send wait, not busy time.
			t0 := time.Now()
			time.Sleep(e.netLatency)
			e.sendWaitNs += time.Since(t0).Nanoseconds()
		}
	}
	var ch chan frame
	if e.merged != nil {
		ch = e.merged[dest]
	} else {
		ch = e.plain[dest].ch
	}
	e.state.set("send", dest, ch)
	e.sendWaitNs += sendCtx(e.ctx, ch, frame{tuples: buf})
	e.state.clear()
}

// Close flushes all buffers and releases the producer's hold on each
// consumer channel. It is idempotent: the executor closes every output
// after an operator returns, but a multi-output operator (Replicate)
// must close each port itself the moment that port's stream ends —
// otherwise one slow consumer would hold every other port's
// end-of-stream hostage and plans whose ports feed interdependent
// pipelines could deadlock.
func (e *Emitter) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for d := range e.bufs {
		e.flush(d)
	}
	for _, s := range e.senders {
		if s != nil {
			// End-of-stream to a remote consumer; its forwarder releases
			// the consumer-side channel.
			s.Close()
		}
	}
	if e.merged != nil {
		for _, ch := range e.merged {
			if ch != nil {
				close(ch)
			}
		}
		return
	}
	for _, rc := range e.plain {
		if rc != nil {
			rc.done()
		}
	}
}
