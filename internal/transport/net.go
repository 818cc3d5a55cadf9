package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"simdb/internal/hyracks"
)

// peerWaitTimeout bounds how long stream opens and control sends wait
// for a peer connection to appear. The cluster builds the full mesh
// before dispatching work, so in practice the peer is already there.
const peerWaitTimeout = 30 * time.Second

// endedJobsCap bounds the tombstone set of recently ended jobs whose
// late frames are dropped silently.
const endedJobsCap = 256

// Net is one process's endpoint in the cluster mesh: it listens for
// inbound peers, dials outbound ones, demultiplexes frame streams, and
// carries the cluster's control messages. It implements
// hyracks.Transport for the node it hosts.
type Net struct {
	node   int
	window int // per-stream flow-control credit window

	mu     sync.Mutex
	cond   *sync.Cond
	peers  map[int]*peer
	addr   string
	ln     net.Listener
	closed bool

	smu   sync.Mutex
	sends map[hyracks.StreamID]*sendStream

	rmu        sync.Mutex
	inboxes    map[hyracks.StreamID]*inbox
	ended      map[uint64]bool
	endedOrder []uint64

	// onControl receives the cluster's control messages, one goroutine
	// per peer, in per-peer arrival order. Set before Listen/Dial.
	onControl func(from int, kind byte, body []byte)
	// onPeerDown fires once when a peer's connection dies or closes.
	onPeerDown func(node int, err error)

	wg sync.WaitGroup
}

// NewNet creates an endpoint for the given node id. window is the
// per-stream credit window (frames in flight per stream); it should
// mirror the runtime's channel capacity so TCP streams and in-process
// channels exert the same backpressure.
func NewNet(node, window int) *Net {
	if window <= 0 {
		window = hyracks.DefaultChanCap
	}
	n := &Net{
		node:    node,
		window:  window,
		peers:   map[int]*peer{},
		sends:   map[hyracks.StreamID]*sendStream{},
		inboxes: map[hyracks.StreamID]*inbox{},
		ended:   map[uint64]bool{},
	}
	n.cond = sync.NewCond(&n.mu)
	return n
}

// OnControl sets the control-message handler. Must be called before
// any connection exists.
func (n *Net) OnControl(fn func(from int, kind byte, body []byte)) { n.onControl = fn }

// OnPeerDown sets the peer-failure handler.
func (n *Net) OnPeerDown(fn func(node int, err error)) { n.onPeerDown = fn }

// Kind implements hyracks.Transport.
func (n *Net) Kind() string { return "tcp" }

// LocalNode implements hyracks.Transport.
func (n *Net) LocalNode() int { return n.node }

// Addr returns the bound listen address ("" before Listen).
func (n *Net) Addr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.addr
}

// Listen binds a TCP listener and starts accepting peers. Returns the
// bound address (resolving ":0" to the real port).
func (n *Net) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	n.mu.Lock()
	n.ln = ln
	n.addr = ln.Addr().String()
	n.mu.Unlock()
	n.wg.Add(1)
	go n.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (n *Net) acceptLoop(ln net.Listener) {
	defer n.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handleInbound(c)
		}()
	}
}

// handleInbound performs the accept-side handshake: the first message
// must be a Hello naming the remote node and its listen address.
func (n *Net) handleInbound(c net.Conn) {
	br := bufio.NewReaderSize(c, 64<<10)
	c.SetReadDeadline(time.Now().Add(peerWaitTimeout))
	payload, err := ReadMessage(br)
	if err != nil {
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})
	node, listenAddr, err := decodeHello(payload)
	if err != nil {
		c.Close()
		return
	}
	n.runPeer(node, listenAddr, c, br)
}

// Dial connects to a peer's listen address and identifies this node.
func (n *Net) Dial(node int, addr string) error {
	c, err := net.DialTimeout("tcp", addr, peerWaitTimeout)
	if err != nil {
		return fmt.Errorf("transport: dial node %d at %s: %w", node, addr, err)
	}
	if _, err := WriteMessage(c, encodeHello(n.node, n.Addr())); err != nil {
		c.Close()
		return fmt.Errorf("transport: hello to node %d: %w", node, err)
	}
	br := bufio.NewReaderSize(c, 64<<10)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.runPeer(node, addr, c, br)
	}()
	return nil
}

// runPeer registers the connection and serves it until it dies.
func (n *Net) runPeer(node int, listenAddr string, c net.Conn, br *bufio.Reader) {
	p := &peer{node: node, listenAddr: listenAddr, conn: c, down: make(chan struct{})}
	p.ctrlCond = sync.NewCond(&p.ctrlMu)
	n.mu.Lock()
	if n.closed || n.peers[node] != nil {
		n.mu.Unlock()
		c.Close()
		return
	}
	n.peers[node] = p
	n.cond.Broadcast()
	n.mu.Unlock()

	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.ctrlLoop(p)
	}()
	err := n.readLoop(p, br)
	n.peerDown(p, err)
}

// readLoop demultiplexes one connection: frames, EOS marks, and
// credits are handled inline (never blocking — inbox capacity equals
// the sender's credit window); control messages queue to ctrlLoop.
func (n *Net) readLoop(p *peer, br *bufio.Reader) error {
	for {
		payload, err := ReadMessage(br)
		if err != nil {
			return err
		}
		if len(payload) == 0 {
			return fmt.Errorf("transport: empty message")
		}
		switch payload[0] {
		case MsgFrame:
			id, tuples, err := DecodeFramePayload(payload)
			if err != nil {
				return err
			}
			if !n.deliver(p, id, tuples) {
				return fmt.Errorf("transport: stream %v overflowed its credit window", id)
			}
		case MsgEOS:
			id, rest, err := decodeStreamID(payload[1:])
			if err != nil || len(rest) != 0 {
				return fmt.Errorf("transport: bad EOS message")
			}
			n.closeInboxFor(p, id)
		case MsgCredit:
			id, rest, err := decodeStreamID(payload[1:])
			if err != nil {
				return fmt.Errorf("transport: bad credit message")
			}
			k, nn := binary.Uvarint(rest)
			if nn <= 0 {
				return fmt.Errorf("transport: bad credit count")
			}
			n.addCredits(id, int(k))
		case MsgControl:
			if len(payload) < 2 {
				return fmt.Errorf("transport: short control message")
			}
			p.enqueueCtrl(payload[1], append([]byte(nil), payload[2:]...))
		case MsgHello:
			// Duplicate hello after handshake; ignore.
		default:
			return fmt.Errorf("transport: unknown message type %d", payload[0])
		}
	}
}

// ctrlLoop delivers a peer's control messages to the handler in
// arrival order, off the read loop so a slow handler never stalls
// frame demultiplexing.
func (n *Net) ctrlLoop(p *peer) {
	for {
		p.ctrlMu.Lock()
		for len(p.ctrlQ) == 0 && !p.ctrlDone {
			p.ctrlCond.Wait()
		}
		if len(p.ctrlQ) == 0 && p.ctrlDone {
			p.ctrlMu.Unlock()
			return
		}
		msg := p.ctrlQ[0]
		p.ctrlQ = p.ctrlQ[1:]
		p.ctrlMu.Unlock()
		if n.onControl != nil {
			n.onControl(p.node, msg.kind, msg.body)
		}
	}
}

// deliver routes a frame into its stream inbox, creating the inbox if
// the receiver has not opened the stream yet (the sender's credit
// window bounds how many frames can arrive early). Returns false on
// credit-window overflow — a protocol violation.
func (n *Net) deliver(p *peer, id hyracks.StreamID, tuples []hyracks.Tuple) bool {
	n.rmu.Lock()
	if n.ended[id.Job] {
		n.rmu.Unlock()
		return true // late frame after EndJob: drop silently
	}
	ib := n.inboxes[id]
	if ib == nil {
		ib = newInbox(p.node, n.window)
		n.inboxes[id] = ib
	}
	n.rmu.Unlock()
	return ib.deliver(tuples)
}

// closeInboxFor marks end-of-stream, creating the inbox first if the
// stream was empty and unopened.
func (n *Net) closeInboxFor(p *peer, id hyracks.StreamID) {
	n.rmu.Lock()
	ib := n.inboxes[id]
	if ib == nil && !n.ended[id.Job] {
		ib = newInbox(p.node, n.window)
		n.inboxes[id] = ib
	}
	n.rmu.Unlock()
	if ib != nil {
		ib.close()
	}
}

func (n *Net) removeInbox(id hyracks.StreamID) {
	n.rmu.Lock()
	delete(n.inboxes, id)
	n.rmu.Unlock()
}

func (n *Net) addCredits(id hyracks.StreamID, k int) {
	n.smu.Lock()
	s := n.sends[id]
	n.smu.Unlock()
	if s == nil {
		return // stream already closed
	}
	for i := 0; i < k; i++ {
		select {
		case s.credits <- struct{}{}:
		default:
			return // overflow beyond window: ignore
		}
	}
}

// peerDown tears down a dead peer: every inbox fed by it sees
// end-of-stream, every send stream toward it fails, and waiters wake.
func (n *Net) peerDown(p *peer, err error) {
	first := false
	p.once.Do(func() { first = true })
	if !first {
		return
	}
	p.setErr(err)
	close(p.down)
	p.conn.Close()
	p.ctrlMu.Lock()
	p.ctrlDone = true
	p.ctrlCond.Broadcast()
	p.ctrlMu.Unlock()

	n.mu.Lock()
	if n.peers[p.node] == p {
		delete(n.peers, p.node)
	}
	n.cond.Broadcast()
	n.mu.Unlock()

	n.rmu.Lock()
	var dead []*inbox
	for _, ib := range n.inboxes {
		if ib.from == p.node {
			dead = append(dead, ib)
		}
	}
	n.rmu.Unlock()
	for _, ib := range dead {
		ib.close()
	}
	if n.onPeerDown != nil {
		n.onPeerDown(p.node, err)
	}
}

// peerWait returns the peer for node, waiting up to peerWaitTimeout
// for it to connect.
func (n *Net) peerWait(node int) (*peer, error) {
	deadline := time.Now().Add(peerWaitTimeout)
	timer := time.AfterFunc(peerWaitTimeout, func() {
		n.mu.Lock()
		n.cond.Broadcast()
		n.mu.Unlock()
	})
	defer timer.Stop()
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		if p := n.peers[node]; p != nil {
			return p, nil
		}
		if n.closed {
			return nil, fmt.Errorf("transport: endpoint closed")
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("transport: no connection to node %d", node)
		}
		n.cond.Wait()
	}
}

// PeerListenAddr returns the listen address a connected peer advertised
// in its hello ("" if unknown or not connected).
func (n *Net) PeerListenAddr(node int) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p := n.peers[node]; p != nil {
		return p.listenAddr
	}
	return ""
}

// WaitPeers blocks until every listed node is connected (or ctx ends).
func (n *Net) WaitPeers(ctx context.Context, nodes []int) error {
	deadline := time.Now().Add(peerWaitTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for {
		n.mu.Lock()
		missing := -1
		for _, id := range nodes {
			if n.peers[id] == nil {
				missing = id
				break
			}
		}
		closed := n.closed
		n.mu.Unlock()
		if missing < 0 {
			return nil
		}
		if closed {
			return fmt.Errorf("transport: endpoint closed")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: timed out waiting for node %d", missing)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// SendControl ships one control message to a peer.
func (n *Net) SendControl(node int, kind byte, body []byte) error {
	p, err := n.peerWait(node)
	if err != nil {
		return err
	}
	_, err = p.write(encodeControl(kind, body))
	return err
}

// OpenSend implements hyracks.Transport.
func (n *Net) OpenSend(id hyracks.StreamID, toNode int) (hyracks.FrameSender, error) {
	p, err := n.peerWait(toNode)
	if err != nil {
		return nil, err
	}
	s := &sendStream{id: id, p: p, n: n, credits: make(chan struct{}, n.window)}
	for i := 0; i < n.window; i++ {
		s.credits <- struct{}{}
	}
	n.smu.Lock()
	n.sends[id] = s
	n.smu.Unlock()
	return s, nil
}

// OpenRecv implements hyracks.Transport.
func (n *Net) OpenRecv(id hyracks.StreamID, fromNode int) (hyracks.FrameReceiver, error) {
	p, err := n.peerWait(fromNode)
	if err != nil {
		return nil, err
	}
	n.rmu.Lock()
	ib := n.inboxes[id]
	if ib == nil {
		ib = newInbox(fromNode, n.window)
		n.inboxes[id] = ib
	}
	n.rmu.Unlock()
	return &recvStream{id: id, n: n, p: p, ib: ib}, nil
}

// EndJob drops all stream state of a finished job and tombstones its
// id so frames still in flight are discarded instead of accumulating
// as phantom inboxes.
func (n *Net) EndJob(job uint64) {
	n.rmu.Lock()
	if !n.ended[job] {
		n.ended[job] = true
		n.endedOrder = append(n.endedOrder, job)
		if len(n.endedOrder) > endedJobsCap {
			delete(n.ended, n.endedOrder[0])
			n.endedOrder = n.endedOrder[1:]
		}
	}
	var dead []*inbox
	for id, ib := range n.inboxes {
		if id.Job == job {
			dead = append(dead, ib)
			delete(n.inboxes, id)
		}
	}
	n.rmu.Unlock()
	for _, ib := range dead {
		ib.close()
	}
	n.smu.Lock()
	for id := range n.sends {
		if id.Job == job {
			delete(n.sends, id)
		}
	}
	n.smu.Unlock()
}

// Close shuts the endpoint down: stops accepting, closes every peer
// connection, and waits for the reader goroutines to drain. Ports are
// released by the time Close returns.
func (n *Net) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	ln := n.ln
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.cond.Broadcast()
	n.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, p := range peers {
		p.conn.Close()
	}
	n.wg.Wait()
	return nil
}

// peer is one live connection in the mesh.
type peer struct {
	node       int
	listenAddr string
	conn       net.Conn
	wmu        sync.Mutex
	once       sync.Once
	down       chan struct{}

	errMu sync.Mutex
	err   error

	ctrlMu   sync.Mutex
	ctrlCond *sync.Cond
	ctrlQ    []ctrlMsg
	ctrlDone bool
}

type ctrlMsg struct {
	kind byte
	body []byte
}

func (p *peer) setErr(err error) {
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
}

func (p *peer) enqueueCtrl(kind byte, body []byte) {
	p.ctrlMu.Lock()
	p.ctrlQ = append(p.ctrlQ, ctrlMsg{kind, body})
	p.ctrlCond.Signal()
	p.ctrlMu.Unlock()
}

// write frames one message onto the connection. A per-peer mutex keeps
// messages atomic; TCP backpressure propagates to the caller.
func (p *peer) write(payload []byte) (int, error) {
	select {
	case <-p.down:
		return 0, fmt.Errorf("transport: connection to node %d is down", p.node)
	default:
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return WriteMessage(p.conn, payload)
}

// inbox buffers one inbound stream's frames; capacity equals the
// sender's credit window, so the demultiplexer never blocks on it.
type inbox struct {
	from   int
	mu     sync.Mutex
	ch     chan []hyracks.Tuple
	closed bool
}

func newInbox(from, window int) *inbox {
	return &inbox{from: from, ch: make(chan []hyracks.Tuple, window)}
}

func (ib *inbox) deliver(tuples []hyracks.Tuple) bool {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return true // stream torn down; drop
	}
	select {
	case ib.ch <- tuples:
		return true
	default:
		return false
	}
}

func (ib *inbox) close() {
	ib.mu.Lock()
	if !ib.closed {
		ib.closed = true
		close(ib.ch)
	}
	ib.mu.Unlock()
}

// sendStream is the producer half of one stream. Owned by one emitter
// goroutine; credits arrive from the demultiplexer.
type sendStream struct {
	id      hyracks.StreamID
	p       *peer
	n       *Net
	credits chan struct{}
	closed  bool
}

// Send implements hyracks.FrameSender.
func (s *sendStream) Send(ctx context.Context, tuples []hyracks.Tuple) (int, error) {
	select {
	case <-s.credits:
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-s.p.down:
		return 0, fmt.Errorf("transport: connection to node %d is down", s.p.node)
	}
	return s.p.write(EncodeFramePayload(s.id, tuples))
}

// Close implements hyracks.FrameSender: it marks end-of-stream.
func (s *sendStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.n.smu.Lock()
	delete(s.n.sends, s.id)
	s.n.smu.Unlock()
	_, err := s.p.write(encodeEOS(s.id))
	return err
}

// recvStream is the consumer half of one stream; each frame taken out
// of the inbox returns one credit to the producer.
type recvStream struct {
	id hyracks.StreamID
	n  *Net
	p  *peer
	ib *inbox
}

// Recv implements hyracks.FrameReceiver.
func (r *recvStream) Recv(ctx context.Context) ([]hyracks.Tuple, bool) {
	select {
	case tuples, ok := <-r.ib.ch:
		if !ok {
			r.n.removeInbox(r.id)
			return nil, false
		}
		// Best-effort credit return; if the peer died the inbox will
		// close and the stream ends on the next call.
		r.p.write(encodeCredit(r.id, 1))
		return tuples, true
	case <-ctx.Done():
		return nil, false
	}
}
