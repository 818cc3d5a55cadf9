package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	osexec "os/exec"
	"sync"
	"sync/atomic"
	"time"

	"simdb/internal/hyracks"
	"simdb/internal/optimizer"
	"simdb/internal/storage"
	"simdb/internal/transport"
)

// Control-message kinds of the coordinator↔worker protocol. Frames and
// their flow control live in internal/transport; everything here rides
// the transport's ordered per-peer control channel with JSON bodies.
const (
	ckCatalog     byte = iota + 1 // CatalogSnapshot, applied synchronously, no reply
	ckPeers                       // peersReq: dial lower-numbered peers, then reply
	ckInsert                      // insertReq → reply
	ckFlush                       // flushReq → reply
	ckBuildIndex                  // buildIndexReq → reply
	ckIndexStats                  // indexStatsReq → reply (storage.Stats payload)
	ckDropDataset                 // dropReq → reply
	ckJob                         // jobReq → reply (jobReply payload)
	ckCancel                      // cancelReq, no reply
	ckShutdown                    // no body, no reply; worker exits
	ckReply                       // ctrlReply, routed to the pending RPC
)

// ctrlReply answers any request kind. Payload carries the kind-specific
// result (jobReply, storage.Stats, ...) when Err is empty.
type ctrlReply struct {
	ReqID   uint64          `json:"req_id"`
	Err     string          `json:"err,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

type peersReq struct {
	ReqID uint64         `json:"req_id"`
	Addrs map[int]string `json:"addrs"`
}

type insertReq struct {
	ReqID     uint64   `json:"req_id"`
	Dataverse string   `json:"dv"`
	Dataset   string   `json:"ds"`
	Recs      [][]byte `json:"recs"` // adm-encoded records, PKs already assigned
}

type flushReq struct {
	ReqID uint64 `json:"req_id"`
}

type buildIndexReq struct {
	ReqID     uint64              `json:"req_id"`
	Dataverse string              `json:"dv"`
	Dataset   string              `json:"ds"`
	Index     optimizer.IndexMeta `json:"index"`
}

type indexStatsReq struct {
	ReqID     uint64 `json:"req_id"`
	Dataverse string `json:"dv"`
	Dataset   string `json:"ds"`
	Index     string `json:"index"` // "" = primary
}

type dropReq struct {
	ReqID     uint64 `json:"req_id"`
	Dataverse string `json:"dv"`
	Dataset   string `json:"ds"`
}

// jobReq ships one query job: the original request text plus the
// compile-relevant session snapshot, whose Opts.MemoryBudgetBytes is also
// the budget the worker's half runs under. The worker re-parses the text,
// ignores its statements (their effects are in State and the synced
// catalog), and compiles the body to the identical plan and job DAG —
// SPMD-style, so no serialized plan format is needed. Epoch pins the
// catalog version both sides compiled under; a mismatch fails the job
// cleanly instead of hanging on mismatched stream IDs.
type jobReq struct {
	ReqID uint64       `json:"req_id"`
	JobID uint64       `json:"job_id"`
	Src   string       `json:"src"`
	State sessionState `json:"state"`
	Epoch uint64       `json:"epoch"`
}

type cancelReq struct {
	JobID uint64 `json:"job_id"`
}

// counterVals is the wire form of QueryCounters.
type counterVals struct {
	IndexSearches   int64 `json:"index_searches"`
	CandidatesTotal int64 `json:"candidates"`
	PrunedTotal     int64 `json:"pruned"`
	PostingsRead    int64 `json:"postings_read"`
	VerifiedTotal   int64 `json:"verified"`
	OccurrenceT     int64 `json:"occurrence_t"`
	ScanPassed      int64 `json:"scan_passed"`
}

func loadCounters(c *QueryCounters) counterVals {
	return counterVals{
		IndexSearches:   c.IndexSearches.Load(),
		CandidatesTotal: c.CandidatesTotal.Load(),
		PrunedTotal:     c.PrunedTotal.Load(),
		PostingsRead:    c.PostingsRead.Load(),
		VerifiedTotal:   c.VerifiedTotal.Load(),
		OccurrenceT:     c.OccurrenceT.Load(),
		ScanPassed:      c.ScanPassed.Load(),
	}
}

// mergeCounters folds a worker's counter values into the coordinator's
// live counters: sums, except OccurrenceT which is a max.
func mergeCounters(dst *QueryCounters, v counterVals) {
	dst.IndexSearches.Add(v.IndexSearches)
	dst.CandidatesTotal.Add(v.CandidatesTotal)
	dst.PrunedTotal.Add(v.PrunedTotal)
	dst.PostingsRead.Add(v.PostingsRead)
	dst.VerifiedTotal.Add(v.VerifiedTotal)
	dst.noteOccurrenceT(v.OccurrenceT)
	dst.ScanPassed.Add(v.ScanPassed)
}

// jobReply is a worker's per-job result: the instance records and
// traffic totals of its half of the job, and its similarity counters.
type jobReply struct {
	Stats    *hyracks.JobStats `json:"stats"`
	Counters counterVals       `json:"counters"`
}

// workerBootstrap is the JSON line a worker process reads from stdin.
type workerBootstrap struct {
	Node      int    `json:"node"`
	CoordAddr string `json:"coord_addr"`
	Config    Config `json:"config"`
}

// remoteCoordinator is the coordinator's side of tcp mode: it owns the
// worker processes, the control-RPC plumbing, and catalog replication.
type remoteCoordinator struct {
	c   *Cluster
	net *transport.Net

	nextReq atomic.Uint64
	mu      sync.Mutex
	pending map[uint64]*pendingCall

	// epochMu serializes catalog pushes: held across the staleness check
	// AND the send, so a worker's ordered control channel never sees an
	// older snapshot after a newer one, and any request sent after
	// syncCatalog returns is ordered after the snapshot it depends on.
	epochMu sync.Mutex
	synced  []uint64 // synced[k]: last catalog epoch pushed to worker k

	procs []*workerProc
}

type pendingCall struct {
	node int
	ch   chan ctrlReply
}

type workerProc struct {
	node  int
	cmd   *osexec.Cmd
	stdin *os.File
}

const (
	// workerListenAddr is where the coordinator's transport listens in
	// tcp mode; workers bind an ephemeral loopback port the same way.
	workerListenAddr = "127.0.0.1:0"
	// workerStartTimeout bounds how long New waits for the worker mesh
	// to form.
	workerStartTimeout = 30 * time.Second
)

// startRemote launches the worker processes and forms the full mesh.
// Called from New after node 0's local storage is up.
func startRemote(c *Cluster) (*remoteCoordinator, error) {
	cfg := c.cfg
	r := &remoteCoordinator{
		c:       c,
		net:     transport.NewNet(0, hyracks.DefaultChanCap),
		pending: map[uint64]*pendingCall{},
		synced:  make([]uint64, cfg.NumNodes),
	}
	r.net.OnControl(r.onControl)
	r.net.OnPeerDown(r.onPeerDown)
	addr, err := r.net.Listen(workerListenAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: coordinator listen: %w", err)
	}

	// A worker is this executable run again: MaybeRunWorker, at the top
	// of its main, sees SIMDB_WORKER and serves instead.
	self, err := os.Executable()
	if err != nil {
		r.net.Close()
		return nil, fmt.Errorf("cluster: resolve worker binary: %w", err)
	}
	bootCfg := cfg
	bootCfg.FS = nil // never serialized; validated nil for tcp mode anyway
	for k := 1; k < cfg.NumNodes; k++ {
		boot, err := json.Marshal(workerBootstrap{Node: k, CoordAddr: addr, Config: bootCfg})
		if err != nil {
			r.teardown()
			return nil, err
		}
		cmd := osexec.Command(self)
		cmd.Env = append(os.Environ(), workerEnv+"=1")
		// Workers share the coordinator's stderr so their logs (and crash
		// output) surface; stdout stays quiet.
		cmd.Stderr = os.Stderr
		pr, pw, err := os.Pipe()
		if err != nil {
			r.teardown()
			return nil, err
		}
		cmd.Stdin = pr
		if err := cmd.Start(); err != nil {
			pr.Close()
			pw.Close()
			r.teardown()
			return nil, fmt.Errorf("cluster: start worker %d: %w", k, err)
		}
		pr.Close()
		// The bootstrap line is written once; the pipe then stays open as
		// the liveness signal — workers exit when it closes.
		if _, err := pw.Write(append(boot, '\n')); err != nil {
			pw.Close()
			cmd.Process.Kill()
			cmd.Wait()
			r.teardown()
			return nil, fmt.Errorf("cluster: bootstrap worker %d: %w", k, err)
		}
		r.procs = append(r.procs, &workerProc{node: k, cmd: cmd, stdin: pw})
	}

	// Mesh formation: every worker dials the coordinator; once all have
	// arrived, each learns the full address map and dials its
	// lower-numbered peers, so exactly one connection exists per pair.
	ctx, cancel := context.WithTimeout(context.Background(), workerStartTimeout)
	defer cancel()
	workers := make([]int, 0, cfg.NumNodes-1)
	for k := 1; k < cfg.NumNodes; k++ {
		workers = append(workers, k)
	}
	if err := r.net.WaitPeers(ctx, workers); err != nil {
		r.teardown()
		return nil, fmt.Errorf("cluster: worker mesh: %w", err)
	}
	addrs := map[int]string{0: addr}
	for _, k := range workers {
		addrs[k] = r.net.PeerListenAddr(k)
	}
	for _, k := range workers {
		if _, err := r.call(ctx, k, ckPeers, func(id uint64) any {
			return peersReq{ReqID: id, Addrs: addrs}
		}); err != nil {
			r.teardown()
			return nil, fmt.Errorf("cluster: worker %d peering: %w", k, err)
		}
	}
	return r, nil
}

// onControl routes replies to their pending RPCs. It runs on the
// transport's per-peer control goroutine, so it must never block.
func (r *remoteCoordinator) onControl(from int, kind byte, body []byte) {
	if kind != ckReply {
		return
	}
	var rep ctrlReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return
	}
	r.mu.Lock()
	pc := r.pending[rep.ReqID]
	delete(r.pending, rep.ReqID)
	r.mu.Unlock()
	if pc != nil {
		pc.ch <- rep
	}
}

// onPeerDown fails every RPC pending against a dead worker, so callers
// blocked in call() unwind instead of waiting forever.
func (r *remoteCoordinator) onPeerDown(node int, err error) {
	r.mu.Lock()
	for id, pc := range r.pending {
		if pc.node == node {
			delete(r.pending, id)
			pc.ch <- ctrlReply{ReqID: id, Err: fmt.Sprintf("worker %d down: %v", node, err)}
		}
	}
	r.mu.Unlock()
}

// call performs one control RPC: build receives the allocated request
// ID and returns the JSON body. The reply's Payload comes back raw.
func (r *remoteCoordinator) call(ctx context.Context, node int, kind byte, build func(id uint64) any) (json.RawMessage, error) {
	id := r.nextReq.Add(1)
	pc := &pendingCall{node: node, ch: make(chan ctrlReply, 1)}
	r.mu.Lock()
	r.pending[id] = pc
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.pending, id)
		r.mu.Unlock()
	}()
	body, err := json.Marshal(build(id))
	if err != nil {
		return nil, err
	}
	if err := r.net.SendControl(node, kind, body); err != nil {
		return nil, fmt.Errorf("cluster: rpc to worker %d: %w", node, err)
	}
	select {
	case rep := <-pc.ch:
		if rep.Err != "" {
			return nil, fmt.Errorf("cluster: worker %d: %s", node, rep.Err)
		}
		return rep.Payload, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// syncCatalog pushes the catalog to a worker if its synced epoch is
// stale. No reply is needed: the per-peer control channel is ordered
// and the worker applies snapshots synchronously, so any request sent
// after this returns observes the pushed state.
func (r *remoteCoordinator) syncCatalog(node int) error {
	r.epochMu.Lock()
	defer r.epochMu.Unlock()
	if r.synced[node] >= r.c.Catalog.Epoch() {
		return nil
	}
	snap := r.c.Catalog.Snapshot()
	body, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	if err := r.net.SendControl(node, ckCatalog, body); err != nil {
		return fmt.Errorf("cluster: catalog sync to worker %d: %w", node, err)
	}
	r.synced[node] = snap.Epoch
	return nil
}

// eachWorker runs fn against every worker concurrently and joins the
// failures.
func (r *remoteCoordinator) eachWorker(fn func(node int) error) error {
	errs := make([]error, len(r.procs))
	var wg sync.WaitGroup
	for i, p := range r.procs {
		wg.Add(1)
		go func(i, node int) {
			defer wg.Done()
			errs[i] = fn(node)
		}(i, p.node)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// rpcCtx is the deadline for storage-side worker RPCs (insert, flush,
// index build); query jobs run under the query's own context instead.
func rpcCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 10*time.Minute)
}

func (r *remoteCoordinator) insert(node int, dv, ds string, recs [][]byte) error {
	if err := r.syncCatalog(node); err != nil {
		return err
	}
	ctx, cancel := rpcCtx()
	defer cancel()
	_, err := r.call(ctx, node, ckInsert, func(id uint64) any {
		return insertReq{ReqID: id, Dataverse: dv, Dataset: ds, Recs: recs}
	})
	return err
}

func (r *remoteCoordinator) flushAll() error {
	return r.eachWorker(func(node int) error {
		ctx, cancel := rpcCtx()
		defer cancel()
		_, err := r.call(ctx, node, ckFlush, func(id uint64) any {
			return flushReq{ReqID: id}
		})
		return err
	})
}

func (r *remoteCoordinator) buildIndex(dv, ds string, ix optimizer.IndexMeta) error {
	return r.eachWorker(func(node int) error {
		if err := r.syncCatalog(node); err != nil {
			return err
		}
		ctx, cancel := rpcCtx()
		defer cancel()
		_, err := r.call(ctx, node, ckBuildIndex, func(id uint64) any {
			return buildIndexReq{ReqID: id, Dataverse: dv, Dataset: ds, Index: ix}
		})
		return err
	})
}

func (r *remoteCoordinator) indexStats(dv, ds, ixName string) (storage.Stats, error) {
	var mu sync.Mutex
	var total storage.Stats
	err := r.eachWorker(func(node int) error {
		if err := r.syncCatalog(node); err != nil {
			return err
		}
		ctx, cancel := rpcCtx()
		defer cancel()
		payload, err := r.call(ctx, node, ckIndexStats, func(id uint64) any {
			return indexStatsReq{ReqID: id, Dataverse: dv, Dataset: ds, Index: ixName}
		})
		if err != nil {
			return err
		}
		var s storage.Stats
		if err := json.Unmarshal(payload, &s); err != nil {
			return err
		}
		mu.Lock()
		total.MemEntries += s.MemEntries
		total.MemBytes += s.MemBytes
		total.DiskComponents += s.DiskComponents
		total.DiskEntries += s.DiskEntries
		total.DiskBytes += s.DiskBytes
		mu.Unlock()
		return nil
	})
	return total, err
}

func (r *remoteCoordinator) dropDataset(dv, ds string) error {
	return r.eachWorker(func(node int) error {
		if err := r.syncCatalog(node); err != nil {
			return err
		}
		ctx, cancel := rpcCtx()
		defer cancel()
		_, err := r.call(ctx, node, ckDropDataset, func(id uint64) any {
			return dropReq{ReqID: id, Dataverse: dv, Dataset: ds}
		})
		return err
	})
}

// remoteJobResult aggregates the workers' halves of one job.
type remoteJobResult struct {
	stats    []*hyracks.JobStats
	counters []counterVals
	err      error
}

// startJob dispatches a job to every worker and returns a channel that
// yields the aggregate once all have answered. It must be called BEFORE
// the coordinator's local hyracks.Run: workers start producing frames
// toward node 0 immediately, and the local run is what consumes them.
// On any worker error the local run is cancelled and the job is
// cancelled everywhere, so no side stays blocked on flow-control
// credit for frames that will never be drained.
func (r *remoteCoordinator) startJob(ctx context.Context, cancelLocal context.CancelFunc, req jobReq) <-chan remoteJobResult {
	out := make(chan remoteJobResult, 1)
	go func() {
		var mu sync.Mutex
		var res remoteJobResult
		fail := func(err error) {
			mu.Lock()
			if res.err == nil {
				res.err = err
			}
			mu.Unlock()
			cancelLocal()
			r.cancelJob(req.JobID)
		}
		var wg sync.WaitGroup
		for _, p := range r.procs {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				if err := r.syncCatalog(node); err != nil {
					fail(err)
					return
				}
				payload, err := r.call(ctx, node, ckJob, func(id uint64) any {
					q := req
					q.ReqID = id
					return q
				})
				if err != nil {
					fail(err)
					return
				}
				var jr jobReply
				if err := json.Unmarshal(payload, &jr); err != nil {
					fail(fmt.Errorf("cluster: worker %d job reply: %w", node, err))
					return
				}
				mu.Lock()
				if jr.Stats != nil {
					res.stats = append(res.stats, jr.Stats)
				}
				res.counters = append(res.counters, jr.Counters)
				mu.Unlock()
			}(p.node)
		}
		wg.Wait()
		out <- res
	}()
	return out
}

// cancelJob tells every worker to abort a job's local run. Fire and
// forget: a dead worker already failed the RPC path.
func (r *remoteCoordinator) cancelJob(jobID uint64) {
	body, _ := json.Marshal(cancelReq{JobID: jobID})
	for _, p := range r.procs {
		r.net.SendControl(p.node, ckCancel, body)
	}
}

// shutdown stops the workers (politely, then firmly) and closes the
// transport.
func (r *remoteCoordinator) shutdown() error {
	for _, p := range r.procs {
		r.net.SendControl(p.node, ckShutdown, nil)
	}
	var errs []error
	for _, p := range r.procs {
		p.stdin.Close() // EOF is the backstop exit signal
		done := make(chan error, 1)
		go func(cmd *osexec.Cmd) { done <- cmd.Wait() }(p.cmd)
		select {
		case err := <-done:
			var ee *osexec.ExitError
			if err != nil && !errors.As(err, &ee) {
				errs = append(errs, err)
			}
		case <-time.After(10 * time.Second):
			p.cmd.Process.Kill()
			<-done
			errs = append(errs, fmt.Errorf("cluster: worker %d killed after shutdown timeout", p.node))
		}
	}
	if err := r.net.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// teardown is the bootstrap-failure cleanup: kill anything started.
func (r *remoteCoordinator) teardown() {
	for _, p := range r.procs {
		p.stdin.Close()
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
	r.net.Close()
}
