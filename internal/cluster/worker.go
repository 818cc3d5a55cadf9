package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"simdb/internal/adm"
	"simdb/internal/aqlp"
	"simdb/internal/invindex"
	"simdb/internal/obs"
	"simdb/internal/transport"
)

// workerEnv marks a process as a tcp-mode worker. The coordinator sets
// it when spawning; MaybeRunWorker checks it.
const workerEnv = "SIMDB_WORKER"

// MaybeRunWorker turns the current process into a cluster worker when
// the SIMDB_WORKER environment variable is set, never returning in that
// case. Any binary used as Config.WorkerCmd (including the default —
// the coordinator's own executable — and `go test` binaries via
// TestMain) must call it at the top of main, before flag parsing or
// other side effects.
func MaybeRunWorker() {
	if os.Getenv(workerEnv) == "" {
		return
	}
	if err := RunWorker(os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "simdb worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// RunWorker reads the bootstrap line from r, runs one node controller
// as a transport peer of the coordinator, and returns when told to shut
// down (ckShutdown) or when r reaches EOF — the backstop for a crashed
// or killed coordinator, whose stdin pipe closes with it.
func RunWorker(r io.Reader) error {
	dec := json.NewDecoder(r)
	var boot workerBootstrap
	if err := dec.Decode(&boot); err != nil {
		return fmt.Errorf("worker bootstrap: %w", err)
	}
	if boot.Node <= 0 || boot.CoordAddr == "" {
		return fmt.Errorf("worker bootstrap: bad node %d / coordinator address %q", boot.Node, boot.CoordAddr)
	}
	cfg := boot.Config.WithDefaults()
	c, err := newCluster(cfg, boot.Node)
	if err != nil {
		return fmt.Errorf("worker %d storage: %w", boot.Node, err)
	}
	defer c.Close()

	w := &worker{
		c:    c,
		node: boot.Node,
		net:  transport.NewNet(boot.Node, cfg.ChanCap),
		jobs: map[uint64]context.CancelFunc{},
		done: make(chan struct{}),
	}
	w.net.OnControl(w.onControl)
	defer w.net.Close()
	if _, err := w.net.Listen("127.0.0.1:0"); err != nil {
		return fmt.Errorf("worker %d listen: %w", boot.Node, err)
	}
	if err := w.net.Dial(0, boot.CoordAddr); err != nil {
		return fmt.Errorf("worker %d dial coordinator: %w", boot.Node, err)
	}

	go func() {
		// Drain whatever follows the bootstrap line; EOF means the
		// coordinator is gone.
		io.Copy(io.Discard, io.MultiReader(dec.Buffered(), r))
		w.stop()
	}()
	<-w.done
	return nil
}

// worker is one tcp-mode node-controller process: a single-node Cluster
// plus the transport endpoint and the control-protocol handlers.
type worker struct {
	c    *Cluster
	node int
	net  *transport.Net

	jobMu sync.Mutex
	jobs  map[uint64]context.CancelFunc // in-flight jobs, for ckCancel

	stopOnce sync.Once
	done     chan struct{}
}

func (w *worker) stop() {
	w.stopOnce.Do(func() {
		w.jobMu.Lock()
		for _, cancel := range w.jobs {
			cancel()
		}
		w.jobMu.Unlock()
		close(w.done)
	})
}

// onControl runs on the transport's per-peer ordered control goroutine.
// Catalog snapshots apply synchronously so every later message from the
// same peer observes them; cancel and shutdown are immediate; request
// kinds run in their own goroutine so a long job or insert never blocks
// the channel that must stay open for ckCancel.
func (w *worker) onControl(from int, kind byte, body []byte) {
	switch kind {
	case ckCatalog:
		var snap CatalogSnapshot
		if err := json.Unmarshal(body, &snap); err == nil {
			err = w.c.Catalog.Restore(snap)
			if err != nil {
				// Leave the old catalog in place; the epoch check on the
				// next job fails it cleanly instead of diverging plans.
				obs.Log().Error("worker catalog restore failed", "node", w.node, "err", err.Error())
			}
		}
	case ckCancel:
		var cr cancelReq
		if err := json.Unmarshal(body, &cr); err == nil {
			w.jobMu.Lock()
			cancel := w.jobs[cr.JobID]
			w.jobMu.Unlock()
			if cancel != nil {
				cancel()
			}
		}
	case ckShutdown:
		w.stop()
	case ckPeers:
		// Bootstrap-time only; handled inline so the reply is ordered
		// after the dials complete.
		w.handle(from, kind, body)
	default:
		go w.handle(from, kind, body)
	}
}

// handle runs one request and sends its reply.
func (w *worker) handle(from int, kind byte, body []byte) {
	var head struct {
		ReqID uint64 `json:"req_id"`
	}
	if err := json.Unmarshal(body, &head); err != nil {
		return
	}
	payload, err := w.dispatch(kind, body)
	rep := ctrlReply{ReqID: head.ReqID}
	if err != nil {
		rep.Err = err.Error()
	} else if payload != nil {
		b, merr := json.Marshal(payload)
		if merr != nil {
			rep.Err = merr.Error()
		} else {
			rep.Payload = b
		}
	}
	out, merr := json.Marshal(rep)
	if merr != nil {
		return
	}
	w.net.SendControl(from, ckReply, out)
}

func (w *worker) dispatch(kind byte, body []byte) (any, error) {
	switch kind {
	case ckPeers:
		var req peersReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		// Dial every lower-numbered worker; higher-numbered ones dial us.
		// Exactly one connection per pair forms across the mesh.
		for peer, addr := range req.Addrs {
			if peer > 0 && peer < w.node {
				if err := w.net.Dial(peer, addr); err != nil {
					return nil, fmt.Errorf("dial peer %d: %w", peer, err)
				}
			}
		}
		return nil, nil
	case ckInsert:
		var req insertReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		recs := make([]adm.Value, len(req.Recs))
		for i, raw := range req.Recs {
			v, _, err := adm.Decode(raw)
			if err != nil {
				return nil, fmt.Errorf("insert record %d: %w", i, err)
			}
			recs[i] = v
		}
		return nil, w.c.InsertBatch(req.Dataverse, req.Dataset, recs)
	case ckFlush:
		return nil, w.c.flushLocal()
	case ckBuildIndex:
		var req buildIndexReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return nil, w.c.buildIndexLocal(req.Dataverse, req.Dataset, req.Index)
	case ckIndexStats:
		var req indexStatsReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		s, err := w.c.indexStatsLocal(req.Dataverse, req.Dataset, req.Index)
		if err != nil {
			return nil, err
		}
		return s, nil
	case ckDropDataset:
		var req dropReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		// The catalog entry is gone already (the preceding snapshot
		// removed it); only this node's storage remains to drop.
		return nil, w.c.nodes[w.node].dropDataset(req.Dataverse, req.Dataset)
	case ckJob:
		var req jobReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return w.runJob(req)
	}
	return nil, fmt.Errorf("worker: unknown control kind %d", kind)
}

// runJob executes this node's share of one query job. The request text
// is recompiled under the shipped session snapshot against the synced
// catalog; compilation and job generation are deterministic, so the
// resulting DAG — and every StreamID derived from it — matches the
// coordinator's without any plan serialization.
func (w *worker) runJob(req jobReq) (any, error) {
	c := w.c
	if got := c.Catalog.Epoch(); got != req.Epoch {
		return nil, fmt.Errorf("worker %d: catalog epoch %d, job compiled under %d", w.node, got, req.Epoch)
	}
	q, err := aqlp.Parse(req.Src)
	if err != nil {
		return nil, err
	}
	if q.Body == nil {
		return nil, fmt.Errorf("worker %d: job request has no query body", w.node)
	}
	// Statements are NOT replayed: session effects arrived in req.State,
	// catalog effects through the snapshot sync.
	plan, _, err := c.compileState(req.State, q.Body)
	if err != nil {
		return nil, err
	}
	counters := &QueryCounters{}
	lj, err := c.newLocalJob(plan, counters, req.JobID, req.State.Opts.MemoryBudgetBytes, w.net, invindex.Algorithm(req.TOccAlgo))
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w.jobMu.Lock()
	w.jobs[req.JobID] = cancel
	w.jobMu.Unlock()
	defer func() {
		w.jobMu.Lock()
		delete(w.jobs, req.JobID)
		w.jobMu.Unlock()
		w.net.EndJob(req.JobID)
	}()

	jstats, err := lj.run(ctx)
	if err != nil {
		return nil, err
	}
	return jobReply{Stats: jstats, Counters: loadCounters(counters)}, nil
}
