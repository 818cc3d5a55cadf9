package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"simdb/internal/adm"
	"simdb/internal/invindex"
	"simdb/internal/obs"
	"simdb/internal/storage"
)

var (
	ingestRecords = obs.C("cluster.ingest.records")
	ingestBatches = obs.C("cluster.ingest.batches")
	ingestBatchH  = obs.H("cluster.ingest.batch_size")
)

// ingestOp is one record routed to its partition's ingestion worker.
// Everything cheap and order-sensitive (PK extraction, auto-PK
// assignment, partition routing) happened on the caller's goroutine;
// everything expensive (tokenization, storage writes) happens in the
// worker.
type ingestOp struct {
	meta   *DatasetMeta
	dv, ds string
	rec    adm.Value
	key    []byte // primary key in ordered-key form
	part   int
}

// ingestBatch tracks the completion of one InsertBatch call: a pending
// count decremented as ops finish, a done channel closed at zero, and
// the collected per-record errors.
type ingestBatch struct {
	pending atomic.Int64
	done    chan struct{}

	mu   sync.Mutex
	errs []error

	// walHigh tracks, per WAL touched by this batch, the highest LSN any
	// of the batch's commits reached. InsertBatch waits for these LSNs
	// to become durable before acknowledging — one coalesced fsync per
	// touched partition per batch instead of one per record.
	walMu   sync.Mutex
	walHigh map[*storage.WAL]uint64
}

// trackLSN records that this batch committed through lsn on w.
func (b *ingestBatch) trackLSN(w *storage.WAL, lsn uint64) {
	b.walMu.Lock()
	if b.walHigh == nil {
		b.walHigh = map[*storage.WAL]uint64{}
	}
	if lsn > b.walHigh[w] {
		b.walHigh[w] = lsn
	}
	b.walMu.Unlock()
}

func (b *ingestBatch) fail(err error) {
	b.mu.Lock()
	b.errs = append(b.errs, err)
	b.mu.Unlock()
}

// finish retires n ops; the last one releases the waiting caller.
func (b *ingestBatch) finish(n int64) {
	if b.pending.Add(-n) == 0 {
		close(b.done)
	}
}

func (b *ingestBatch) err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return errors.Join(b.errs...)
}

// ingestChunk is one worker's contiguous slice of a batch: every op in
// it routes to the same worker, so one channel transfer moves up to
// chunkRecords records. Chunking is what makes the batched path
// cheaper than per-record Insert even on few cores — a batch costs
// O(records/chunkRecords) sends and wakeups instead of one per record.
type ingestChunk struct {
	batch *ingestBatch
	ops   []*ingestOp
}

// chunkRecords caps the records carried per queue element, keeping the
// queue bound meaningful as a memory bound while amortizing channel
// overhead.
const chunkRecords = 32

// ingester is the partition-parallel ingestion pipeline: W workers,
// each owning one bounded queue. Records route to queue part%W, so all
// writes for one partition — and therefore for one primary key — land
// on the same worker in arrival order. Backpressure is the channel
// bound: when a worker falls behind (e.g. its trees are stalled on
// background maintenance), enqueuers block rather than buffer without
// limit.
type ingester struct {
	c       *Cluster
	queues  []chan ingestChunk
	pending atomic.Int64 // records enqueued, not yet applied
	wg      sync.WaitGroup
}

func newIngester(c *Cluster, workers, depth int) *ingester {
	ing := &ingester{c: c, queues: make([]chan ingestChunk, workers)}
	for i := range ing.queues {
		ing.queues[i] = make(chan ingestChunk, depth)
		ing.wg.Add(1)
		go ing.worker(ing.queues[i])
	}
	return ing
}

// enqueueBatch groups a batch's ops by destination worker and sends
// them as chunks. Slice order is preserved per worker, so records with
// the same primary key (same partition, same worker) apply in batch
// order. Callers hold c.ddlMu.RLock and wait for the batch before
// releasing it, which is what makes close (under the write lock) safe:
// no sender can be mid-enqueue when queues close.
func (ing *ingester) enqueueBatch(b *ingestBatch, ops []*ingestOp) {
	w := len(ing.queues)
	perWorker := make([][]*ingestOp, w)
	for _, op := range ops {
		i := op.part % w
		perWorker[i] = append(perWorker[i], op)
	}
	ing.pending.Add(int64(len(ops)))
	for i, list := range perWorker {
		for off := 0; off < len(list); off += chunkRecords {
			end := off + chunkRecords
			if end > len(list) {
				end = len(list)
			}
			ing.queues[i] <- ingestChunk{batch: b, ops: list[off:end]}
		}
	}
}

// queued reports the records currently in the pipeline (enqueued or
// being applied).
func (ing *ingester) queued() int {
	return int(ing.pending.Load())
}

// close drains and stops the workers. Caller must hold the ddl write
// lock (or otherwise guarantee no enqueuer is active).
func (ing *ingester) close() {
	for _, q := range ing.queues {
		close(q)
	}
	ing.wg.Wait()
}

// treeCache memoizes tree handles for the duration of one chunk,
// amortizing the node-mutex map lookups across the chunk's records. It
// must not outlive the chunk: a batch pins the DDL read lock, so
// within a chunk no drop/create can invalidate a handle, but across
// chunks it can.
type treeCache struct {
	primaries map[int]*storage.LSMTree
	inverted  map[string]*invindex.Index
	wals      map[int]*storage.WAL
}

func (ing *ingester) worker(q chan ingestChunk) {
	defer ing.wg.Done()
	for chunk := range q {
		cache := treeCache{
			primaries: map[int]*storage.LSMTree{},
			inverted:  map[string]*invindex.Index{},
			wals:      map[int]*storage.WAL{},
		}
		applied := int64(0)
		// Records accumulate per partition log — nil when the partition
		// has none — and commit through one CommitGroups call per (chunk,
		// log): each record keeps its own atomic commit record, but the
		// whole chunk pays one lock acquisition and one syncer wakeup.
		// Per-record commits made the group-commit path drain the log as
		// thousands of tiny segment writes.
		var walOrder []*storage.WAL
		walGroups := map[*storage.WAL][][]storage.GroupWrite{}
		// One arena for the chunk's write groups: a group sliced off an
		// earlier allocation stays valid after the arena grows, and the
		// hot no-index path stops paying one slice allocation per record.
		arena := make([]storage.GroupWrite, 0, 2*len(chunk.ops))
		for _, op := range chunk.ops {
			var wal *storage.WAL
			var writes []storage.GroupWrite
			var err error
			wal, arena, writes, err = ing.prepare(op, &cache, arena)
			if err != nil {
				chunk.batch.fail(err)
				continue
			}
			if _, ok := walGroups[wal]; !ok {
				walOrder = append(walOrder, wal)
			}
			walGroups[wal] = append(walGroups[wal], writes)
		}
		for _, wal := range walOrder {
			groups := walGroups[wal]
			lsns, err := storage.CommitGroups(wal, groups)
			if err != nil {
				for range groups {
					chunk.batch.fail(err)
				}
				continue
			}
			applied += int64(len(groups))
			if wal == nil {
				continue
			}
			hi := lsns[len(lsns)-1]
			chunk.batch.trackLSN(wal, hi)
			// In commit mode, start the fsync now rather than at batch
			// end: the sync runs while this worker prepares the next
			// chunk, so the batch-end WaitDurable finds most of the log
			// already durable instead of paying the whole latency
			// serially. Interval mode stays on its timer.
			if wal.Mode() == storage.WALSyncCommit {
				wal.RequestSync(hi)
			}
		}
		ingestRecords.Add(applied)
		ing.pending.Add(-int64(len(chunk.ops)))
		chunk.batch.finish(int64(len(chunk.ops)))
	}
}

// prepare resolves one record's trees and builds its atomic write
// group: the primary row and every secondary-index posting as
// GroupWrites, plus the partition's log (nil under WALSyncMode "off").
// Tokenization and index resolution happen here, before anything is
// written, so a failure leaves no partial state and there is nothing to
// roll back; the worker commits whole chunks of prepared groups through
// storage.CommitGroups. The group is appended to arena and sliced off
// it; the updated arena is returned either way.
func (ing *ingester) prepare(op *ingestOp, cache *treeCache, arena []storage.GroupWrite) (*storage.WAL, []storage.GroupWrite, []storage.GroupWrite, error) {
	node := ing.c.nodeOfPartition(op.part)
	tree, ok := cache.primaries[op.part]
	if !ok {
		var err error
		tree, err = node.primary(op.dv, op.ds, op.part)
		if err != nil {
			return nil, arena, nil, err
		}
		cache.primaries[op.part] = tree
	}
	wal, ok := cache.wals[op.part]
	if !ok {
		var err error
		wal, err = node.partitionWAL(op.dv, op.ds, op.part)
		if err != nil {
			return nil, arena, nil, err
		}
		cache.wals[op.part] = wal
	}

	start := len(arena)
	arena = append(arena, storage.GroupWrite{Tree: tree, Key: op.key, Val: adm.Encode(op.rec)})
	for _, ix := range op.meta.Indexes {
		tokens := IndexTokens(ix, op.rec)
		if len(tokens) == 0 {
			continue
		}
		ixKey := fmt.Sprintf("%s/%d", ix.Name, op.part)
		inv, ok := cache.inverted[ixKey]
		if !ok {
			var err error
			inv, err = node.invIndex(op.dv, op.ds, ix.Name, op.part)
			if err != nil {
				return nil, arena[:start], nil, err
			}
			cache.inverted[ixKey] = inv
		}
		if hook := ing.c.testIndexFail.Load(); hook != nil {
			if err := (*hook)(op.dv, op.ds, ix.Name); err != nil {
				return nil, arena[:start], nil, err
			}
		}
		for _, ek := range inv.EntryKeys(tokens, invindex.PK(op.key)) {
			arena = append(arena, storage.GroupWrite{Tree: inv.Tree(), Key: ek})
		}
	}
	return wal, arena, arena[start:len(arena):len(arena)], nil
}

// InsertBatch ingests a batch of records into a dataset through the
// partition-parallel pipeline: records are validated and hash-routed on
// the caller's goroutine, then tokenized and applied (primary +
// secondary indexes together) by per-partition workers. The call
// returns after every record in the batch has been applied or failed;
// the result joins all per-record errors. Records with the same
// primary key are applied in batch order.
//
// InsertBatch holds the DDL read lock for its duration, so the set of
// indexes it maintains matches one catalog snapshot and structural DDL
// (create index, drop dataset, close) cannot interleave with a batch.
func (c *Cluster) InsertBatch(dv, ds string, recs []adm.Value) error {
	if len(recs) == 0 {
		return nil
	}
	c.ddlMu.RLock()
	defer c.ddlMu.RUnlock()
	if c.ingClosed {
		return fmt.Errorf("cluster: insert into closed cluster")
	}
	meta, ok := c.Catalog.Dataset(dv, ds)
	if !ok {
		return fmt.Errorf("cluster: unknown dataset %s.%s", dv, ds)
	}
	ingestBatches.Inc()
	ingestBatchH.Observe(int64(len(recs)))

	b := &ingestBatch{done: make(chan struct{})}
	b.pending.Store(int64(len(recs)))
	ops := make([]*ingestOp, 0, len(recs))
	for _, rec := range recs {
		op, err := c.prepareOp(meta, dv, ds, rec)
		if err != nil {
			b.fail(err)
			b.finish(1)
			continue
		}
		ops = append(ops, op)
	}
	if c.remote != nil {
		// tcp mode: routing (and auto-PK assignment) happened above on
		// the coordinator; records owned by other nodes ship to their
		// worker process, which runs them through its own pipeline and
		// acknowledges after its durability barrier. Per-node slice
		// order preserves batch order per primary key (same PK → same
		// partition → same node).
		local := ops[:0:0]
		remote := map[int][][]byte{}
		for _, op := range ops {
			nodeID := op.part / c.cfg.PartitionsPerNode
			if nodeID == c.localNode {
				local = append(local, op)
			} else {
				remote[nodeID] = append(remote[nodeID], adm.Encode(op.rec))
			}
		}
		ops = local
		for nodeID, encs := range remote {
			go func(nodeID int, encs [][]byte) {
				if err := c.remote.insert(nodeID, dv, ds, encs); err != nil {
					b.fail(err)
				}
				b.finish(int64(len(encs)))
			}(nodeID, encs)
		}
	}
	c.ing.enqueueBatch(b, ops)
	<-b.done
	// Durability barrier: start every touched partition's fsync before
	// waiting on any, so the per-batch sync cost is the slowest single
	// fsync, not their sum. In interval/off modes WaitDurable returns
	// immediately.
	b.walMu.Lock()
	walHigh := b.walHigh
	b.walMu.Unlock()
	for w, lsn := range walHigh {
		w.RequestSync(lsn)
	}
	var walErrs []error
	for w, lsn := range walHigh {
		if err := w.WaitDurable(lsn); err != nil {
			walErrs = append(walErrs, err)
		}
	}
	if len(walErrs) > 0 {
		return errors.Join(append(walErrs, b.err())...)
	}
	return b.err()
}

const (
	// loadBatchRecords is how many NDJSON records LoadJSONLines hands to
	// one InsertBatch call.
	loadBatchRecords = 512
	// maxJSONLineBytes bounds one NDJSON record; a longer line fails the
	// load instead of growing the line buffer without limit.
	maxJSONLineBytes = 16 << 20
)

// LoadJSONLines reads newline-delimited JSON records off r and inserts
// them through InsertBatch in batches of loadBatchRecords, never holding
// more than one batch of the input. It returns the number of records
// inserted and the first error; a malformed or oversize line is reported
// with its 1-based record number (blank lines are skipped and not
// counted), and the batch it arrived in is not inserted. The shell's
// `load dataset` and simdbd's /ingest both load through here.
func (c *Cluster) LoadJSONLines(dv, ds string, r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxJSONLineBytes)
	batch := make([]adm.Value, 0, loadBatchRecords)
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		v, err := adm.FromJSON(line)
		if err != nil {
			return n, fmt.Errorf("cluster: record %d: %w", n+len(batch)+1, err)
		}
		batch = append(batch, v)
		if len(batch) == loadBatchRecords {
			if err := c.InsertBatch(dv, ds, batch); err != nil {
				return n, err
			}
			n += len(batch)
			batch = batch[:0]
		}
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("cluster: record %d: %w", n+len(batch)+1, err)
	}
	if err := c.InsertBatch(dv, ds, batch); err != nil {
		return n, err
	}
	return n + len(batch), nil
}

// prepareOp validates one record and resolves its routing: primary-key
// extraction (assigning an auto-PK if configured), ordered-key
// encoding, and hash partitioning.
func (c *Cluster) prepareOp(meta *DatasetMeta, dv, ds string, rec adm.Value) (*ingestOp, error) {
	if rec.Kind() != adm.KindRecord {
		return nil, fmt.Errorf("cluster: inserting non-record value %v", rec.Kind())
	}
	pk, okPK := rec.Rec().GetPath(meta.PKField)
	if !okPK || pk.IsNull() {
		if !meta.AutoPK {
			return nil, fmt.Errorf("cluster: record missing primary key field %q", meta.PKField)
		}
		pk = adm.NewInt(c.autoPK.Add(1))
		rec.Rec().Set(meta.PKField, pk)
	}
	part := c.partitionOfPK(pk)
	return &ingestOp{
		meta: meta,
		dv:   dv,
		ds:   ds,
		rec:  rec,
		key:  adm.OrderedKey(pk),
		part: part,
	}, nil
}

// IngestQueueDepth reports the records currently queued in the
// ingestion pipeline (all workers).
func (c *Cluster) IngestQueueDepth() int { return c.ing.queued() }
