package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"runtime"
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

// ingestOp is one record of an InsertBatch call, routed to its
// partition. Everything cheap and order-sensitive (PK extraction,
// auto-PK assignment, partition routing) happens first, on the caller's
// goroutine; everything expensive (tokenization, storage writes)
// happens when the record's partition is applied.
type ingestOp struct {
	meta   *DatasetMeta
	dv, ds string
	rec    adm.Value
	key    []byte // primary key in ordered-key form
	part   int
}

// partitionBatch is one partition's share of an InsertBatch call: its
// records in batch order, and what applying them left behind. Exactly
// one goroutine applies it, so it needs no lock.
type partitionBatch struct {
	ops  []*ingestOp
	errs []error
	// wal is the partition's log and hi the highest LSN this call
	// committed on it (wal stays nil when nothing was logged).
	// InsertBatch waits for hi to become durable before acknowledging —
	// one coalesced fsync per touched partition per batch instead of
	// one per record.
	wal *storage.WAL
	hi  uint64
}

// chunkRecords is how many records of a partition commit through one
// storage.CommitGroups call: each record keeps its own atomic commit
// record, but the chunk pays one log lock acquisition and one syncer
// wakeup. Per-record commits made the group-commit path drain the log
// as thousands of tiny segment writes.
const chunkRecords = 32

// applyPartition prepares and commits one partition's records in batch
// order, chunkRecords at a time, so records with the same primary key
// (same partition) apply in the order the batch holds them. The trees
// it resolves stay valid for the whole call: InsertBatch holds the DDL
// read lock, so no drop or create can invalidate a handle.
func (c *Cluster) applyPartition(pb *partitionBatch) {
	op0 := pb.ops[0]
	node := c.nodeOfPartition(op0.part)
	tree, err := node.primary(op0.dv, op0.ds, op0.part)
	var wal *storage.WAL
	if err == nil {
		wal, err = node.partitionWAL(op0.dv, op0.ds, op0.part)
	}
	if err != nil {
		for range pb.ops {
			pb.errs = append(pb.errs, err)
		}
		return
	}
	inverted := map[string]*invindex.Index{}
	for off := 0; off < len(pb.ops); off += chunkRecords {
		chunk := pb.ops[off:min(off+chunkRecords, len(pb.ops))]
		// One arena for the chunk's write groups: a group sliced off an
		// earlier allocation stays valid after the arena grows, and the
		// hot no-index path stops paying one slice allocation per record.
		arena := make([]storage.GroupWrite, 0, 2*len(chunk))
		groups := make([][]storage.GroupWrite, 0, len(chunk))
		for _, op := range chunk {
			var writes []storage.GroupWrite
			arena, writes, err = c.prepare(op, tree, inverted, arena)
			if err != nil {
				pb.errs = append(pb.errs, err)
				continue
			}
			groups = append(groups, writes)
		}
		if len(groups) == 0 {
			continue
		}
		lsns, err := storage.CommitGroups(wal, groups)
		if err != nil {
			for range groups {
				pb.errs = append(pb.errs, err)
			}
			continue
		}
		ingestRecords.Add(int64(len(groups)))
		if wal == nil {
			continue
		}
		pb.wal, pb.hi = wal, lsns[len(lsns)-1]
		// In commit mode, start the fsync now rather than at batch end:
		// the sync runs while the next chunk is prepared, so the
		// batch-end WaitDurable finds most of the log already durable
		// instead of paying the whole latency serially. Interval mode
		// stays on its timer.
		if wal.Mode() == storage.WALSyncCommit {
			wal.RequestSync(pb.hi)
		}
	}
}

// prepare builds one record's atomic write group: the primary row into
// tree and every secondary-index posting, as GroupWrites. Tokenization
// and index resolution happen here, before anything is written, so a
// failure leaves no partial state and there is nothing to roll back;
// applyPartition commits whole chunks of prepared groups through
// storage.CommitGroups. inverted caches the partition's index trees by
// index name. The group is appended to arena and sliced off it; the
// updated arena is returned either way.
func (c *Cluster) prepare(op *ingestOp, tree *storage.LSMTree, inverted map[string]*invindex.Index, arena []storage.GroupWrite) ([]storage.GroupWrite, []storage.GroupWrite, error) {
	start := len(arena)
	arena = append(arena, storage.GroupWrite{Tree: tree, Key: op.key, Val: adm.Encode(op.rec)})
	for _, ix := range op.meta.Indexes {
		tokens := IndexTokens(ix, op.rec)
		if len(tokens) == 0 {
			continue
		}
		inv, ok := inverted[ix.Name]
		if !ok {
			var err error
			inv, err = c.nodeOfPartition(op.part).invIndex(op.dv, op.ds, ix.Name, op.part)
			if err != nil {
				return arena[:start], nil, err
			}
			inverted[ix.Name] = inv
		}
		if hook := c.testIndexFail.Load(); hook != nil {
			if err := (*hook)(op.dv, op.ds, ix.Name); err != nil {
				return arena[:start], nil, err
			}
		}
		for _, ek := range inv.EntryKeys(tokens, invindex.PK(op.key)) {
			arena = append(arena, storage.GroupWrite{Tree: inv.Tree(), Key: ek})
		}
	}
	return arena, arena[start:len(arena):len(arena)], nil
}

// InsertBatch ingests a batch of records into a dataset: records are
// validated and hash-routed on the caller's goroutine, then each
// partition's records are tokenized and applied (primary + secondary
// indexes together), up to GOMAXPROCS partitions at once with the
// caller's goroutine as one of the appliers. The call returns after
// every record in the batch has been applied or failed; the result
// joins all per-record errors. Records with the same primary key are
// applied in batch order; concurrent batches interleave.
//
// InsertBatch holds the DDL read lock for its duration, so the set of
// indexes it maintains matches one catalog snapshot and structural DDL
// (create index, drop dataset, close) cannot interleave with a batch.
// It is the one write entry point, so it is where the dataset's data
// version (dataVersion) counts writes.
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
	c.ingesting.Add(int64(len(recs)))
	defer c.ingesting.Add(-int64(len(recs)))
	// The batch is a write from here on, whether it fails or not: the
	// join memo serves no entry of this dataset until it has returned.
	ver := c.dataVersion(dv, ds)
	ver.begun.Add(1)
	defer ver.ended.Add(1)

	var errs []error
	parts := make([]partitionBatch, c.cfg.Partitions())
	// tcp mode: records owned by other nodes ship to their worker
	// process, which applies them itself and acknowledges after its
	// durability barrier. Routing and auto-PK assignment happen here on
	// the coordinator, and per-node slice order preserves batch order
	// per primary key (same PK → same partition → same node).
	remote := map[int][][]byte{}
	touched := 0
	for _, rec := range recs {
		op, err := c.prepareOp(meta, dv, ds, rec)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if c.remote != nil {
			if nodeID := op.part / c.cfg.PartitionsPerNode; nodeID != c.localNode {
				remote[nodeID] = append(remote[nodeID], adm.Encode(op.rec))
				continue
			}
		}
		if len(parts[op.part].ops) == 0 {
			touched++
		}
		parts[op.part].ops = append(parts[op.part].ops, op)
	}
	var wg sync.WaitGroup
	remoteErrs := make([]error, c.cfg.NumNodes)
	for nodeID, encs := range remote {
		wg.Add(1)
		go func(nodeID int, encs [][]byte) {
			defer wg.Done()
			remoteErrs[nodeID] = c.remote.insert(nodeID, dv, ds, encs)
		}(nodeID, encs)
	}
	var next atomic.Int64
	apply := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(parts) {
				return
			}
			if len(parts[i].ops) > 0 {
				c.applyPartition(&parts[i])
			}
		}
	}
	for w := min(touched, runtime.GOMAXPROCS(0)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			apply()
		}()
	}
	apply()
	wg.Wait()

	// Durability barrier: start every touched partition's fsync before
	// waiting on any, so the per-batch sync cost is the slowest single
	// fsync, not their sum. In interval/off modes WaitDurable returns
	// immediately.
	for i := range parts {
		if pb := &parts[i]; pb.wal != nil {
			pb.wal.RequestSync(pb.hi)
		}
	}
	var walErrs []error
	for i := range parts {
		pb := &parts[i]
		errs = append(errs, pb.errs...)
		if pb.wal == nil {
			continue
		}
		if err := pb.wal.WaitDurable(pb.hi); err != nil {
			walErrs = append(walErrs, err)
		}
	}
	return errors.Join(append(append(walErrs, errs...), remoteErrs...)...)
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
