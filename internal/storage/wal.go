package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"simdb/internal/obs"
	"simdb/internal/obs/trace"
)

// Write-ahead-log metrics: appends/fsyncs expose the group-commit
// ratio directly (group_size is commits per fsync), replayed counts
// recovery work, truncations counts retired segments.
var (
	walAppends     = obs.C("storage.wal.appends")
	walFsyncs      = obs.C("storage.wal.fsyncs")
	walGroupSize   = obs.H("storage.wal.group_size")
	walReplayed    = obs.C("storage.wal.replayed")
	walTruncations = obs.C("storage.wal.truncations")
	walCheckpoints = obs.C("storage.wal.checkpoints")
)

// WALSyncMode selects when acknowledged writes are durable.
type WALSyncMode string

const (
	// WALSyncCommit fsyncs before acknowledging: a write that returned
	// nil survives any crash. Concurrent committers are coalesced into
	// one fsync by the group-commit syncer.
	WALSyncCommit WALSyncMode = "commit"
	// WALSyncInterval acknowledges as soon as the record is buffered and
	// fsyncs on a timer: a crash may lose the last interval's tail, but
	// recovery still lands on a prefix of acknowledged writes and
	// cross-tree atomicity is preserved.
	WALSyncInterval WALSyncMode = "interval"
	// WALSyncOff disables write-ahead logging entirely: unflushed
	// memtable generations die with the process (the pre-WAL behavior).
	// No WAL object exists in this mode.
	WALSyncOff WALSyncMode = "off"
)

// ValidWALSyncMode reports whether s names a sync mode.
func ValidWALSyncMode(s string) bool {
	switch WALSyncMode(s) {
	case WALSyncCommit, WALSyncInterval, WALSyncOff, "":
		return true
	}
	return false
}

// WALOptions configures a WAL.
type WALOptions struct {
	// Mode is the sync mode; WALSyncOff is invalid here (callers simply
	// do not open a WAL). Default WALSyncCommit.
	Mode WALSyncMode
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds this size (default 4 MiB).
	SegmentBytes int64
	// SyncInterval is the background fsync period in interval mode
	// (default 25ms).
	SyncInterval time.Duration
	// FS is the filesystem (default OS).
	FS VFS
}

// WAL record wire format. Each record is framed
//
//	[u32 payloadLen][u32 crc32c(payload)][payload]
//
// and the payload is [type byte][uvarint lsn][body]:
//
//	commit (1):      uvarint nOps, then per op
//	                 uvarint len(tree), tree, flag byte (1 = tombstone),
//	                 uvarint len(key), key, uvarint len(val), val
//	checkpoint (2):  uvarint ckptLSN, uvarint len(tree), tree
//	flush-begin (3): uvarint seq, uvarint maxLSN,
//	                 uvarint len(tree), tree
//
// A commit record carries every tree's ops for one atomic group (a
// primary row plus its secondary-index postings), so recovery replays
// the group entirely or — if the record is torn — not at all. A
// checkpoint record declares that tree's ops with lsn ≤ ckptLSN are in
// durable components and need no replay. A flush-begin record, force-
// synced before the component for (tree, seq) is written, declares
// that the component's contents are the tree's ops through maxLSN — at
// recovery it is the witness that lets a component which fails to open
// be quarantined, but only while maxLSN still exceeds the tree's
// durable checkpoint (see FlushCovered). Checkpoints and flush-begins
// consume LSNs of their own so segment boundaries stay strictly
// ordered.
const (
	walRecCommit     = 1
	walRecCheckpoint = 2
	walRecFlushBegin = 3

	// maxWALPayload bounds a single record; anything larger in a frame
	// header is treated as corruption/tear.
	maxWALPayload = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walOp is one logged write.
type walOp struct {
	tree      string
	key, val  []byte
	tombstone bool
}

// ReplayOp is a recovered write delivered to a tree at Attach.
type ReplayOp struct {
	LSN       uint64
	Key, Val  []byte
	Tombstone bool
}

type walRecord struct {
	typ     byte
	lsn     uint64
	ops     []walOp // commit
	tree    string  // checkpoint, flush-begin
	ckptLSN uint64  // checkpoint boundary; flush-begin maxLSN
	seq     uint64  // flush-begin component sequence
}

type walSegment struct {
	name  string
	start uint64 // first LSN the segment may contain
}

// WAL is a per-partition write-ahead log shared by the partition's
// primary tree and its secondary-index trees, so one record commits a
// row and its postings atomically. Appenders encode records into a
// pending buffer; a dedicated syncer goroutine drains the buffer into
// the current segment file and fsyncs only when some caller is waiting
// on durability — that is the group commit: every committer that
// arrived during the previous fsync rides the next one.
type WAL struct {
	fs       VFS
	dir      string
	mode     WALSyncMode
	segBytes int64
	interval time.Duration

	// commitMu serializes LSN assignment + memtable application across
	// every tree attached to this WAL: ops enter memtables in LSN order,
	// which is what makes "checkpoint = flushed prefix" true. Lock
	// order: commitMu, then a tree's mu, then w.mu.
	commitMu sync.Mutex

	mu   sync.Mutex
	work *sync.Cond // wakes the syncer
	done *sync.Cond // broadcast when durableLSN advances or the log breaks

	segs     []walSegment // sealed segments, oldest first
	cur      File         // active segment (written only by the syncer)
	curName  string
	curStart uint64
	curSize  int64 // syncer-owned after open

	nextLSN     uint64
	pending     []byte
	pendingHi   uint64
	pendingRecs int
	writtenLSN  uint64 // highest LSN written to the segment file
	durableLSN  uint64 // highest LSN covered by an fsync
	syncTarget  uint64 // highest LSN some caller wants durable
	sinceSync   int    // commit records written since the last fsync
	syncErr     error  // sticky: the log is broken once a write/sync fails
	closed      bool

	lastAppended map[string]uint64     // per tree: highest commit LSN appended
	ckpt         map[string]uint64     // per tree: replay-skip boundary
	replay       map[string][]ReplayOp // recovered ops awaiting Attach
	// flushed records, per tree, each flushed component's logged-op
	// boundary (component seq → maxLSN), from flush-begin records.
	// Consulted by FlushCovered at tree recovery.
	flushed map[string]map[uint64]uint64

	syncerDone chan struct{}
	tickerDone chan struct{}
}

func walSegmentName(start uint64) string {
	return fmt.Sprintf("wal-%016x.wal", start)
}

func parseWALSegmentName(name string) (start uint64, ok bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	v, err := strconv.ParseUint(name[4:len(name)-4], 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// OpenWAL opens (creating dir if needed) the log in dir and recovers
// its contents: segments are scanned in order, the valid record prefix
// is retained, and a torn tail is physically truncated away so later
// replays see a clean log. Recovered ops wait in memory until their
// tree calls Attach.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	w := &WAL{
		fs:           opts.FS,
		dir:          dir,
		mode:         opts.Mode,
		segBytes:     opts.SegmentBytes,
		interval:     opts.SyncInterval,
		nextLSN:      1,
		lastAppended: make(map[string]uint64),
		ckpt:         make(map[string]uint64),
		replay:       make(map[string][]ReplayOp),
		flushed:      make(map[string]map[uint64]uint64),
		syncerDone:   make(chan struct{}),
	}
	if w.fs == nil {
		w.fs = OS
	}
	if w.mode == "" {
		w.mode = WALSyncCommit
	}
	if w.mode == WALSyncOff {
		return nil, fmt.Errorf("storage: OpenWAL with mode off")
	}
	if w.segBytes <= 0 {
		w.segBytes = 4 << 20
	}
	if w.interval <= 0 {
		w.interval = 25 * time.Millisecond
	}
	w.work = sync.NewCond(&w.mu)
	w.done = sync.NewCond(&w.mu)

	if err := w.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	if err := w.recover(); err != nil {
		return nil, err
	}

	go w.syncerLoop()
	if w.mode == WALSyncInterval {
		w.tickerDone = make(chan struct{})
		go w.tickerLoop()
	}
	return w, nil
}

// recover scans the log, populating checkpoint/replay state and
// repairing the tail.
func (w *WAL) recover() error {
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return fmt.Errorf("storage: wal readdir: %w", err)
	}
	var segs []walSegment
	for _, name := range names {
		if start, ok := parseWALSegmentName(name); ok {
			segs = append(segs, walSegment{name: name, start: start})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })

	pending := make(map[string][]ReplayOp)
	maxLSN := uint64(0)
	torn := false
	var live []walSegment // segments still on disk after tail repair
	for _, seg := range segs {
		if torn {
			// Everything after a tear is unreachable log: remove it so the
			// next recovery sees the same clean prefix.
			_ = w.fs.Remove(filepath.Join(w.dir, seg.name))
			continue
		}
		path := filepath.Join(w.dir, seg.name)
		data, err := readWALFile(w.fs, path)
		if err != nil {
			return fmt.Errorf("storage: wal read %s: %w", seg.name, err)
		}
		valid := scanWALRecords(data, func(r walRecord) {
			if r.lsn > maxLSN {
				maxLSN = r.lsn
			}
			switch r.typ {
			case walRecCommit:
				for _, op := range r.ops {
					if w.lastAppended[op.tree] < r.lsn {
						w.lastAppended[op.tree] = r.lsn
					}
					pending[op.tree] = append(pending[op.tree], ReplayOp{
						LSN: r.lsn, Key: op.key, Val: op.val, Tombstone: op.tombstone,
					})
				}
			case walRecCheckpoint:
				if w.ckpt[r.tree] < r.ckptLSN {
					w.ckpt[r.tree] = r.ckptLSN
				}
			case walRecFlushBegin:
				m := w.flushed[r.tree]
				if m == nil {
					m = make(map[uint64]uint64)
					w.flushed[r.tree] = m
				}
				m[r.seq] = r.ckptLSN
			}
		})
		if valid < int64(len(data)) {
			torn = true
			if err := w.fs.Truncate(path, valid); err != nil {
				return fmt.Errorf("storage: wal truncate %s: %w", seg.name, err)
			}
		}
		live = append(live, seg)
	}

	// Keep only ops newer than each tree's checkpoint.
	for tree, ops := range pending {
		m := w.ckpt[tree]
		keep := ops[:0]
		for _, op := range ops {
			if op.LSN > m {
				keep = append(keep, op)
			}
		}
		if len(keep) > 0 {
			w.replay[tree] = keep
		}
	}

	w.nextLSN = maxLSN + 1
	if len(live) == 0 {
		w.curName = walSegmentName(w.nextLSN)
		w.curStart = w.nextLSN
	} else {
		// The surviving tail is the last segment left on disk: every
		// earlier one is sealed, everything after a tear was removed.
		w.segs = append(w.segs, live[:len(live)-1]...)
		last := live[len(live)-1]
		// The LSN counter must never regress below a surviving segment's
		// start. The tail can legally scan to zero records — a crash can
		// catch a freshly rotated segment before any record in it was
		// synced, after truncation already deleted the older segments —
		// and deriving nextLSN from scanned records alone would then hand
		// out LSNs below the segment's start, so a later rotation would
		// create a lower-named segment and the next recovery would sort
		// (and replay) the log out of true LSN order.
		if w.nextLSN < last.start {
			w.nextLSN = last.start
		}
		w.curName = last.name
		w.curStart = last.start
	}
	f, err := w.fs.OpenAppend(filepath.Join(w.dir, w.curName))
	if err != nil {
		return fmt.Errorf("storage: wal open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	// Publish recovery's namespace repairs — the created tail segment,
	// post-tear removals — before any new record can be acknowledged:
	// a crash must not resurrect removed segments (their LSNs are about
	// to be reused) or orphan the tail's dir entry.
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		return fmt.Errorf("storage: wal sync dir: %w", err)
	}
	w.cur = f
	w.curSize = st.Size()
	w.writtenLSN = w.nextLSN - 1
	w.durableLSN = w.nextLSN - 1
	return nil
}

func readWALFile(fs VFS, path string) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, st.Size())
	if len(data) == 0 {
		return data, nil
	}
	if _, err := f.ReadAt(data, 0); err != nil {
		return nil, err
	}
	return data, nil
}

// scanWALRecords parses the valid record prefix of buf, calling fn for
// each record, and returns the prefix length in bytes. Any malformed
// frame — short header, oversized length, CRC mismatch, undecodable
// payload — ends the prefix: that is what a torn tail looks like.
func scanWALRecords(buf []byte, fn func(walRecord)) int64 {
	off := 0
	for {
		if len(buf)-off < 8 {
			return int64(off)
		}
		plen := binary.LittleEndian.Uint32(buf[off:])
		if plen == 0 || plen > maxWALPayload || uint64(plen) > uint64(len(buf)-off-8) {
			return int64(off)
		}
		want := binary.LittleEndian.Uint32(buf[off+4:])
		payload := buf[off+8 : off+8+int(plen)]
		if crc32.Checksum(payload, castagnoli) != want {
			return int64(off)
		}
		rec, err := decodeWALPayload(payload)
		if err != nil {
			return int64(off)
		}
		if fn != nil {
			fn(rec)
		}
		off += 8 + int(plen)
	}
}

// decodeWALPayload decodes one record payload. It must tolerate
// arbitrary bytes (fuzzed): any malformation is an error, never a
// panic or a huge allocation.
func decodeWALPayload(p []byte) (walRecord, error) {
	var r walRecord
	if len(p) < 2 {
		return r, errCorrupt("wal record too short")
	}
	r.typ = p[0]
	p = p[1:]
	lsn, n := binary.Uvarint(p)
	if n <= 0 {
		return r, errCorrupt("wal record lsn")
	}
	p = p[n:]
	r.lsn = lsn
	switch r.typ {
	case walRecCommit:
		nOps, n := binary.Uvarint(p)
		if n <= 0 || nOps > uint64(len(p)) {
			return r, errCorrupt("wal commit op count")
		}
		p = p[n:]
		r.ops = make([]walOp, 0, nOps)
		for i := uint64(0); i < nOps; i++ {
			var op walOp
			tl, n := binary.Uvarint(p)
			if n <= 0 || tl > uint64(len(p)-n) {
				return r, errCorrupt("wal commit tree")
			}
			p = p[n:]
			op.tree = string(p[:tl])
			p = p[tl:]
			if len(p) < 1 {
				return r, errCorrupt("wal commit flag")
			}
			op.tombstone = p[0] == 1
			p = p[1:]
			kl, n := binary.Uvarint(p)
			if n <= 0 || kl > uint64(len(p)-n) {
				return r, errCorrupt("wal commit key")
			}
			p = p[n:]
			op.key = append([]byte(nil), p[:kl]...)
			p = p[kl:]
			vl, n := binary.Uvarint(p)
			if n <= 0 || vl > uint64(len(p)-n) {
				return r, errCorrupt("wal commit value")
			}
			p = p[n:]
			if vl > 0 {
				op.val = append([]byte(nil), p[:vl]...)
			}
			p = p[vl:]
			r.ops = append(r.ops, op)
		}
		if len(p) != 0 {
			return r, errCorrupt("wal commit trailing bytes")
		}
	case walRecCheckpoint:
		ck, n := binary.Uvarint(p)
		if n <= 0 {
			return r, errCorrupt("wal checkpoint lsn")
		}
		p = p[n:]
		r.ckptLSN = ck
		tl, n := binary.Uvarint(p)
		if n <= 0 || tl != uint64(len(p)-n) {
			return r, errCorrupt("wal checkpoint tree")
		}
		r.tree = string(p[n:])
	case walRecFlushBegin:
		seq, n := binary.Uvarint(p)
		if n <= 0 {
			return r, errCorrupt("wal flush-begin seq")
		}
		p = p[n:]
		r.seq = seq
		mx, n := binary.Uvarint(p)
		if n <= 0 {
			return r, errCorrupt("wal flush-begin max lsn")
		}
		p = p[n:]
		r.ckptLSN = mx
		tl, n := binary.Uvarint(p)
		if n <= 0 || tl != uint64(len(p)-n) {
			return r, errCorrupt("wal flush-begin tree")
		}
		r.tree = string(p[n:])
	default:
		return r, errCorrupt("wal record type")
	}
	return r, nil
}

func appendWALFrame(dst, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// beginFrameLocked reserves a frame header in the pending buffer and
// returns its offset; the caller appends the payload body in place and
// calls sealFrameLocked. Encoding straight into the buffer keeps the
// hot append path free of per-record payload allocations.
func (w *WAL) beginFrameLocked() int {
	off := len(w.pending)
	w.pending = append(w.pending, 0, 0, 0, 0, 0, 0, 0, 0)
	return off
}

func (w *WAL) sealFrameLocked(hdrOff int) {
	payload := w.pending[hdrOff+8:]
	binary.LittleEndian.PutUint32(w.pending[hdrOff:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.pending[hdrOff+4:], crc32.Checksum(payload, castagnoli))
}

func appendCommitBody(p []byte, lsn uint64, ops []walOp) []byte {
	p = append(p, walRecCommit)
	p = binary.AppendUvarint(p, lsn)
	p = binary.AppendUvarint(p, uint64(len(ops)))
	for _, op := range ops {
		p = binary.AppendUvarint(p, uint64(len(op.tree)))
		p = append(p, op.tree...)
		if op.tombstone {
			p = append(p, 1)
		} else {
			p = append(p, 0)
		}
		p = binary.AppendUvarint(p, uint64(len(op.key)))
		p = append(p, op.key...)
		p = binary.AppendUvarint(p, uint64(len(op.val)))
		p = append(p, op.val...)
	}
	return p
}

func encodeCommit(lsn uint64, ops []walOp) []byte {
	return appendCommitBody(make([]byte, 0, 64), lsn, ops)
}

func encodeCheckpoint(lsn, ckptLSN uint64, tree string) []byte {
	p := make([]byte, 0, 32)
	p = append(p, walRecCheckpoint)
	p = binary.AppendUvarint(p, lsn)
	p = binary.AppendUvarint(p, ckptLSN)
	p = binary.AppendUvarint(p, uint64(len(tree)))
	p = append(p, tree...)
	return p
}

func encodeFlushBegin(lsn, seq, maxLSN uint64, tree string) []byte {
	p := make([]byte, 0, 32)
	p = append(p, walRecFlushBegin)
	p = binary.AppendUvarint(p, lsn)
	p = binary.AppendUvarint(p, seq)
	p = binary.AppendUvarint(p, maxLSN)
	p = binary.AppendUvarint(p, uint64(len(tree)))
	p = append(p, tree...)
	return p
}

// Mode returns the configured sync mode.
func (w *WAL) Mode() WALSyncMode { return w.mode }

// Attach claims treeID's recovered ops (in LSN order) and registers
// the tree for checkpoint accounting. Each tree attaches once, at open.
func (w *WAL) Attach(treeID string) []ReplayOp {
	w.mu.Lock()
	defer w.mu.Unlock()
	ops := w.replay[treeID]
	delete(w.replay, treeID)
	walReplayed.Add(int64(len(ops)))
	return ops
}

// FlushBegin logs that treeID is about to flush the memtable
// generation with component sequence seq, whose logged ops run through
// maxLSN. The caller must SyncThrough the returned LSN before writing
// the component: once durable, the record is the recovery-time witness
// that the component's exact contents are still in the log (until its
// checkpoint retires them) — see FlushCovered. Flush-begins do not
// advance lastAppended, so a fully checkpointed tree never pins
// segments just because its flush markers are newer than its data.
func (w *WAL) FlushBegin(treeID string, seq, maxLSN uint64) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("storage: flush-begin on closed wal %s", w.dir)
	}
	if w.syncErr != nil {
		return 0, w.syncErr
	}
	lsn := w.nextLSN
	w.nextLSN++
	w.pending = appendWALFrame(w.pending, encodeFlushBegin(lsn, seq, maxLSN, treeID))
	w.pendingHi = lsn
	m := w.flushed[treeID]
	if m == nil {
		m = make(map[uint64]uint64)
		w.flushed[treeID] = m
	}
	m[seq] = maxLSN
	w.work.Signal()
	return lsn, nil
}

// FlushCovered reports whether the log still holds every op of the
// component flushed as (treeID, seq): its flush-begin record was
// recovered and the boundary it declares lies above the tree's durable
// checkpoint, so the replay set contains the component's full
// contents. Tree recovery consults it to decide whether a component
// that fails to open can be quarantined (its ops replay from the log)
// or must surface as an error — a long-checkpointed component's ops
// are gone from the log, so merely having *some* pending replay would
// not make dropping it safe.
func (w *WAL) FlushCovered(treeID string, seq uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	maxLSN, ok := w.flushed[treeID][seq]
	return ok && maxLSN > w.ckpt[treeID]
}

// appendOpsBatch encodes one commit record per group — each group stays
// individually atomic on replay — and assigns their LSNs under a single
// lock acquisition and a single syncer wakeup. Batched ingestion commits
// a whole chunk this way: per-record appends would wake the syncer once
// per record and drain the pending buffer as thousands of tiny segment
// writes. Returns the first group's LSN; group i committed at first+i.
// The caller applies the ops to memtables before releasing commitMu,
// and — if it wants durability — calls WaitDurable afterwards.
func (w *WAL) appendOpsBatch(groups [][]walOp) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("storage: append to closed wal %s", w.dir)
	}
	if w.syncErr != nil {
		return 0, w.syncErr
	}
	first := w.nextLSN
	for _, ops := range groups {
		lsn := w.nextLSN
		w.nextLSN++
		hdr := w.beginFrameLocked()
		w.pending = appendCommitBody(w.pending, lsn, ops)
		w.sealFrameLocked(hdr)
		w.pendingHi = lsn
		w.pendingRecs++
		for _, op := range ops {
			if w.lastAppended[op.tree] < lsn {
				w.lastAppended[op.tree] = lsn
			}
		}
		walAppends.Inc()
	}
	w.work.Signal()
	return first, nil
}

// RequestSync asks the syncer to make lsn durable without waiting.
// Batch ingestion uses it to start every touched partition's fsync
// before waiting on any of them.
func (w *WAL) RequestSync(lsn uint64) {
	w.mu.Lock()
	if lsn > w.syncTarget {
		w.syncTarget = lsn
		w.work.Signal()
	}
	w.mu.Unlock()
}

// WaitDurable blocks until lsn is fsynced — in commit mode. In
// interval mode it returns immediately (the timer will sync); the
// sticky log error is still surfaced.
func (w *WAL) WaitDurable(lsn uint64) error {
	if w.mode != WALSyncCommit {
		w.mu.Lock()
		err := w.syncErr
		w.mu.Unlock()
		return err
	}
	return w.syncThrough(lsn)
}

// SyncThrough blocks until lsn is fsynced regardless of mode — the
// log-ahead-of-data barrier flushes take before writing a component.
func (w *WAL) SyncThrough(lsn uint64) error { return w.syncThrough(lsn) }

// Barrier blocks until every record appended so far (commits and
// checkpoints) is durably synced and the syncer is idle.
func (w *WAL) Barrier() error {
	w.mu.Lock()
	hi := w.nextLSN - 1
	w.mu.Unlock()
	if hi == 0 {
		return nil
	}
	return w.syncThrough(hi)
}

func (w *WAL) syncThrough(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if lsn > w.syncTarget {
		w.syncTarget = lsn
		w.work.Signal()
	}
	for w.durableLSN < lsn && w.syncErr == nil {
		if w.closed && w.pendingHi <= w.durableLSN && w.writtenLSN <= w.durableLSN {
			return fmt.Errorf("storage: wal %s closed before lsn %d durable", w.dir, lsn)
		}
		w.done.Wait()
	}
	return w.syncErr
}

// Checkpoint records that treeID's ops with lsn ≤ through are durable
// in components: replay will skip them, and segments wholly below
// every tree's boundary are deleted. The record itself is not force-
// synced — losing it only costs idempotent re-replay of flushed ops.
func (w *WAL) Checkpoint(treeID string, through uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.syncErr != nil {
		return
	}
	if through > w.ckpt[treeID] {
		w.ckpt[treeID] = through
	}
	lsn := w.nextLSN
	w.nextLSN++
	w.pending = appendWALFrame(w.pending, encodeCheckpoint(lsn, through, treeID))
	w.pendingHi = lsn
	walCheckpoints.Inc()
	w.work.Signal()
	w.truncateLocked()
}

// truncateLocked deletes sealed segments no longer needed by any tree:
// those entirely below the oldest un-checkpointed LSN. Trees recovered
// from the log but not yet attached hold truncation via lastAppended.
func (w *WAL) truncateLocked() {
	low := uint64(math.MaxUint64)
	for tree, last := range w.lastAppended {
		if m := w.ckpt[tree]; last > m && m+1 < low {
			low = m + 1
		}
	}
	kept := w.segs[:0]
	for i, seg := range w.segs {
		end := w.curStart - 1
		if i+1 < len(w.segs) {
			end = w.segs[i+1].start - 1
		}
		if end < low {
			if err := w.fs.Remove(filepath.Join(w.dir, seg.name)); err == nil {
				walTruncations.Inc()
				continue
			}
		}
		kept = append(kept, seg)
	}
	w.segs = append([]walSegment(nil), kept...)
}

// SegmentCount returns the number of live segment files.
func (w *WAL) SegmentCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segs) + 1
}

// Close drains and syncs pending records, stops the syncer, and closes
// the segment. Trees must be closed first (tree Close checkpoints its
// final flush through the still-open WAL).
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	if hi := w.nextLSN - 1; hi > w.syncTarget {
		w.syncTarget = hi
	}
	w.work.Signal()
	w.mu.Unlock()

	if w.tickerDone != nil {
		close(w.tickerDone)
	}
	<-w.syncerDone

	w.mu.Lock()
	err := w.syncErr
	w.mu.Unlock()
	if cerr := w.cur.Close(); err == nil {
		err = cerr
	}
	return err
}

// tickerLoop drives interval-mode background syncs.
func (w *WAL) tickerLoop() {
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.tickerDone:
			return
		case <-t.C:
			w.mu.Lock()
			hi := w.writtenLSN
			if w.pendingHi > hi {
				hi = w.pendingHi
			}
			if hi > w.syncTarget {
				w.syncTarget = hi
				w.work.Signal()
			}
			w.mu.Unlock()
		}
	}
}

// syncWALData is the hot-path durability barrier for segment appends.
// Appends change only the file's data and size, and recovery rescans
// the tail by CRC anyway, so a data-only sync (fdatasync, where the
// platform has one) is sufficient — it skips the full metadata journal
// commit a plain fsync forces. Non-OS files (the fault-injecting test
// VFS) keep their Sync semantics so crash modeling is unaffected.
func syncWALData(f File) error {
	if of, ok := f.(*os.File); ok {
		return fdatasync(of)
	}
	return f.Sync()
}

// syncerLoop is the group-commit engine: it drains whatever appenders
// buffered since the last round into one segment write, and fsyncs
// only when some caller's durability target is still uncovered. Every
// committer that arrived while an fsync was in flight shares the next
// one.
func (w *WAL) syncerLoop() {
	defer close(w.syncerDone)
	w.mu.Lock()
	// written and durable are the syncer's authoritative copies of
	// writtenLSN/durableLSN; the struct fields are published under mu
	// for waiters to observe.
	written := w.writtenLSN
	durable := w.durableLSN
	for {
		for !w.closed && len(w.pending) == 0 && w.syncTarget <= durable {
			w.work.Wait()
		}
		if w.syncErr != nil || (w.closed && len(w.pending) == 0 && w.syncTarget <= durable) {
			w.mu.Unlock()
			return
		}
		buf := w.pending
		w.pending = nil
		recs := w.pendingRecs
		w.pendingRecs = 0
		hi := w.pendingHi
		target := w.syncTarget
		w.mu.Unlock()

		var err error
		if len(buf) > 0 {
			if w.curSize > 0 && w.curSize+int64(len(buf)) > w.segBytes {
				durable, err = w.rotateSegment(written, durable)
			}
			if err == nil {
				if _, werr := w.cur.Write(buf); werr != nil {
					err = werr
				} else {
					w.curSize += int64(len(buf))
					written = hi
				}
			}
		}
		synced := false
		w.sinceSync += recs
		if err == nil && target > durable && written > durable {
			syncStart := time.Now()
			if serr := syncWALData(w.cur); serr != nil {
				err = serr
			} else {
				synced = true
				durable = written
				walFsyncs.Inc()
				trace.Default().Event("wal-sync", trace.CatWAL, w.dir,
					syncStart, time.Since(syncStart), trace.I("recs", int64(w.sinceSync)))
				if w.sinceSync > 0 {
					walGroupSize.Observe(int64(w.sinceSync))
					w.sinceSync = 0
				}
			}
		}

		w.mu.Lock()
		w.writtenLSN = written
		// Recycle the drained buffer when no append raced in — the hot
		// path then runs allocation-free. Oversized buffers are dropped
		// so one burst cannot pin memory forever.
		if w.pending == nil && cap(buf) <= 1<<20 {
			w.pending = buf[:0]
		}
		if err != nil {
			w.syncErr = fmt.Errorf("storage: wal %s: %w", w.dir, err)
			w.done.Broadcast()
			w.mu.Unlock()
			return
		}
		if synced || durable > w.durableLSN {
			w.durableLSN = durable
			w.done.Broadcast()
		}
	}
}

// rotateSegment seals the current segment (sync + close) and opens the
// next. Called only by the syncer, off w.mu. Sealing syncs first so
// every sealed segment is fully durable — recovery relies on a tear
// appearing only in the final segment. Returns the advanced durable
// LSN (sealing makes everything written durable).
func (w *WAL) rotateSegment(written, durable uint64) (uint64, error) {
	if err := w.cur.Sync(); err != nil {
		return durable, err
	}
	if err := w.cur.Close(); err != nil {
		return durable, err
	}
	newStart := written + 1
	f, err := w.fs.OpenAppend(filepath.Join(w.dir, walSegmentName(newStart)))
	if err != nil {
		return durable, err
	}
	// Make the new segment's dir entry durable before any record lands
	// in it — fsyncing the file alone would not stop a crash from
	// dropping the entry (and the acknowledged records inside) on a real
	// filesystem. This also publishes any pending truncation removals.
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		return durable, err
	}
	if written > durable {
		durable = written
	}
	w.mu.Lock()
	if durable > w.durableLSN {
		w.durableLSN = durable
		w.done.Broadcast()
	}
	w.segs = append(w.segs, walSegment{name: w.curName, start: w.curStart})
	w.curName = walSegmentName(newStart)
	w.curStart = newStart
	w.mu.Unlock()
	w.cur = f
	w.curSize = 0
	return durable, nil
}
