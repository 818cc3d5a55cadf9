// Package storage implements SimDB's per-partition storage: LSM
// B+-trees made of an in-memory memtable plus immutable on-disk sorted
// components with bloom filters and fence keys, read through a
// node-wide LRU buffer cache. Primary indexes and secondary inverted
// indexes both sit on this substrate, as in AsterixDB ("partitioned
// LSM-based B+-trees with optional LSM-based secondary indexes").
//
// Writes never do disk I/O on the caller's goroutine: a Put lands in
// the active memtable, which rotates into an immutable generation when
// it fills; a background maintenance scheduler (a bounded worker pool,
// typically shared per node) flushes rotated memtables to disk
// components and merges every disk component into one once their count
// passes MaxComponents.
// Writers only stall — with backpressure accounted in metrics — when
// maintenance falls far enough behind that immutable memtables or disk
// components pile past their thresholds.
package storage

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"simdb/internal/obs"
	"simdb/internal/obs/trace"
)

// Process-wide storage event metrics: flush/merge/rotation counts and
// durations stream into the default registry as they happen, and the
// write-stall counters expose backpressure (point-in-time state like
// memtable size is read on demand via Stats instead).
var (
	flushCount    = obs.C("storage.flush.count")
	flushNs       = obs.H("storage.flush.ns")
	flushBytes    = obs.H("storage.flush.bytes")
	mergeCount    = obs.C("storage.merge.count")
	mergeNs       = obs.H("storage.merge.ns")
	rotateCount   = obs.C("storage.rotate.count")
	stallCount    = obs.C("storage.stall.count")
	stallNs       = obs.H("storage.stall.ns")
	pendingFlushG = obs.G("storage.maintenance.pending_flushes")
	pendingMergeG = obs.G("storage.maintenance.pending_merges")
	maintFailedG  = obs.G("storage.maintenance.failed")
	quarantinedC  = obs.C("storage.recover.quarantined")
)

// DefaultPageSize is the target data-page size of row components when
// LSMOptions.PageSize is unset: the engine's one page size
// (EXPERIMENTS.md, "The knob sweep").
const DefaultPageSize = 32 << 10

// LSMOptions configures an LSM tree.
type LSMOptions struct {
	// PageSize is the target data-page size of on-disk components
	// (default DefaultPageSize).
	PageSize int
	// MemBudgetBytes rotates the active memtable into the flush queue
	// once its footprint exceeds this many bytes.
	MemBudgetBytes int64
	// MaxComponents triggers background compaction: once the disk
	// component count exceeds it, every component merges into one.
	// Writers stall at 4*MaxComponents, giving merges time to catch up.
	MaxComponents int
	// Cache is the node's shared buffer cache. Required.
	Cache *BufferCache
	// Maintenance is the background flush/merge worker pool, typically
	// shared by every tree on a node. nil creates a private
	// single-worker scheduler owned (and closed) by the tree.
	Maintenance *Scheduler
	// MaxImmutable is how many rotated-but-unflushed memtables may pile
	// up before Put stalls waiting for a flush (default 4).
	MaxImmutable int
	// FS routes the tree's file operations; nil takes OS. Crash-
	// recovery tests inject a fault-injecting filesystem here.
	FS VFS
	// WAL, when non-nil, write-ahead-logs every write to the tree under
	// the name WALTree: acknowledged writes survive a crash and are
	// replayed into the memtable at open. One WAL is shared by a
	// partition's primary tree and its index trees so CommitGroups can
	// commit a row and its postings atomically. WALTree must be unique
	// among the WAL's trees and stable across restarts.
	WAL     *WAL
	WALTree string
	// Columnar makes flushes, merges, and bulk loads write version-2
	// columnar components (record values shredded into per-field columns
	// for projected scans). Reading is always version-agnostic: a tree
	// may hold row and columnar components side by side, so flipping the
	// flag — either way — is safe on existing data.
	Columnar bool
}

// componentSink abstracts the two component writers so the flush,
// merge, and bulk-load paths pick the output format from one place.
type componentSink interface {
	Add(key, value []byte) error
	Finish() error
	Abort()
}

// newComponentSink creates the configured component writer for path.
func (t *LSMTree) newComponentSink(path string) (componentSink, error) {
	if t.opts.Columnar {
		return NewColumnarComponentWriterFS(t.fs, path)
	}
	return NewComponentWriterFS(t.fs, path, t.opts.PageSize)
}

func (o *LSMOptions) withDefaults() LSMOptions {
	out := *o
	if out.PageSize <= 0 {
		out.PageSize = DefaultPageSize
	}
	if out.MemBudgetBytes <= 0 {
		out.MemBudgetBytes = 8 << 20
	}
	if out.MaxComponents <= 0 {
		out.MaxComponents = 8
	}
	if out.Cache == nil {
		out.Cache = NewBufferCache(32<<20, out.PageSize)
	}
	if out.MaxImmutable <= 0 {
		out.MaxImmutable = 4
	}
	if out.FS == nil {
		out.FS = OS
	}
	return out
}

// immMem is a rotated, immutable memtable awaiting flush. Its seq was
// allocated at rotation time, so flush completions install components
// in recency order no matter when the I/O finishes. When the tree is
// WAL-attached, minLSN/maxLSN bound the logged ops it holds: the flush
// syncs the log through maxLSN before writing (log-ahead-of-data) and
// checkpoints maxLSN after installing.
type immMem struct {
	mt             *memtable
	seq            uint64
	minLSN, maxLSN uint64
}

// LSMTree is a single partition's LSM B+-tree over byte keys and
// values. It is safe for concurrent use. Writes take an exclusive lock
// but never perform disk I/O: flush and merge run on the maintenance
// scheduler. Reads acquire a refcounted TreeSnapshot under a brief
// shared lock and then proceed lock-free, so a slow scan never blocks
// a concurrent Put, Flush, or Merge (see TreeSnapshot).
type LSMTree struct {
	dir     string
	opts    LSMOptions
	fs      VFS
	wal     *WAL
	walTree string

	mu   sync.RWMutex
	cond *sync.Cond // broadcast whenever maintenance makes progress

	mem        *memtable
	imms       []*immMem    // rotated memtables, newest first
	components []*Component // newest first
	nextSeq    uint64
	nextGen    uint64

	// LSN bounds of logged ops in the active memtable (0 = none).
	// Because appends and applies share the WAL's commitMu, ops enter
	// memtables in LSN order and every rotation boundary is an LSN
	// boundary — which is what lets a flush checkpoint "everything
	// through maxLSN" truthfully.
	memMinLSN, memMaxLSN uint64

	closed         bool
	lastErr        error // first background-maintenance failure; sticky
	flushScheduled bool  // a flush task is queued or running
	mergeActive    bool  // a merge (background or forced) is in flight

	bg       sync.WaitGroup // in-flight background tasks
	sched    *Scheduler
	ownSched bool

	// Test hooks, injected before concurrent use: called inside the
	// corresponding maintenance step, off the writer's goroutine.
	testFlushDelay func()
	testMergeDelay func()
}

// componentName renders a component file name: flushed (and
// bulk-loaded) components are c<seq>.cmp; merged components are
// c<seq>-<lo>m<gen>.cmp, sequenced at their newest input so recency
// order survives restart, with <lo> recording the oldest rotation
// sequence merged in. The range matters for crash recovery: a merge
// output that reached disk supersedes exactly the leftover inputs
// whose sequences its [lo, seq] interval contains — without it, a
// tombstone-dropping merge that crashed before removing its inputs
// would resurrect deleted keys on reopen.
// componentTmpSuffix marks a component file still being written. Every
// writer targets <name>.cmp.tmp and renames to the final name only
// after Finish has synced the data, so a crash mid-flush or mid-merge
// leaves a .tmp orphan (swept on the next open) rather than a torn
// component at a live name.
const componentTmpSuffix = ".tmp"

func componentName(seq, lo, gen uint64) string {
	if gen == 0 {
		return fmt.Sprintf("c%d.cmp", seq)
	}
	if lo != seq {
		return fmt.Sprintf("c%d-%dm%d.cmp", seq, lo, gen)
	}
	return fmt.Sprintf("c%dm%d.cmp", seq, gen)
}

// parseComponentName inverts componentName. Names without a range
// (flushed components, and merge outputs from before ranges existed)
// parse with lo == seq.
func parseComponentName(name string) (seq, lo, gen uint64, ok bool) {
	if !strings.HasPrefix(name, "c") || !strings.HasSuffix(name, ".cmp") {
		return 0, 0, 0, false
	}
	body := name[1 : len(name)-4]
	if i := strings.IndexByte(body, 'm'); i >= 0 {
		g, err := strconv.ParseUint(body[i+1:], 10, 64)
		if err != nil {
			return 0, 0, 0, false
		}
		gen = g
		body = body[:i]
	}
	if i := strings.IndexByte(body, '-'); i >= 0 {
		l, err := strconv.ParseUint(body[i+1:], 10, 64)
		if err != nil || gen == 0 {
			return 0, 0, 0, false
		}
		lo = l
		body = body[:i]
	}
	s, err := strconv.ParseUint(body, 10, 64)
	if err != nil {
		return 0, 0, 0, false
	}
	if lo == 0 || lo > s {
		lo = s
	}
	return s, lo, gen, true
}

// OpenLSM opens (or creates) the LSM tree stored in dir. Existing
// components are recovered in recency order: seq (rotation order)
// first, then merge generation. Recovery after an unclean stop repairs
// the directory rather than failing: a component whose [lo, seq] range
// is contained in an already-accepted (newer) component's range is a
// merge leftover and is deleted; a component that does not open —
// a flush or merge output torn mid-write — is quarantined (renamed
// *.bad) and its data recovered from the surviving inputs or the WAL.
// When a WAL is attached, the tree's checkpointed-but-unflushed ops
// replay into the memtable before the tree is returned.
func OpenLSM(dir string, opts LSMOptions) (*LSMTree, error) {
	o := opts.withDefaults()
	if err := o.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("storage: open lsm: %w", err)
	}
	t := &LSMTree{dir: dir, opts: o, fs: o.FS, mem: newMemtable(), nextSeq: 1, nextGen: 1}
	t.cond = sync.NewCond(&t.mu)
	if o.Maintenance != nil {
		t.sched = o.Maintenance
	} else {
		t.sched = NewScheduler(1)
		t.ownSched = true
	}
	names, err := o.FS.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type seqPath struct {
		seq, lo, gen uint64
		path         string
	}
	var found []seqPath
	dirty := false // namespace repairs pending a directory sync
	for _, name := range names {
		if strings.HasSuffix(name, componentTmpSuffix) {
			// A writer died between Create and the install rename.
			o.FS.Remove(filepath.Join(dir, name))
			dirty = true
			continue
		}
		seq, lo, gen, ok := parseComponentName(name)
		if !ok {
			continue
		}
		found = append(found, seqPath{seq, lo, gen, filepath.Join(dir, name)})
		// Never reuse a seen name, even a quarantined one's.
		if seq >= t.nextSeq {
			t.nextSeq = seq + 1
		}
		if gen >= t.nextGen {
			t.nextGen = gen + 1
		}
	}
	sort.Slice(found, func(i, j int) bool { // newest first
		if found[i].seq != found[j].seq {
			return found[i].seq > found[j].seq
		}
		return found[i].gen > found[j].gen
	})
	type failedOpen struct {
		sp  seqPath
		err error
	}
	var failed []failedOpen
	for _, sp := range found {
		superseded := false
		for _, acc := range t.components {
			if sp.lo >= acc.lo && sp.seq <= acc.seq {
				superseded = true
				break
			}
		}
		if superseded {
			// A merge leftover: its whole range is covered by an accepted
			// newer output (possible only after an unclean stop).
			o.FS.Remove(sp.path)
			dirty = true
			continue
		}
		c, err := OpenComponentFS(o.FS, sp.path, o.Cache)
		if err != nil {
			failed = append(failed, failedOpen{sp, err})
			continue
		}
		c.seq, c.gen, c.lo = sp.seq, sp.gen, sp.lo
		t.components = append(t.components, c)
	}
	for _, f := range failed {
		// A component that does not open is quarantined only when its
		// data survives elsewhere: a torn merge output's rotation range
		// is covered by its still-present inputs, and a torn flush
		// output's ops are still in the WAL. The latter is proven by the
		// flush-begin record this component's flush logged: its maxLSN
		// lies above the tree's durable checkpoint iff none of the
		// component's ops were checkpointed away (checkpoints advance
		// only after a successful install plus directory sync). Anything
		// else — e.g. bit rot of a long-checkpointed sole copy — must
		// surface, not silently vanish.
		recoverable := t.rangeCoveredLocked(f.sp.lo, f.sp.seq)
		if !recoverable && o.WAL != nil && o.WALTree != "" {
			recoverable = o.WAL.FlushCovered(o.WALTree, f.sp.seq)
		}
		if !recoverable {
			t.closeComponents()
			return nil, fmt.Errorf("storage: open lsm %s: component %s: %w",
				dir, filepath.Base(f.sp.path), f.err)
		}
		if rerr := o.FS.Rename(f.sp.path, f.sp.path+".bad"); rerr != nil {
			o.FS.Remove(f.sp.path)
		}
		dirty = true
		quarantinedC.Inc()
	}
	if dirty {
		if err := o.FS.SyncDir(dir); err != nil {
			t.closeComponents()
			return nil, fmt.Errorf("storage: open lsm %s: sync dir: %w", dir, err)
		}
	}
	if o.WAL != nil {
		t.wal = o.WAL
		t.walTree = o.WALTree
		if t.walTree == "" {
			t.closeComponents()
			return nil, fmt.Errorf("storage: open lsm %s: WAL set without WALTree", dir)
		}
		for _, op := range o.WAL.Attach(t.walTree) {
			if op.Tombstone {
				t.mem.del(op.Key)
			} else {
				t.mem.put(op.Key, op.Val)
			}
			if t.memMinLSN == 0 {
				t.memMinLSN = op.LSN
			}
			t.memMaxLSN = op.LSN
		}
		if t.mem.sizeBytes() >= o.MemBudgetBytes {
			t.rotateLocked() // no concurrency yet; schedules a background flush
		}
	}
	return t, nil
}

// rangeCoveredLocked reports whether every rotation seq in [lo, seq] is
// covered by some accepted component's range.
func (t *LSMTree) rangeCoveredLocked(lo, seq uint64) bool {
	next := lo
	for next <= seq {
		advanced := false
		for _, c := range t.components {
			if c.lo <= next && next <= c.seq {
				next = c.seq + 1
				advanced = true
				if next == 0 { // c.seq was MaxUint64
					return true
				}
			}
		}
		if !advanced {
			return false
		}
	}
	return true
}

func (t *LSMTree) closeComponents() {
	for _, c := range t.components {
		c.Close()
	}
	t.components = nil
}

// Close quiesces background maintenance, flushes every memtable
// generation (rotated and active) so acknowledged writes are durable,
// and closes all components. Idempotent. A WAL-attached tree must be
// closed before its WAL: the final flush checkpoints through the
// still-open log.
func (t *LSMTree) Close() error {
	if t.wal != nil {
		// Block in-flight CommitGroups: an op must not land in the
		// memtable after the final flush below has drained it.
		t.wal.commitMu.Lock()
		defer t.wal.commitMu.Unlock()
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()

	// In-flight maintenance observes the closed flag (or finishes its
	// current install, which is still safe: the component list is not
	// torn down until below) and exits.
	t.bg.Wait()

	t.mu.Lock()
	err := t.lastErr
	pendingFlushG.Add(-int64(len(t.imms)))
	if err == nil {
		// Final synchronous flush, oldest generation first, then the
		// active memtable.
		for len(t.imms) > 0 && err == nil {
			im := t.imms[len(t.imms)-1]
			var c *Component
			if c, err = t.writeMemtable(im); err == nil {
				t.components = append([]*Component{c}, t.components...)
				t.imms = t.imms[:len(t.imms)-1]
				if t.wal != nil && im.maxLSN > 0 {
					t.wal.Checkpoint(t.walTree, im.maxLSN)
				}
			}
		}
		if err == nil && t.mem.len() > 0 {
			im := &immMem{mt: t.mem, seq: t.nextSeq, minLSN: t.memMinLSN, maxLSN: t.memMaxLSN}
			t.nextSeq++
			t.mem = newMemtable()
			t.memMinLSN, t.memMaxLSN = 0, 0
			var c *Component
			if c, err = t.writeMemtable(im); err == nil {
				t.components = append([]*Component{c}, t.components...)
				if t.wal != nil && im.maxLSN > 0 {
					t.wal.Checkpoint(t.walTree, im.maxLSN)
				}
			}
		}
	}
	t.closeComponents()
	t.mu.Unlock()
	if t.ownSched {
		t.sched.Close()
	}
	return err
}

// Put inserts or replaces a key. It never performs disk I/O: at worst
// it rotates the full memtable into the background flush queue, and
// stalls only when maintenance has fallen behind the configured
// thresholds.
func (t *LSMTree) Put(key, value []byte) error {
	return t.commit([]GroupWrite{{Tree: t, Key: key, Val: value}})
}

// Delete removes a key (writes a tombstone). Like Put, it never
// performs disk I/O on the caller's goroutine.
func (t *LSMTree) Delete(key []byte) error {
	return t.commit([]GroupWrite{{Tree: t, Key: key, Tombstone: true}})
}

// PutMulti applies several puts as one group — one stall check, one
// lock acquisition and, on a logged tree, one commit record: the shape
// of a secondary-index insert, where one record expands to many small
// (token, pk) entries. values may be nil, meaning every key maps to a
// nil value. The memtable may overshoot its budget by the group's
// footprint before rotating.
func (t *LSMTree) PutMulti(keys [][]byte, values [][]byte) error {
	if len(keys) == 0 {
		return nil
	}
	writes := make([]GroupWrite, len(keys))
	for i, k := range keys {
		writes[i] = GroupWrite{Tree: t, Key: k}
		if values != nil {
			writes[i].Val = values[i]
		}
	}
	return t.commit(writes)
}

// commit lands one single-tree group through CommitGroups and, on a
// logged tree in commit mode, waits for its fsync before acknowledging.
func (t *LSMTree) commit(writes []GroupWrite) error {
	lsns, err := CommitGroups(t.wal, [][]GroupWrite{writes})
	if err != nil || t.wal == nil {
		return err
	}
	return t.wal.WaitDurable(lsns[0])
}

// writableLocked rejects writes to a closed or failed tree and applies
// stall backpressure.
func (t *LSMTree) writableLocked() error {
	if t.closed {
		return fmt.Errorf("storage: write to closed tree %s", t.dir)
	}
	if t.lastErr != nil {
		return t.lastErr
	}
	return t.stallLocked()
}

// applyLocked lands one group's run of writes to this tree in its
// active memtable, tracking the LSN bounds a later flush will sync and
// checkpoint (lsn is 0, and stays 0, on a tree without a log). Caller
// holds t.mu and, for a logged tree, the WAL's commitMu. Recovery
// replay aside, this is the only place a write enters a memtable.
func (t *LSMTree) applyLocked(run []GroupWrite, lsn uint64) {
	for _, wr := range run {
		if wr.Tombstone {
			t.mem.del(wr.Key)
		} else {
			t.mem.put(wr.Key, wr.Val)
		}
	}
	if t.memMinLSN == 0 {
		t.memMinLSN = lsn
	}
	t.memMaxLSN = lsn
	if t.mem.sizeBytes() >= t.opts.MemBudgetBytes {
		t.rotateLocked()
	}
}

// GroupWrite is one tree's write inside an atomic cross-tree commit.
type GroupWrite struct {
	Tree      *LSMTree
	Key, Val  []byte
	Tombstone bool
}

// CommitGroups is the one write path into memtables. Each group — a
// primary row and its secondary-index postings, or a single Put — is
// applied to its trees' memtables as a unit; many independent groups
// commit in one pass. Every distinct tree is checked (closed, sticky
// maintenance error, stall backpressure) before the first memtable is
// touched, so a refused commit leaves nothing behind.
//
// With a log (every tree attached to w), each group gets its own commit
// record and LSN, so recovery replays it entirely or not at all and the
// trees stay mutually consistent across a crash, while LSN assignment,
// the log append and the syncer wakeup happen once for the whole batch —
// per-record appends would drain the log as thousands of tiny segment
// writes. It does not wait for durability: callers acknowledge after
// WaitDurable on the last returned LSN, letting a batch share one fsync.
//
// With w == nil the trees have no log: nothing is appended and every
// LSN is 0. Such writes are durable only once flushed.
//
// Returns one LSN per group, in order.
func CommitGroups(w *WAL, groups [][]GroupWrite) ([]uint64, error) {
	if len(groups) == 0 {
		return nil, nil
	}
	if w != nil {
		w.commitMu.Lock()
		defer w.commitMu.Unlock()
	}
	total := 0
	var checked [4]*LSMTree // groups touch few distinct trees
	seen := checked[:0]
	for gi, writes := range groups {
		if len(writes) == 0 {
			return nil, fmt.Errorf("storage: CommitGroups: empty group %d", gi)
		}
		total += len(writes)
		for _, wr := range writes {
			if slices.Contains(seen, wr.Tree) {
				continue
			}
			seen = append(seen, wr.Tree)
			if wr.Tree.wal != w {
				return nil, fmt.Errorf("storage: CommitGroups: tree %s is not attached to the committing log", wr.Tree.dir)
			}
			// Releasing the lock after the stall clears is safe on the
			// logged path: all writers to these trees serialize on
			// commitMu, so only flushes (which shrink, never grow) can
			// touch them before the apply below. Log-less writers do not
			// serialize, so there the stall thresholds are soft by the
			// number of concurrent writers.
			wr.Tree.mu.Lock()
			err := wr.Tree.writableLocked()
			wr.Tree.mu.Unlock()
			if err != nil {
				return nil, err
			}
		}
	}
	lsns := make([]uint64, len(groups))
	if w != nil {
		// One backing array for every group's ops: per-group slices would
		// cost an allocation per record on the batched-ingest hot path.
		opsBuf := make([]walOp, 0, total)
		opGroups := make([][]walOp, len(groups))
		for gi, writes := range groups {
			start := len(opsBuf)
			for _, wr := range writes {
				opsBuf = append(opsBuf, walOp{tree: wr.Tree.walTree, key: wr.Key, val: wr.Val, tombstone: wr.Tombstone})
			}
			opGroups[gi] = opsBuf[start:len(opsBuf):len(opsBuf)]
		}
		first, err := w.appendOpsBatch(opGroups)
		if err != nil {
			return nil, err
		}
		for gi := range lsns {
			lsns[gi] = first + uint64(gi)
		}
	}
	// Apply with the tree lock held across consecutive runs of the same
	// tree — for a chunk of single-tree groups this is one lock
	// acquisition per chunk instead of one per record.
	var cur *LSMTree
	for gi, writes := range groups {
		for i := 0; i < len(writes); {
			j := i
			for j < len(writes) && writes[j].Tree == writes[i].Tree {
				j++
			}
			tr := writes[i].Tree
			if tr != cur {
				if cur != nil {
					cur.mu.Unlock()
				}
				tr.mu.Lock()
				cur = tr
				// A logged tree's Close holds commitMu, so it cannot have
				// closed since the check above; a log-less tree's can.
				// Its final flush has then drained the memtable, and a
				// write landed now would be acknowledged and lost.
				if w == nil && tr.closed {
					tr.mu.Unlock()
					return nil, fmt.Errorf("storage: write to closed tree %s", tr.dir)
				}
			}
			tr.applyLocked(writes[i:j], lsns[gi])
			i = j
		}
	}
	if cur != nil {
		cur.mu.Unlock()
	}
	return lsns, nil
}

// stallLocked applies write backpressure: it blocks while rotated
// memtables or disk components have piled past their thresholds and
// maintenance is still able to make progress.
func (t *LSMTree) stallLocked() error {
	if len(t.imms) < t.opts.MaxImmutable && len(t.components) < 4*t.opts.MaxComponents {
		return nil
	}
	stallCount.Inc()
	start := time.Now()
	defer func() { stallNs.Observe(time.Since(start).Nanoseconds()) }()
	for {
		if t.closed {
			return fmt.Errorf("storage: write to closed tree %s", t.dir)
		}
		if t.lastErr != nil {
			return t.lastErr
		}
		if len(t.imms) < t.opts.MaxImmutable && len(t.components) < 4*t.opts.MaxComponents {
			return nil
		}
		t.scheduleFlushLocked()
		t.maybeScheduleMergeLocked()
		if !t.flushScheduled && !t.mergeActive {
			// Nothing can make progress: admit the write rather than
			// deadlock.
			return nil
		}
		t.cond.Wait()
	}
}

// rotateLocked moves the active memtable into the immutable flush
// queue, stamping it with the component seq its flush will use, and
// schedules a background flush.
func (t *LSMTree) rotateLocked() {
	if t.mem.len() == 0 {
		return
	}
	t.imms = append([]*immMem{{
		mt: t.mem, seq: t.nextSeq,
		minLSN: t.memMinLSN, maxLSN: t.memMaxLSN,
	}}, t.imms...)
	t.nextSeq++
	t.mem = newMemtable()
	t.memMinLSN, t.memMaxLSN = 0, 0
	rotateCount.Inc()
	pendingFlushG.Add(1)
	t.scheduleFlushLocked()
}

// scheduleFlushLocked queues the flush task unless one is already
// queued or running.
func (t *LSMTree) scheduleFlushLocked() {
	if t.flushScheduled || t.closed || t.lastErr != nil || len(t.imms) == 0 {
		return
	}
	t.flushScheduled = true
	t.bg.Add(1)
	if !t.sched.Submit(t.flushTask) {
		// Scheduler already closed (tree torn down out of order):
		// Close's final synchronous flush picks the memtables up.
		t.flushScheduled = false
		t.bg.Done()
	}
}

// flushTask drains the immutable-memtable queue oldest-first, so every
// installed component is newer than all disk components beneath it.
// One flush task runs per tree at a time; parallelism comes from
// flushing many trees (partitions) at once on the shared scheduler.
func (t *LSMTree) flushTask() {
	defer t.bg.Done()
	for {
		t.mu.Lock()
		if t.closed || t.lastErr != nil || len(t.imms) == 0 {
			t.flushScheduled = false
			t.maybeScheduleMergeLocked()
			t.cond.Broadcast()
			t.mu.Unlock()
			return
		}
		im := t.imms[len(t.imms)-1]
		delay := t.testFlushDelay
		t.mu.Unlock()

		if delay != nil {
			delay()
		}
		c, err := t.writeMemtable(im)

		t.mu.Lock()
		if err != nil {
			t.setErrLocked(err)
			t.flushScheduled = false
			t.cond.Broadcast()
			t.mu.Unlock()
			return
		}
		t.components = append([]*Component{c}, t.components...)
		// Nil the slot before reslicing: the backing array would otherwise
		// keep the flushed memtable reachable until the next rotation.
		t.imms[len(t.imms)-1] = nil
		t.imms = t.imms[:len(t.imms)-1]
		pendingFlushG.Add(-1)
		if t.wal != nil && im.maxLSN > 0 {
			// The flushed prefix is on disk: the WAL may skip it at
			// replay and retire segments wholly below it.
			t.wal.Checkpoint(t.walTree, im.maxLSN)
		}
		t.cond.Broadcast()
		t.mu.Unlock()
	}
}

// setErrLocked records the first background-maintenance failure and
// counts the transition in the storage.maintenance.failed gauge (the
// number of trees wedged on a sticky error).
func (t *LSMTree) setErrLocked(err error) {
	if t.lastErr == nil && err != nil {
		t.lastErr = err
		maintFailedG.Add(1)
	}
}

// writeMemtable writes one immutable memtable to a new disk component.
// The memtable is frozen, so no lock is needed while writing. For a
// WAL-attached tree it first logs a flush-begin record and syncs the
// log through it (log-ahead-of-data): a component must never hold ops
// whose WAL record could be lost, or a crash would break the
// cross-tree atomicity the shared log provides. The durable
// flush-begin also binds this component's seq to its LSN range so
// recovery can prove whether replay covers a torn install. The install
// rename is followed by a directory sync — only then may the
// checkpoint retire the flushed prefix, or a power loss could drop the
// renamed entry after the checkpoint became durable.
func (t *LSMTree) writeMemtable(im *immMem) (*Component, error) {
	start := time.Now()
	if t.wal != nil && im.maxLSN > 0 {
		fb, err := t.wal.FlushBegin(t.walTree, im.seq, im.maxLSN)
		if err != nil {
			return nil, err
		}
		if err := t.wal.SyncThrough(fb); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(t.dir, componentName(im.seq, im.seq, 0))
	cw, err := t.newComponentSink(path + componentTmpSuffix)
	if err != nil {
		return nil, err
	}
	if err := writeEntries(cw, []*memtable{im.mt}, nil, false); err != nil {
		return nil, err
	}
	if err := cw.Finish(); err != nil {
		return nil, err
	}
	if err := t.fs.Rename(path+componentTmpSuffix, path); err != nil {
		return nil, err
	}
	if err := t.fs.SyncDir(t.dir); err != nil {
		return nil, err
	}
	c, err := OpenComponentFS(t.fs, path, t.opts.Cache)
	if err != nil {
		return nil, err
	}
	c.seq, c.lo = im.seq, im.seq
	flushCount.Inc()
	flushNs.Observe(time.Since(start).Nanoseconds())
	flushBytes.Observe(c.SizeBytes())
	trace.Default().Event("flush", trace.CatStorage, t.dir, start, time.Since(start),
		trace.I("bytes", c.SizeBytes()), trace.I("entries", c.Len()))
	return c, nil
}

// writeEntries adds to cw, in key order, the newest version of every key
// in the given memtable generations and components — what one Cursor
// over them yields with tombstones surfaced. A tombstone is written like
// any entry, so that it keeps shadowing what lies below the new
// component, unless dropTombstones says nothing does. On error the sink
// is aborted.
func writeEntries(cw componentSink, mems []*memtable, comps []*Component, dropTombstones bool) error {
	c := openCursors([]KeyRange{{}}, mems, comps, nil, nil, true)[0]
	defer c.Close()
	for c.Next() {
		if dropTombstones && c.cur.dead {
			continue
		}
		if err := cw.Add(c.key, c.entry()); err != nil {
			cw.Abort()
			return err
		}
	}
	if c.err != nil {
		cw.Abort()
	}
	return c.err
}

// Flush synchronously forces every memtable generation to disk: it
// rotates the active memtable and waits for the background flusher to
// drain the queue.
func (t *LSMTree) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushSyncLocked()
}

func (t *LSMTree) flushSyncLocked() error {
	if t.closed {
		return fmt.Errorf("storage: flush of closed tree %s", t.dir)
	}
	t.rotateLocked()
	for len(t.imms) > 0 {
		if t.lastErr != nil {
			return t.lastErr
		}
		if t.closed {
			return fmt.Errorf("storage: flush of closed tree %s", t.dir)
		}
		t.scheduleFlushLocked()
		t.cond.Wait()
	}
	return t.lastErr
}

// Quiesce blocks until this tree has no pending background
// maintenance: the flush queue is drained and the merge policy is
// satisfied. Shutdown paths and tests use it to make the tree's shape
// deterministic before inspecting or tearing down components.
func (t *LSMTree) Quiesce() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.closed {
			return nil
		}
		if t.lastErr != nil {
			return t.lastErr
		}
		t.scheduleFlushLocked()
		t.maybeScheduleMergeLocked()
		if len(t.imms) == 0 && !t.flushScheduled && !t.mergeActive {
			return nil
		}
		t.cond.Wait()
	}
}

// maybeScheduleMergeLocked queues the merge task when the component
// count exceeds MaxComponents and no merge is already in flight.
func (t *LSMTree) maybeScheduleMergeLocked() {
	if t.mergeActive || t.closed || t.lastErr != nil {
		return
	}
	if len(t.components) <= t.opts.MaxComponents {
		return
	}
	t.mergeActive = true
	pendingMergeG.Add(1)
	t.bg.Add(1)
	if !t.sched.Submit(t.mergeTask) {
		t.mergeActive = false
		pendingMergeG.Add(-1)
		t.bg.Done()
	}
}

// mergeTask merges every disk component into one in the background.
func (t *LSMTree) mergeTask() {
	defer t.bg.Done()
	t.mu.Lock()
	if t.closed || t.lastErr != nil || len(t.components) <= t.opts.MaxComponents {
		t.finishMergeLocked()
		t.mu.Unlock()
		return
	}
	inputs := append([]*Component(nil), t.components...)
	delay := t.testMergeDelay
	t.mu.Unlock()

	err := t.mergeComponents(inputs, delay)

	t.mu.Lock()
	t.setErrLocked(err)
	t.finishMergeLocked()
	t.maybeScheduleMergeLocked() // flushes during the merge may call for another
	t.mu.Unlock()
}

func (t *LSMTree) finishMergeLocked() {
	t.mergeActive = false
	pendingMergeG.Add(-1)
	t.cond.Broadcast()
}

// mergeComponents merges inputs, every disk component the tree held
// when the merge began, into one component, installs it in the inputs'
// place, and retires the inputs. Tombstones are dropped: nothing older
// than the inputs can resurface. Runs without the tree lock except for
// the install; concurrent flushes may prepend newer components
// meanwhile, which the positional install tolerates.
func (t *LSMTree) mergeComponents(inputs []*Component, delay func()) error {
	start := time.Now()
	seq := inputs[0].seq
	lo := inputs[len(inputs)-1].lo
	t.mu.Lock()
	gen := t.nextGen
	t.nextGen++
	t.mu.Unlock()

	path := filepath.Join(t.dir, componentName(seq, lo, gen))
	cw, err := t.newComponentSink(path + componentTmpSuffix)
	if err != nil {
		return err
	}
	if err := writeEntries(cw, nil, inputs, true); err != nil {
		return err
	}
	if delay != nil {
		delay()
	}
	if err := cw.Finish(); err != nil {
		return err
	}
	if err := t.fs.Rename(path+componentTmpSuffix, path); err != nil {
		return err
	}
	if err := t.fs.SyncDir(t.dir); err != nil {
		return err
	}
	c, err := OpenComponentFS(t.fs, path, t.opts.Cache)
	if err != nil {
		return err
	}
	c.seq, c.gen, c.lo = seq, gen, lo

	t.mu.Lock()
	i := 0
	for i < len(t.components) && t.components[i] != inputs[0] {
		i++
	}
	if i+len(inputs) > len(t.components) {
		// The inputs are no longer a contiguous span of the list: the
		// tree was mutated in a way only shutdown can cause. Discard
		// the merge output rather than corrupt the list.
		t.mu.Unlock()
		c.Remove()
		return nil
	}
	newList := make([]*Component, 0, len(t.components)-len(inputs)+1)
	newList = append(newList, t.components[:i]...)
	newList = append(newList, c)
	newList = append(newList, t.components[i+len(inputs):]...)
	t.components = newList
	t.cond.Broadcast()
	t.mu.Unlock()

	var firstErr error
	for _, oc := range inputs {
		if err := oc.Remove(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	mergeCount.Inc()
	mergeNs.Observe(time.Since(start).Nanoseconds())
	trace.Default().Event("merge", trace.CatStorage, t.dir, start, time.Since(start),
		trace.I("inputs", int64(len(inputs))), trace.I("bytes", c.SizeBytes()))
	return firstErr
}

// Merge forces a full compaction: flush everything, then merge every
// disk component into one. It waits for any in-flight background merge
// first and runs the compaction on the caller's goroutine.
func (t *LSMTree) Merge() error {
	t.mu.Lock()
	if err := t.flushSyncLocked(); err != nil {
		t.mu.Unlock()
		return err
	}
	for t.mergeActive {
		t.cond.Wait()
		if t.closed || t.lastErr != nil {
			err := t.lastErr
			t.mu.Unlock()
			return err
		}
	}
	if len(t.components) <= 1 {
		t.mu.Unlock()
		return nil
	}
	t.mergeActive = true
	pendingMergeG.Add(1)
	inputs := append([]*Component(nil), t.components...)
	delay := t.testMergeDelay
	t.mu.Unlock()

	err := t.mergeComponents(inputs, delay)

	t.mu.Lock()
	t.setErrLocked(err)
	t.finishMergeLocked()
	t.mu.Unlock()
	return err
}

// decodeEntry splits a component entry into its value and its leading
// tombstone flag byte (Cursor.entry is the encoder).
func decodeEntry(v []byte) (value []byte, tombstone bool) {
	if len(v) == 0 {
		return nil, true
	}
	return v[1:], v[0] == 1
}

// Get returns the newest value for key, consulting the memtable
// generations first and then disk components newest-first through
// their bloom filters. It holds the tree lock only while acquiring a
// snapshot.
func (t *LSMTree) Get(key []byte) ([]byte, bool, error) {
	s := t.Snapshot()
	defer s.Close()
	return s.Get(key)
}

// Scan calls fn for each live (key, value) with key in [start, end) in
// key order, merging every memtable generation and all components. fn
// must not retain its arguments. Iteration stops early if fn returns
// false. fn runs with no tree lock held — it may take arbitrarily long
// without blocking writers.
func (t *LSMTree) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	_, err := t.ScanProjectedContext(nil, start, end, nil, nil, fn)
	return err
}

// ScanProjectedContext is TreeSnapshot.ScanProjected over a snapshot
// taken for the scan: cooperative cancellation — once ctx is cancelled
// the scan stops within a few hundred rows read and returns ctx's error;
// a nil ctx never cancels — a projection onto the named top-level record
// fields, under which fn receives values guaranteed to contain at least
// those fields (it must not assume the others are absent; a nil fields
// slice scans everything), and an optional row filter. It returns the
// number of rows read.
func (t *LSMTree) ScanProjectedContext(ctx context.Context, start, end []byte, fields []string, filter *RowFilter, fn func(key, value []byte) bool) (int64, error) {
	s := t.Snapshot()
	defer s.Close()
	return s.ScanProjected(ctx, start, end, fields, filter, fn)
}

// BulkLoad streams pre-sorted entries directly into a single on-disk
// component, bypassing the memtable — the fast path dataset and index
// builds use (AsterixDB bulk-loads secondary indexes the same way).
// next must yield strictly increasing keys and return ok=false at the
// end. The tree must be empty.
func (t *LSMTree) BulkLoad(next func() (key, value []byte, ok bool, err error)) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mem.len() != 0 || len(t.imms) != 0 || len(t.components) != 0 {
		return fmt.Errorf("storage: bulk load into non-empty tree")
	}
	path := filepath.Join(t.dir, componentName(t.nextSeq, t.nextSeq, 0))
	cw, err := t.newComponentSink(path + componentTmpSuffix)
	if err != nil {
		return err
	}
	n := 0
	for {
		k, v, ok, err := next()
		if err != nil {
			cw.Abort()
			return err
		}
		if !ok {
			break
		}
		entry := make([]byte, 1+len(v))
		copy(entry[1:], v)
		if err := cw.Add(k, entry); err != nil {
			cw.Abort()
			return err
		}
		n++
	}
	if n == 0 {
		cw.Abort()
		return nil
	}
	if err := cw.Finish(); err != nil {
		return err
	}
	if err := t.fs.Rename(path+componentTmpSuffix, path); err != nil {
		return err
	}
	if err := t.fs.SyncDir(t.dir); err != nil {
		return err
	}
	c, err := OpenComponentFS(t.fs, path, t.opts.Cache)
	if err != nil {
		return err
	}
	c.seq, c.lo = t.nextSeq, t.nextSeq
	t.components = []*Component{c}
	t.nextSeq++
	return nil
}

// Stats describes the tree's current shape.
type Stats struct {
	MemEntries     int   // active memtable
	MemBytes       int64 // active memtable footprint
	ImmMemtables   int   // rotated memtables awaiting flush
	ImmEntries     int   // entries across rotated memtables
	ImmBytes       int64 // footprint across rotated memtables
	DiskComponents int
	DiskEntries    int64
	DiskBytes      int64
}

// Stats returns a snapshot of the tree's shape and footprint; Table 5's
// index sizes come from DiskBytes.
func (t *LSMTree) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := Stats{
		MemEntries:     t.mem.len(),
		MemBytes:       t.mem.sizeBytes(),
		ImmMemtables:   len(t.imms),
		DiskComponents: len(t.components),
	}
	for _, im := range t.imms {
		s.ImmEntries += im.mt.len()
		s.ImmBytes += im.mt.sizeBytes()
	}
	for _, c := range t.components {
		s.DiskEntries += c.Len()
		s.DiskBytes += c.SizeBytes()
	}
	return s
}

// Readers returns the references open snapshots hold on the tree's
// current disk components, summed over the components: 0 when no
// snapshot reads one.
func (t *LSMTree) Readers() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var n int64
	for _, c := range t.components {
		n += int64(c.refs.Load()) - 1
	}
	return n
}

// Len returns the approximate number of live entries (disk entries may
// include shadowed versions until a merge).
func (t *LSMTree) Len() int64 {
	s := t.Stats()
	return int64(s.MemEntries) + int64(s.ImmEntries) + s.DiskEntries
}
