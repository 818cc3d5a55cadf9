package cluster

import (
	"sync"
	"sync/atomic"

	"simdb/internal/algebra"
	"simdb/internal/hyracks"
)

// The join memo: hash tables a join built, kept per partition across
// queries. The optimizer puts a memo over an input of the three-stage
// join's hash joins where that input reads nothing but one dataset's
// stored records: stage 1's token order, which the rank joins broadcast
// and build on, and the bare side's prefix tuples, which the prefix join
// reads. It keys each by what the input computes —
// order(dataset, token expression) and ranked(dataset, token expression,
// threshold) — so every query with that key can probe the tables a
// former join kept instead of running the input and building them
// again. Job generation decides which join builds on a memo: one whose
// memo hits or is captured; any other builds on the side the optimizer
// chose, so a job that keeps nothing runs the plan it would without the
// memo.
//
// An entry is valid for one data version of its dataset: the number of
// InsertBatch calls that had finished, with none in flight, when the job
// that captured it was generated. DDL is covered by the catalog epoch,
// and the catalog frees the entries of older epochs whenever it moves.
// Job generation reads each dataset's version once and resolves every
// memo of that dataset against that one reading, so the entries a job
// probes and the tables it keeps agree on the version. It probes an
// entry only when the dataset was quiet at that version; a job stores
// the tables its joins kept only when every one was kept (no build side
// spilled) and no write to the dataset began during the job. A key whose
// tables could not be kept is marked, and no job tries again at that
// epoch and version unless a build side spilled and the job's memory
// budget is larger: the side the memo sits on can be the larger one,
// and building it only pays when the table is kept. The rest of
// the job reads the live records, so a job that probed an entry and
// overlapped the start of a write is run again without the memo
// (runJob): its outer side could hold tokens the kept order lacks.
// The memo is per process, so it is off under the tcp transport: there a
// worker compiles and generates its half of the job by itself.
//
// A kept table's bytes stay charged to the capturing query's budget
// until that query ends; once stored they are held outside the cluster's
// memory budget, bounded by memoByteCap alone.

// memoByteCap bounds the bytes the memo holds over all its entries.
const memoByteCap = 32 << 20

// dataVersion counts one dataset's write batches: begun when a batch
// starts, ended when it returns. They are equal exactly when no batch is
// in flight, and then ended is the data version.
type dataVersion struct {
	begun, ended atomic.Uint64
}

// quiet returns the data version and whether no write is in flight.
// ended is read first: a begun equal to it afterwards means every batch
// that had begun by then had also ended.
func (v *dataVersion) quiet() (uint64, bool) {
	e := v.ended.Load()
	return e, v.begun.Load() == e
}

// dataVersion returns the write counters of a dataset.
func (c *Cluster) dataVersion(dv, ds string) *dataVersion {
	key := dsKey(dv, ds)
	if v, ok := c.versions.Load(key); ok {
		return v.(*dataVersion)
	}
	v, _ := c.versions.LoadOrStore(key, &dataVersion{})
	return v.(*dataVersion)
}

// memoEntry is one key's kept build side: tables[p] is the table
// partition p probes, or tables[0] is every partition's when the join
// broadcast its build side. ds names the dataset (dsKey). spilledAt is
// the memory budget a build side spilled under, on an entry left a table
// short and on its unkept mark; a mark of 0 is tables the memo had no
// room for, which no budget changes.
type memoEntry struct {
	ds             string
	epoch, version uint64
	tables         []*hyracks.JoinTable
	bytes          int64
	spilledAt      int64
}

// table returns the table partition part probes.
func (e *memoEntry) table(part int) *hyracks.JoinTable {
	if len(e.tables) == 1 {
		return e.tables[0]
	}
	return e.tables[part]
}

// memoStore holds one entry per key, at most memoByteCap bytes in all.
// unkept marks the keys whose tables a job could not keep (a build side
// spilled, or the tables would take the memo over memoByteCap), at the
// epoch and data version it tried: no job tries again before either
// moves. epoch is the newest catalog epoch purge was given: no entry or
// mark of an older one is kept.
type memoStore struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	unkept  map[string]*memoEntry
	bytes   int64
	epoch   uint64

	hits, misses, reruns atomic.Int64
}

func newMemoStore() *memoStore {
	return &memoStore{entries: map[string]*memoEntry{}, unkept: map[string]*memoEntry{}}
}

// get returns key's entry if it was captured at epoch and version, and
// counts a hit or a miss. On a miss, keep reports whether a job running
// under budget (0 unlimited) may try to keep key's tables: not if a job
// at the same epoch and version could not, unless that job spilled under
// a smaller budget. An entry or mark of another epoch or version is
// never served again (both only grow) and is dropped.
func (s *memoStore) get(key string, epoch, version uint64, budget int64) (e *memoEntry, keep bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stale := func(e *memoEntry) bool { return e != nil && (e.epoch != epoch || e.version != version) }
	if e = s.entries[key]; stale(e) {
		s.drop(key, e)
		e = nil
	}
	if m := s.unkept[key]; stale(m) {
		delete(s.unkept, key)
	}
	if e == nil {
		s.misses.Add(1)
		m := s.unkept[key]
		return nil, m == nil || m.spilledAt != 0 && (budget == 0 || budget > m.spilledAt)
	}
	s.hits.Add(1)
	return e, false
}

// put stores e as key's entry, replacing the one it had, and drops the
// entries and marks of e's dataset at older data versions, which no job
// serves again. It keeps nothing of an epoch purge has passed, and marks
// key unkept instead of storing e if e would take the memo over
// memoByteCap.
func (s *memoStore) put(key string, e *memoEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, old := range s.entries {
		if k == key || old.ds == e.ds && old.version < e.version {
			s.drop(k, old)
		}
	}
	for k, old := range s.unkept {
		if old.ds == e.ds && old.version < e.version {
			delete(s.unkept, k)
		}
	}
	if e.epoch < s.epoch {
		return
	}
	if e.tables == nil || s.bytes+e.bytes > memoByteCap {
		s.unkept[key] = &memoEntry{ds: e.ds, epoch: e.epoch, version: e.version, spilledAt: e.spilledAt}
		return
	}
	s.entries[key] = e
	s.bytes += e.bytes
}

// purge frees every entry and mark of a catalog epoch older than epoch.
// The catalog calls it whenever DDL moves the epoch: a dropped dataset's
// entries go with it.
func (s *memoStore) purge(epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch = max(s.epoch, epoch)
	for k, e := range s.entries {
		if e.epoch < s.epoch {
			s.drop(k, e)
		}
	}
	for k, e := range s.unkept {
		if e.epoch < s.epoch {
			delete(s.unkept, k)
		}
	}
}

func (s *memoStore) drop(key string, e *memoEntry) {
	delete(s.entries, key)
	s.bytes -= e.bytes
}

// MemoStats is a point-in-time snapshot of the join memo. Reruns counts
// the jobs run again without replaying because a write to a dataset they
// replayed began while they ran.
type MemoStats struct {
	Entries              int
	Bytes                int64
	Hits, Misses, Reruns int64
}

// MemoStats reports the join memo's entries, resident bytes, hits,
// misses and reruns.
func (c *Cluster) MemoStats() MemoStats {
	c.memo.mu.Lock()
	defer c.memo.mu.Unlock()
	return MemoStats{Entries: len(c.memo.entries), Bytes: c.memo.bytes,
		Hits: c.memo.hits.Load(), Misses: c.memo.misses.Load(), Reruns: c.memo.reruns.Load()}
}

// Memo outcomes of one memo operator in one execution, as explain
// analyze prints them.
const (
	memoHit  = "hit"
	memoMiss = "miss"
	memoOff  = "off"
)

// memoCapture collects the tables the joins over one memo operator keep
// during a job that missed, for the store once the job is done: one
// table per partition, or one in all when the join broadcast its build
// side and every instance built the whole of it.
type memoCapture struct {
	key    string
	ds     string
	read   memoReading
	epoch  uint64
	budget int64
	tables []atomic.Pointer[hyracks.JoinTable]
}

// keeper returns the keep function of a HashJoin that builds on the
// capture's memo in slots tables, nil when there is no capture. With one
// slot the first table offered is kept.
func (cp *memoCapture) keeper(slots int) func(part int, t *hyracks.JoinTable) bool {
	if cp == nil {
		return nil
	}
	if cp.tables == nil {
		cp.tables = make([]atomic.Pointer[hyracks.JoinTable], slots)
	}
	if slots == 1 {
		return func(_ int, t *hyracks.JoinTable) bool { return cp.tables[0].CompareAndSwap(nil, t) }
	}
	return func(part int, t *hyracks.JoinTable) bool {
		cp.tables[part].Store(t)
		return true
	}
}

// memoReading is one job's one reading of a dataset's data version.
type memoReading struct {
	ver     *dataVersion
	version uint64
	quiet   bool
}

// moved reports whether a write to the dataset began after the reading.
func (r memoReading) moved() bool { return r.ver.begun.Load() != r.version }

// reading returns the job's reading of a dataset's version, taking it on
// the first memo of that dataset.
func (g *jobGen) reading(dv, ds string) memoReading {
	key := dsKey(dv, ds)
	r, ok := g.memoReads[key]
	if !ok {
		r.ver = g.c.dataVersion(dv, ds)
		r.version, r.quiet = r.ver.quiet()
		g.memoReads[key] = r
	}
	return r
}

// resolveMemo decides a memo operator's outcome for the job being
// generated and reports a hit, whose entry the join above probes; a miss
// on a quiet dataset also arranges a capture. builds is whether every
// reader of the memo is a hash join that can build on it (memoSide):
// only such a join probes an entry or keeps its table, so any other
// memo is a miss with no capture. A dataset with a write in flight
// counts a miss without looking, and so does every memo of a job that
// must not use the memo (g.replay false).
func (g *jobGen) resolveMemo(op *algebra.Op, builds bool) bool {
	if g.memoUse == nil {
		g.memoHits = map[*algebra.Op]*memoEntry{}
		g.memoCaps = map[*algebra.Op]*memoCapture{}
		g.memoUse = map[string]string{}
		g.memoReads = map[string]memoReading{}
		g.memoEpoch = g.c.Catalog.Epoch()
	}
	if hook := g.c.memoResolved; hook != nil {
		defer hook(op.MemoKey)
	}
	if g.c.localNode != hyracks.AllNodes {
		g.memoUse[op.MemoKey] = memoOff
		return false
	}
	g.memoUse[op.MemoKey] = memoMiss
	r := g.reading(op.Dataverse, op.Dataset)
	if !r.quiet || !builds {
		g.c.memo.misses.Add(1)
		return false
	}
	if !g.replay {
		g.c.memo.misses.Add(1)
	} else if e, keep := g.c.memo.get(op.MemoKey, g.memoEpoch, r.version, g.budget); e != nil {
		g.memoUse[op.MemoKey] = memoHit
		g.memoHits[op] = e
		return true
	} else if !keep {
		return false
	}
	g.memoCaps[op] = &memoCapture{key: op.MemoKey, ds: dsKey(op.Dataverse, op.Dataset), read: r, epoch: g.memoEpoch, budget: g.budget}
	return false
}

// memoSide returns the input of a hash join that is a memo it can
// build on, or -1: a broadcast join's build side, or either input of a
// partitioned one, whose build side is free to choose. genJoin builds
// on that input when the memo hits or is captured, and on the
// optimizer's choice otherwise.
func memoSide(op *algebra.Op) int {
	if op.Phys != algebra.JoinPhysHash && op.Phys != algebra.JoinPhysBroadcastHash {
		return -1
	}
	for _, s := range []int{op.BuildSide, 1 - op.BuildSide} {
		if op.Inputs[s].Kind == algebra.OpMemo {
			return s
		}
		if op.Phys == algebra.JoinPhysBroadcastHash {
			break // the hint fixed the side it broadcasts and builds on
		}
	}
	return -1
}

// replayMoved reports whether a write began, since the job was
// generated, on a dataset whose entry the job replays.
func (g *jobGen) replayMoved() bool {
	for op := range g.memoHits {
		if g.memoReads[dsKey(op.Dataverse, op.Dataset)].moved() {
			return true
		}
	}
	return false
}

// genMemo projects the pipeline its input ends in onto the memo's Vars,
// in order: the layout of the build tuples a join keeps under the
// memo's key, and that a later job's plan reads them in (analyzePlan
// keeps all of them live). A hit generates nothing — genJoin probes the
// entry's tables instead of building — and is resolved only where
// genJoin consumes it.
func (g *jobGen) genMemo(op *algebra.Op) (*genOut, error) {
	in, err := g.genOpen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	p := g.openPipeline(in)
	return p.out, p.project(op.Vars)
}

// commitMemos stores the captures of a job that succeeded, over a
// dataset no write began on since the job was generated: those whose
// every table was kept, and as unkept, at the job's budget, those a
// spilled build side left a table short of.
func (c *Cluster) commitMemos(caps map[*algebra.Op]*memoCapture) {
	for _, cp := range caps {
		if cp.tables == nil || cp.read.moved() {
			continue
		}
		e := &memoEntry{ds: cp.ds, epoch: cp.epoch, version: cp.read.version, tables: make([]*hyracks.JoinTable, len(cp.tables))}
		for i := range cp.tables {
			t := cp.tables[i].Load()
			if t == nil {
				e.tables, e.spilledAt = nil, cp.budget
				break
			}
			e.tables[i] = t
			e.bytes += t.Bytes()
		}
		c.memo.put(cp.key, e)
	}
}
