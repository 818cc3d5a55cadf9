package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"simdb/internal/adm"
	"simdb/internal/algebra"
	"simdb/internal/hyracks"
)

// The join memo: what a memo operator's input emitted, kept per
// partition across queries. The optimizer puts a memo over the parts of
// the three-stage join that read nothing but one dataset's stored
// records — stage 1's token order and the bare side's ranked token lists
// — and keys it by what it computes (order(dataset, token expression),
// ranked(dataset, token expression)), so every query with that key, at
// any threshold, can replay one entry instead of running the subplan.
//
// An entry is valid for one data version of its dataset: the number of
// InsertBatch calls that had finished, with none in flight, when the job
// that captured it was generated. DDL is covered by the catalog epoch.
// Job generation reads each dataset's version once and resolves every
// memo of that dataset against that one reading, so the entries a job
// replays and the capture it stores agree on the version. It replays an
// entry only when the dataset was quiet at that version; a job stores
// its capture only when every instance of the capture finished and no
// write to the dataset began during the job. The rest of the job reads
// the live records, so a job that replayed an entry and overlapped the
// start of a write is run again without replaying (runJob): its outer
// side could hold tokens the replayed order lacks.
// The memo is per process, so it is off under the tcp transport: there a
// worker compiles and generates its half of the job by itself.
//
// The memo's bytes are charged to the capturing query's grant only while
// that query runs; once stored they are held outside the cluster's
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

// memoEntry is one key's captured output: parts[p] is what partition p
// emitted, in the memo operator's Vars order.
type memoEntry struct {
	epoch, version uint64
	parts          [][]hyracks.Tuple
	bytes          int64
}

// memoStore holds one entry per key, at most memoByteCap bytes in all.
type memoStore struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	bytes   int64

	hits, misses, reruns atomic.Int64
}

func newMemoStore() *memoStore { return &memoStore{entries: map[string]*memoEntry{}} }

// get returns key's entry if it was captured at epoch and version, and
// counts a hit or a miss. An entry of another epoch or version is never
// served again (versions only grow) and is dropped.
func (s *memoStore) get(key string, epoch, version uint64) *memoEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e != nil && (e.epoch != epoch || e.version != version) {
		s.drop(key, e)
		e = nil
	}
	if e == nil {
		s.misses.Add(1)
		return nil
	}
	s.hits.Add(1)
	return e
}

// put stores e as key's entry, replacing the one it had, unless that
// would take the memo over memoByteCap: then e is not kept.
func (s *memoStore) put(key string, e *memoEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.entries[key]; old != nil {
		s.drop(key, old)
	}
	if s.bytes+e.bytes > memoByteCap {
		return
	}
	s.entries[key] = e
	s.bytes += e.bytes
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

// memoCapture collects one memo operator's output during a job that
// missed, for the store once the job is done.
type memoCapture struct {
	key     string
	read    memoReading
	epoch   uint64
	parts   [][]hyracks.Tuple
	done    atomic.Int64 // instances that saw their whole input
	dropped atomic.Bool  // the query's memory grant refused a tuple
	bytes   atomic.Int64
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
// generated and reports a hit, whose entry the job replays; a miss on a
// quiet dataset also arranges a capture. A dataset with a write in
// flight counts a miss without looking, and so does every memo of a job
// that must not replay (g.replay false).
func (g *jobGen) resolveMemo(op *algebra.Op) bool {
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
	if !r.quiet {
		g.c.memo.misses.Add(1)
		return false
	}
	if !g.replay {
		g.c.memo.misses.Add(1)
	} else if e := g.c.memo.get(op.MemoKey, g.memoEpoch, r.version); e != nil {
		g.memoUse[op.MemoKey] = memoHit
		g.memoHits[op] = e
		return true
	}
	g.memoCaps[op] = &memoCapture{key: op.MemoKey, read: r, epoch: g.memoEpoch}
	return false
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

// captureChunk is how many tuples a capture allocates at once.
const captureChunk = 128

// genMemo replays a hit's entry as a source, or generates the input and,
// when capturing, ends the pipeline it ends in with a stage that keeps a
// copy of each row in the memo's Vars order.
func (g *jobGen) genMemo(op *algebra.Op) (*genOut, error) {
	vars := append([]algebra.Var(nil), op.Vars...)
	if e := g.memoHits[op]; e != nil {
		parts := e.parts
		node := g.job.Add("Memo(replay)", len(parts), hyracks.SourceFunc(
			func(ctx *hyracks.TaskCtx, emit func(hyracks.Tuple)) error {
				for _, t := range parts[ctx.Part] {
					emit(t)
				}
				return nil
			}))
		return &genOut{node: node, schema: vars, parts: len(parts)}, nil
	}
	in, err := g.genOpen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	cp := g.memoCaps[op]
	if cp == nil {
		return in, nil
	}
	p := openPipeline(in)
	slots := make([]int, len(vars))
	cols := make(map[algebra.Var]int, len(vars))
	for i, v := range vars {
		c, ok := p.cols[v]
		if !ok {
			return nil, fmt.Errorf("jobgen: memo var %v missing from schema %v", v, p.schema)
		}
		slots[i], cols[v] = c, c
	}
	cp.parts = make([][]hyracks.Tuple, p.in.parts)
	w := len(vars)
	p.add("Memo(capture)", func(inst *instance, next step) step {
		grant := inst.ctx.Grant()
		var kept []hyracks.Tuple
		var chunk []adm.Value
		var size int64
		capturing := true
		inst.atEnd = append(inst.atEnd, func() {
			if capturing {
				// The grant stays held: the tuples live until the query
				// ends and the store takes them.
				cp.parts[inst.ctx.Part] = kept
				cp.bytes.Add(size)
				cp.done.Add(1)
			}
		})
		return func(row hyracks.Tuple) error {
			if capturing {
				if len(chunk) < w {
					chunk = make([]adm.Value, w*captureChunk)
				}
				t := hyracks.Tuple(chunk[:w:w])
				chunk = chunk[w:]
				for i, s := range slots {
					t[i] = row[s]
				}
				if n := hyracks.TupleMemSize(t); !cp.dropped.Load() && grant.Reserve(n) {
					kept = append(kept, t)
					size += n
				} else {
					// Over the query's budget: finish as if nothing were
					// captured.
					cp.dropped.Store(true)
					grant.ReleaseAll()
					kept, chunk, capturing = nil, nil, false
				}
			}
			return next(row)
		}
	})
	p.schema, p.cols, p.ordered = vars, cols, false
	return p.out, nil
}

// commitMemos stores the captures of a job that succeeded: those whose
// every instance finished under the grant, over a dataset no write
// began on since the job was generated.
func (c *Cluster) commitMemos(caps map[*algebra.Op]*memoCapture) {
	for _, cp := range caps {
		if cp.dropped.Load() || cp.done.Load() != int64(len(cp.parts)) {
			continue
		}
		if cp.read.moved() {
			continue
		}
		c.memo.put(cp.key, &memoEntry{epoch: cp.epoch, version: cp.read.version, parts: cp.parts, bytes: cp.bytes.Load()})
	}
}
