package hyracks

import (
	"encoding/binary"
	"fmt"
	"io"

	"simdb/internal/adm"
	"simdb/internal/storage"
)

// Spill machinery shared by the blocking operators: the tuple <-> run
// record codec, grant-aware run writers/readers, stable k-way run
// merging, and the recursive spill executors for group-by and hash
// join. Operators spill when (and only when) the query has both a
// memory accountant and a run-file manager; otherwise they Force past
// the budget and behave like the original in-memory implementations.

// mergeStreamMem is the accounted cost of one open run stream during a
// merge or re-read: the reader's page buffer plus decode slack.
const mergeStreamMem int64 = 40 << 10

// maxSpillDepth caps recursive re-partitioning (group-by, hybrid hash
// join). Hitting it means the data at this partition path refuses to
// split — usually one giant duplicate key — so the operator falls back
// to an algorithm that cannot recurse (forced in-memory aggregation,
// block-nested-loop join).
const maxSpillDepth = 4

// fanout is the partition count per spill level. 8 partitions over 4
// levels separate up to 8^4 = 4096 budget-sized chunks.
const fanout = 8

// minSpillRunBytes is the smallest sort buffer worth writing as a run
// file; a starved sort (concurrent operators holding the budget) forces
// small excesses instead of flooding the temp dir with tiny runs.
const minSpillRunBytes int64 = 8 << 10

// ---- tuple codec ----

// AppendTuple appends the encoding of t to dst: a uvarint arity
// followed by each value's adm binary encoding. Spill run records and
// the tcp transport's frames both carry tuples in this form.
func AppendTuple(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = adm.Append(dst, v)
	}
	return dst
}

// DecodeTuple parses the tuple AppendTuple wrote at the front of buf and
// returns it with the number of bytes it took. Values are deep-decoded,
// so the tuple stays valid after buf is reused. Every value takes at
// least one byte, so an arity larger than the bytes left is corrupt and
// is rejected before anything is allocated for it.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	n, p := binary.Uvarint(buf)
	if p <= 0 {
		return nil, 0, fmt.Errorf("hyracks: truncated tuple column count")
	}
	if n > uint64(len(buf)-p) {
		return nil, 0, fmt.Errorf("hyracks: tuple column count %d exceeds payload", n)
	}
	t := make(Tuple, n)
	for i := range t {
		v, m, err := adm.Decode(buf[p:])
		if err != nil {
			return nil, 0, fmt.Errorf("hyracks: tuple col %d: %w", i, err)
		}
		p += m
		t[i] = v
	}
	return t, p, nil
}

// ---- run writing ----

// runSink streams tuples into one spill run, crediting the instance's
// spill counters when the run completes.
type runSink struct {
	ctx *TaskCtx
	w   *storage.RunWriter
	buf []byte
}

// newRunSink opens a run file for this instance.
func (ctx *TaskCtx) newRunSink(label string) (*runSink, error) {
	w, err := ctx.Spill.Create(label)
	if err != nil {
		return nil, err
	}
	return &runSink{ctx: ctx, w: w}, nil
}

func (s *runSink) add(t Tuple) error {
	s.buf = AppendTuple(s.buf[:0], t)
	return s.w.Append(s.buf)
}

func (s *runSink) finish() (*storage.RunFile, error) {
	f, err := s.w.Finish()
	if err != nil {
		return nil, err
	}
	s.ctx.SpillRuns++
	s.ctx.SpilledBytes += f.Bytes()
	return f, nil
}

func (s *runSink) abort() { s.w.Abort() }

// writeRun spills a whole slice as one run.
func (ctx *TaskCtx) writeRun(label string, tuples []Tuple) (*storage.RunFile, error) {
	s, err := ctx.newRunSink(label)
	if err != nil {
		return nil, err
	}
	for _, t := range tuples {
		if err := s.add(t); err != nil {
			s.abort()
			return nil, err
		}
	}
	return s.finish()
}

// ---- run reading and merging ----

// tupleStream is a pull iterator over tuples; next returns ok=false at
// the end of the stream.
type tupleStream interface {
	next() (Tuple, bool, error)
}

// runCursor iterates a run file as tuples.
type runCursor struct {
	r *storage.RunReader
}

func openRun(f *storage.RunFile) (*runCursor, error) {
	r, err := f.Open()
	if err != nil {
		return nil, err
	}
	return &runCursor{r: r}, nil
}

func (c *runCursor) next() (Tuple, bool, error) {
	rec, err := c.r.Next()
	if err == io.EOF {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	t, _, err := DecodeTuple(rec)
	if err != nil {
		return nil, false, fmt.Errorf("hyracks: corrupt spill record: %w", err)
	}
	return t, true, nil
}

func (c *runCursor) close() { c.r.Close() }

// sliceStream adapts an in-memory slice to tupleStream.
type sliceStream struct {
	ts []Tuple
	i  int
}

func (s *sliceStream) next() (Tuple, bool, error) {
	if s.i >= len(s.ts) {
		return nil, false, nil
	}
	t := s.ts[s.i]
	s.i++
	return t, true, nil
}

// portStream adapts a PortReader to tupleStream.
type portStream struct{ r *PortReader }

func (p *portStream) next() (Tuple, bool, error) {
	t, ok := p.r.Next()
	return t, ok, nil
}

// mergeStreams k-way merges sorted streams into emit. Ties go to the
// lowest stream index, which keeps the external sort stable: runs are
// numbered in input-arrival order and each run is itself stably sorted.
func mergeStreams(streams []tupleStream, cols []SortCol, emit func(Tuple) error) error {
	heads := make([]Tuple, len(streams))
	for i := range streams {
		t, ok, err := streams[i].next()
		if err != nil {
			return err
		}
		if ok {
			heads[i] = t
		}
	}
	for {
		best := -1
		for i, h := range heads {
			if h == nil {
				continue
			}
			if best < 0 || CompareTuples(h, heads[best], cols) < 0 {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		if err := emit(heads[best]); err != nil {
			return err
		}
		t, ok, err := streams[best].next()
		if err != nil {
			return err
		}
		if ok {
			heads[best] = t
		} else {
			heads[best] = nil
		}
	}
}

// mergeWidth bounds the fan-in of one merge pass so the read buffers
// claim at most half the budget.
func mergeWidth(a *MemoryAccountant) int {
	w := int(a.Budget() / (2 * mergeStreamMem))
	if w < 2 {
		w = 2
	}
	if w > 64 {
		w = 64
	}
	return w
}

// ---- external sort ----

// externalSort sorts the input by cols within the instance's grant: it
// accumulates budget-sized sorted runs, spills them, and k-way merges
// (multi-pass when the run count exceeds the merge width). With no
// budget (or no spill store) everything stays in memory, matching the
// original Sort exactly.
func externalSort(ctx *TaskCtx, in *PortReader, cols []SortCol, emit func(Tuple) error) error {
	g := ctx.Grant()
	defer g.ReleaseAll()
	var (
		buf      []Tuple
		bufBytes int64
		runs     []*storage.RunFile
	)
	defer func() {
		for _, f := range runs {
			f.Close()
		}
	}()
	spill := func() error {
		sortTuples(buf, cols)
		f, err := ctx.writeRun("sort", buf)
		if err != nil {
			return err
		}
		runs = append(runs, f)
		buf = nil
		g.Release(bufBytes)
		bufBytes = 0
		return nil
	}
	for {
		t, ok := in.Next()
		if !ok {
			break
		}
		sz := TupleMemSize(t)
		if !g.Reserve(sz) {
			// Only cut a run once the buffer is worth a file: when a
			// concurrent operator holds most of the budget, spilling on
			// every failed reserve would flood the temp dir with
			// single-tuple runs. Below the floor, force the small excess
			// instead.
			if ctx.canSpill() && bufBytes >= minSpillRunBytes {
				if err := spill(); err != nil {
					return err
				}
			}
			if !g.Reserve(sz) {
				g.Force(sz)
			}
		}
		buf = append(buf, t)
		bufBytes += sz
	}
	if err := ctx.Ctx.Err(); err != nil {
		return err
	}
	sortTuples(buf, cols)
	if len(runs) == 0 {
		for _, t := range buf {
			if err := emit(t); err != nil {
				return err
			}
		}
		return nil
	}
	width := mergeWidth(ctx.Mem)
	// If keeping the sorted tail resident would crowd out the merge
	// stream buffers, spill it as one more run: it becomes the last run,
	// so arrival order — and with it stability — is unchanged, and the
	// merge then runs purely from disk within budget.
	if len(buf) > 0 && ctx.canSpill() {
		fanin := len(runs) + 1
		if fanin > width {
			fanin = width
		}
		probe := int64(fanin) * mergeStreamMem
		if g.Reserve(probe) {
			g.Release(probe)
		} else if err := spill(); err != nil {
			return err
		}
	}
	tail := 0
	if len(buf) > 0 {
		tail = 1
	}
	// Multi-pass: while the final fan-in (every run plus any in-memory
	// tail) exceeds the merge width, merge width-sized groups of
	// ADJACENT runs in one full pass over the list. Each pass rewrites
	// every tuple once, so total merge IO is O(N·log_width(runs)) —
	// collapsing into a single accumulator run instead would re-merge it
	// every iteration, going quadratic in the run count. Merged runs
	// replace their contiguous inputs in place, preserving run order —
	// and with it stability — across passes.
	for len(runs)+tail > width {
		next := runs[:0]
		for lo := 0; lo < len(runs); lo += width {
			hi := lo + width
			if hi > len(runs) {
				hi = len(runs)
			}
			if hi-lo == 1 {
				next = append(next, runs[lo])
				continue
			}
			merged, err := mergeRunsToRun(ctx, g, runs[lo:hi], cols)
			if err != nil {
				return err
			}
			for _, f := range runs[lo:hi] {
				f.Close()
			}
			next = append(next, merged)
		}
		runs = next
		if err := ctx.Ctx.Err(); err != nil {
			return err
		}
	}
	need := int64(len(runs)) * mergeStreamMem
	if !g.Reserve(need) {
		g.Force(need)
	}
	streams := make([]tupleStream, 0, len(runs)+tail)
	cursors := make([]*runCursor, 0, len(runs))
	defer func() {
		for _, c := range cursors {
			c.close()
		}
	}()
	for _, f := range runs {
		c, err := openRun(f)
		if err != nil {
			return err
		}
		cursors = append(cursors, c)
		streams = append(streams, c)
	}
	// Any unspilled tail holds the latest-arrived tuples: merging it
	// last keeps the tie-break ordering consistent with arrival order.
	if tail == 1 {
		streams = append(streams, &sliceStream{ts: buf})
	}
	return mergeStreams(streams, cols, emit)
}

// mergeRunsToRun merges sorted runs into one new (larger) run.
func mergeRunsToRun(ctx *TaskCtx, g *MemGrant, runs []*storage.RunFile, cols []SortCol) (*storage.RunFile, error) {
	need := int64(len(runs)) * mergeStreamMem
	if !g.Reserve(need) {
		g.Force(need)
	}
	defer g.Release(need)
	streams := make([]tupleStream, len(runs))
	cursors := make([]*runCursor, len(runs))
	defer func() {
		for _, c := range cursors {
			if c != nil {
				c.close()
			}
		}
	}()
	for i, f := range runs {
		c, err := openRun(f)
		if err != nil {
			return nil, err
		}
		cursors[i] = c
		streams[i] = c
	}
	sink, err := ctx.newRunSink("sort-merge")
	if err != nil {
		return nil, err
	}
	if err := mergeStreams(streams, cols, sink.add); err != nil {
		sink.abort()
		return nil, err
	}
	return sink.finish()
}

// ---- partition mixing ----

// partMix derives a spill-partition selector from a tuple's key hash,
// varied by recursion depth so each level re-splits what the previous
// one could not.
func partMix(h uint64, depth int) uint64 {
	x := h ^ (0x9E3779B97F4A7C15 * uint64(depth+1))
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return x
}

// ---- spillable buffer (replicate / NLJ build) ----

// spillableBuffer accumulates tuples in arrival order within the grant
// and overflows to a single run once the budget is hit. The buffered
// stream replays in arrival order: resident prefix, then run suffix.
type spillableBuffer struct {
	ctx   *TaskCtx
	g     *MemGrant
	label string
	mem   []Tuple
	bytes int64
	sink  *runSink
	run   *storage.RunFile
}

func newSpillableBuffer(ctx *TaskCtx, g *MemGrant, label string) *spillableBuffer {
	return &spillableBuffer{ctx: ctx, g: g, label: label}
}

func (b *spillableBuffer) add(t Tuple) error {
	if b.sink != nil {
		return b.sink.add(t)
	}
	sz := TupleMemSize(t)
	if b.g.Reserve(sz) {
		b.mem = append(b.mem, t)
		b.bytes += sz
		return nil
	}
	if !b.ctx.canSpill() {
		b.g.Force(sz)
		b.mem = append(b.mem, t)
		b.bytes += sz
		return nil
	}
	s, err := b.ctx.newRunSink(b.label)
	if err != nil {
		return err
	}
	b.sink = s
	return s.add(t)
}

// finish seals the overflow run; call once after the last add.
func (b *spillableBuffer) finish() error {
	if b.sink == nil {
		return nil
	}
	f, err := b.sink.finish()
	b.sink = nil
	if err != nil {
		return err
	}
	b.run = f
	return nil
}

func (b *spillableBuffer) spilled() bool { return b.run != nil }

// each replays the buffer in arrival order. It may be called multiple
// times, including concurrently (each call opens a private run reader
// and the resident prefix is read-only by then).
func (b *spillableBuffer) each(fn func(Tuple) error) error {
	for _, t := range b.mem {
		if err := fn(t); err != nil {
			return err
		}
	}
	if b.run == nil {
		return nil
	}
	c, err := openRun(b.run)
	if err != nil {
		return err
	}
	defer c.close()
	for {
		t, ok, err := c.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(t); err != nil {
			return err
		}
	}
}

// close releases the buffer's disk state (grant bytes are the caller's
// ReleaseAll).
func (b *spillableBuffer) close() {
	if b.sink != nil {
		b.sink.abort()
		b.sink = nil
	}
	if b.run != nil {
		b.run.Close()
		b.run = nil
	}
}

// ---- spilling hash group-by ----

// aggGroup is one group's key and aggregate states.
type aggGroup struct {
	key    Tuple
	states []aggState
}

// groupTable is a hash table of groups plus the grant bytes its
// contents hold (released when the table is finalized).
type groupTable struct {
	buckets map[uint64][]*aggGroup
	mem     int64
}

func newGroupTable() *groupTable {
	return &groupTable{buckets: map[uint64][]*aggGroup{}}
}

// lookup finds the group for the tuple's key columns, or nil.
func (tb *groupTable) lookup(h uint64, t Tuple, keys []int) *aggGroup {
	for _, cand := range tb.buckets[h] {
		match := true
		for i, k := range keys {
			if !adm.Equal(cand.key[i], t[k]) {
				match = false
				break
			}
		}
		if match {
			return cand
		}
	}
	return nil
}

// insert adds a fresh group for the tuple's key.
func (tb *groupTable) insert(h uint64, t Tuple, keys []int, nspecs int) *aggGroup {
	key := make(Tuple, len(keys))
	for i, k := range keys {
		key[i] = t[k]
	}
	g := &aggGroup{key: key, states: make([]aggState, nspecs)}
	tb.buckets[h] = append(tb.buckets[h], g)
	return g
}

// take removes and returns the group for key (nil when absent).
func (tb *groupTable) take(h uint64, key Tuple) *aggGroup {
	bucket := tb.buckets[h]
	for i, cand := range bucket {
		match := true
		for j := range key {
			if !adm.Equal(cand.key[j], key[j]) {
				match = false
				break
			}
		}
		if match {
			tb.buckets[h] = append(bucket[:i:i], bucket[i+1:]...)
			return cand
		}
	}
	return nil
}

// groupHash chains the key columns with the same seed the in-memory
// HashGroup always used.
func groupHash(t Tuple, keys []int) uint64 {
	h := uint64(0x12345)
	for _, k := range keys {
		h = adm.HashSeed(h, t[k])
	}
	return h
}

// groupCreateMem is the accounted cost of a new group: its key copy
// plus fixed group and per-aggregate state overhead.
func groupCreateMem(t Tuple, keys []int, nspecs int) int64 {
	var n int64
	for _, k := range keys {
		n += valueMemSize(t[k])
	}
	return n + 64 + 48*int64(nspecs)
}

// groupGrowthMem is the accounted per-tuple growth of existing state:
// listify aggregates retain the value, everything else is O(1) and
// covered by the creation constant.
func groupGrowthMem(specs []AggSpec, t Tuple) int64 {
	var n int64
	for _, spec := range specs {
		if spec.Kind == AggListify {
			n += valueMemSize(t[spec.In])
		}
	}
	return n
}

// groupByExec is the spilling hash group-by. Tuples aggregate into
// per-partition tables; when a reservation fails, the offending
// partition switches to spill mode — its existing groups stay resident
// (so no aggregation work is lost) and its further tuples go raw to a
// run, capping memory growth. Spilled runs re-aggregate recursively at
// the next depth; run-derived groups merge with the retained resident
// state, preserving arrival order (resident state aggregated strictly
// earlier arrivals than anything in the run).
type groupByExec struct {
	ctx   *TaskCtx
	g     *MemGrant
	keys  []int
	specs []AggSpec
	emit  func(Tuple) error
}

func (e *groupByExec) run(src tupleStream, depth int, outer []*groupTable) error {
	tables := make([]*groupTable, fanout)
	for i := range tables {
		tables[i] = newGroupTable()
	}
	sinks := make([]*runSink, fanout)
	spillable := e.ctx.canSpill() && depth < maxSpillDepth
	for {
		t, ok, err := src.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		h := groupHash(t, e.keys)
		p := int(partMix(h, depth) % fanout)
		if sinks[p] != nil {
			if err := sinks[p].add(t); err != nil {
				return err
			}
			continue
		}
		tbl := tables[p]
		grp := tbl.lookup(h, t, e.keys)
		need := groupGrowthMem(e.specs, t)
		if grp == nil {
			need += groupCreateMem(t, e.keys, len(e.specs))
		}
		if !e.g.Reserve(need) {
			if spillable {
				sink, err := e.ctx.newRunSink(fmt.Sprintf("group-d%d-p%d", depth, p))
				if err != nil {
					return err
				}
				sinks[p] = sink
				if err := sink.add(t); err != nil {
					return err
				}
				continue
			}
			e.g.Force(need)
		}
		if grp == nil {
			grp = tbl.insert(h, t, e.keys, len(e.specs))
		}
		tbl.mem += need
		for i, spec := range e.specs {
			grp.states[i].add(spec, t)
		}
	}
	if err := e.ctx.Ctx.Err(); err != nil {
		return err
	}
	for p := 0; p < fanout; p++ {
		if sinks[p] == nil {
			if err := e.finalizeTable(tables[p], outer); err != nil {
				return err
			}
		}
	}
	for p := 0; p < fanout; p++ {
		if sinks[p] == nil {
			continue
		}
		f, err := sinks[p].finish()
		if err != nil {
			return err
		}
		need := mergeStreamMem
		if !e.g.Reserve(need) {
			e.g.Force(need)
		}
		cur, err := openRun(f)
		if err != nil {
			f.Close()
			return err
		}
		inner := append(append(make([]*groupTable, 0, len(outer)+1), outer...), tables[p])
		err = e.run(cur, depth+1, inner)
		cur.close()
		f.Close()
		e.g.Release(need)
		if err != nil {
			return err
		}
		// Keys of this partition that never reappeared in the run still
		// sit in its resident table.
		if err := e.finalizeTable(tables[p], outer); err != nil {
			return err
		}
	}
	return nil
}

// finalizeTable emits every remaining group of tbl, folding in matching
// groups from the outer (earlier-arrival) tables, then releases the
// table's memory.
func (e *groupByExec) finalizeTable(tbl *groupTable, outer []*groupTable) error {
	for h, bucket := range tbl.buckets {
		for _, grp := range bucket {
			states := grp.states
			// outer[i] aggregated earlier arrivals than outer[i+1], which
			// aggregated earlier arrivals than this table: fold inside-out
			// so merged state always runs earliest -> latest.
			for i := len(outer) - 1; i >= 0; i-- {
				if og := outer[i].take(h, grp.key); og != nil {
					mergeAggStates(e.specs, og.states, states)
					states = og.states
				}
			}
			row := make(Tuple, 0, len(grp.key)+len(e.specs))
			row = append(row, grp.key...)
			for i, spec := range e.specs {
				row = append(row, states[i].result(spec))
			}
			if err := e.emit(row); err != nil {
				return err
			}
		}
		delete(tbl.buckets, h)
	}
	e.g.Release(tbl.mem)
	tbl.mem = 0
	return e.ctx.Ctx.Err()
}

// mergeAggStates folds later states into earlier ones: earlier[i]
// aggregated tuples that all arrived before later[i]'s.
func mergeAggStates(specs []AggSpec, earlier, later []aggState) {
	for i, spec := range specs {
		earlier[i].merge(spec, &later[i])
	}
}

// ---- hybrid hash join ----

// joinHash chains key columns with the in-memory HashJoin's seed.
func joinHash(t Tuple, keys []int) uint64 {
	h := uint64(0xABCD)
	for _, k := range keys {
		h = adm.HashSeed(h, t[k])
	}
	return h
}

// JoinTable is a hash join's resident build side: its tuples by the hash
// of their key columns. Once built it is only read, so a table one job
// kept can serve the probes of any number of instances and later jobs
// at once.
type JoinTable struct {
	keys    []int
	buckets map[uint64][]Tuple
	bytes   int64
}

// Bytes is the table's accounted footprint: each tuple's TupleMemSize
// plus its hash-table slot.
func (t *JoinTable) Bytes() int64 { return t.bytes }

// match emits build ++ probe for every tuple of the table key-equal to
// probe, whose key columns are probeKeys. Keys compare with adm equality
// and a null key matches nothing, exactly as eq() is true.
func (t *JoinTable) match(probe Tuple, probeKeys []int, emit func(Tuple) error) error {
	for _, b := range t.buckets[joinHash(probe, probeKeys)] {
		match := true
		for i, k := range t.keys {
			bv, pv := b[k], probe[probeKeys[i]]
			if bv.IsNull() || pv.IsNull() || !adm.Equal(bv, pv) {
				match = false
				break
			}
		}
		if match {
			row := make(Tuple, 0, len(b)+len(probe))
			row = append(row, b...)
			row = append(row, probe...)
			if err := emit(row); err != nil {
				return err
			}
		}
	}
	return nil
}

// add files a build tuple of accounted size sz.
func (t *JoinTable) add(b Tuple, sz int64) {
	h := joinHash(b, t.keys)
	t.buckets[h] = append(t.buckets[h], b)
	t.bytes += sz
}

// joinSlotMem is the accounted cost of a build tuple's hash-table slot.
const joinSlotMem = 48

// hashJoinExec is the hybrid hash join, run as a build half and a probe
// half. The build side partitions by a depth-varied hash; when a
// reservation fails, resident partitions are evicted (largest first) to
// build runs until the tuple fits or its own partition went to disk.
// Probe tuples for spilled partitions are deferred to probe runs; each
// (build run, probe run) pair then joins recursively, degrading to
// block-nested-loop at the depth cap (the one-giant-key case hashing
// cannot split). keep, when set, is offered the table of a build side
// that stayed wholly resident once the probe is done; a table it takes
// stays reserved against the query's budget until the query ends.
type hashJoinExec struct {
	ctx       *TaskCtx
	g         *MemGrant
	buildKeys []int
	probeKeys []int
	emit      func(Tuple) error
	keep      func(part int, t *JoinTable) bool
}

func (e *hashJoinExec) run(build, probe tupleStream, depth int) error {
	tbl, buildSinks, err := e.build(build, depth)
	if err != nil {
		return err
	}
	probeSinks, err := e.probe(tbl, buildSinks, probe, depth)
	if err != nil {
		return err
	}
	// The resident partitions are fully joined: keep the table, or
	// release it before recursing so the sub-joins get the whole budget
	// back.
	spilled := false
	for _, s := range buildSinks {
		spilled = spilled || s != nil
	}
	if depth == 0 && !spilled && e.keep != nil && e.keep(e.ctx.Part, tbl) {
		e.g.Retain(tbl.bytes)
	} else {
		e.g.Release(tbl.bytes)
	}
	for p := 0; p < fanout; p++ {
		if buildSinks[p] == nil {
			continue
		}
		bf, err := buildSinks[p].finish()
		if err != nil {
			return err
		}
		if probeSinks[p] == nil {
			bf.Close() // no probe tuples landed here: nothing can match
			continue
		}
		pf, err := probeSinks[p].finish()
		if err != nil {
			bf.Close()
			return err
		}
		err = e.joinRunPair(bf, pf, depth)
		bf.Close()
		pf.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// build is the build half: it reads the build side into the table of
// the partitions that stay resident, and returns it with the build runs
// of the partitions that spilled (nil where resident).
func (e *hashJoinExec) build(src tupleStream, depth int) (*JoinTable, []*runSink, error) {
	spillable := e.ctx.canSpill() && depth < maxSpillDepth
	resident := make([][]Tuple, fanout)
	memPer := make([]int64, fanout)
	buildSinks := make([]*runSink, fanout)

	// reserveOrSpill makes room for sz bytes of partition p's resident
	// list, evicting partitions to disk as needed. It reports true when
	// p itself spilled (the caller routes the tuple to p's sink).
	reserveOrSpill := func(sz int64, p int) (bool, error) {
		for {
			if e.g.Reserve(sz) {
				return false, nil
			}
			if !spillable {
				e.g.Force(sz)
				return false, nil
			}
			victim, best := -1, int64(-1)
			for i := range memPer {
				if buildSinks[i] != nil {
					continue
				}
				if memPer[i] > best {
					best = memPer[i]
					victim = i
				}
			}
			if victim < 0 {
				e.g.Force(sz)
				return false, nil
			}
			sink, err := e.ctx.newRunSink(fmt.Sprintf("join-build-d%d-p%d", depth, victim))
			if err != nil {
				return false, err
			}
			for _, bt := range resident[victim] {
				if err := sink.add(bt); err != nil {
					return false, err
				}
			}
			buildSinks[victim] = sink
			resident[victim] = nil
			e.g.Release(memPer[victim])
			memPer[victim] = 0
			if victim == p {
				return true, nil
			}
		}
	}

	n := 0
	for {
		t, ok, err := src.next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		h := joinHash(t, e.buildKeys)
		p := int(partMix(h, depth) % fanout)
		if buildSinks[p] != nil {
			if err := buildSinks[p].add(t); err != nil {
				return nil, nil, err
			}
			continue
		}
		sz := TupleMemSize(t) + joinSlotMem
		spilled, err := reserveOrSpill(sz, p)
		if err != nil {
			return nil, nil, err
		}
		if spilled {
			if err := buildSinks[p].add(t); err != nil {
				return nil, nil, err
			}
			continue
		}
		resident[p] = append(resident[p], t)
		memPer[p] += sz
		n++
	}
	if err := e.ctx.Ctx.Err(); err != nil {
		return nil, nil, err
	}

	// One table holds every resident partition: a probe tuple of a
	// spilled partition goes to its run before it could look.
	tbl := &JoinTable{keys: e.buildKeys, buckets: make(map[uint64][]Tuple, n)}
	for p := range resident {
		if buildSinks[p] != nil {
			continue
		}
		for _, bt := range resident[p] {
			h := joinHash(bt, e.buildKeys)
			tbl.buckets[h] = append(tbl.buckets[h], bt)
		}
		tbl.bytes += memPer[p]
	}
	return tbl, buildSinks, nil
}

// probe is the probe half: it streams the probe side past tbl and
// defers the tuples of spilled partitions to probe runs, which it
// returns (nil where nothing was deferred).
func (e *hashJoinExec) probe(tbl *JoinTable, buildSinks []*runSink, src tupleStream, depth int) ([]*runSink, error) {
	probeSinks := make([]*runSink, fanout)
	for {
		t, ok, err := src.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if p := int(partMix(joinHash(t, e.probeKeys), depth) % fanout); buildSinks[p] != nil {
			if probeSinks[p] == nil {
				s, err := e.ctx.newRunSink(fmt.Sprintf("join-probe-d%d-p%d", depth, p))
				if err != nil {
					return nil, err
				}
				probeSinks[p] = s
			}
			if err := probeSinks[p].add(t); err != nil {
				return nil, err
			}
			continue
		}
		if err := tbl.match(t, e.probeKeys, e.emit); err != nil {
			return nil, err
		}
	}
	return probeSinks, e.ctx.Ctx.Err()
}

// joinRunPair joins one spilled (build, probe) pair: recursively while
// re-partitioning can still help, block-nested-loop at the depth cap.
func (e *hashJoinExec) joinRunPair(bf, pf *storage.RunFile, depth int) error {
	if depth+1 >= maxSpillDepth {
		return e.blockJoin(bf, pf)
	}
	need := 2 * mergeStreamMem
	if !e.g.Reserve(need) {
		e.g.Force(need)
	}
	defer e.g.Release(need)
	bc, err := openRun(bf)
	if err != nil {
		return err
	}
	defer bc.close()
	pc, err := openRun(pf)
	if err != nil {
		return err
	}
	defer pc.close()
	return e.run(bc, pc, depth+1)
}

// blockJoin is the fallback for data that will not split: read the
// build run in budget-sized blocks and stream the whole probe run past
// each block. Quadratic in I/O, bounded in memory — exactly what a
// single giant duplicate key requires.
func (e *hashJoinExec) blockJoin(bf, pf *storage.RunFile) error {
	need := 2 * mergeStreamMem
	if !e.g.Reserve(need) {
		e.g.Force(need)
	}
	defer e.g.Release(need)
	bc, err := openRun(bf)
	if err != nil {
		return err
	}
	defer bc.close()
	var pending Tuple
	done := false
	for !done {
		block := &JoinTable{keys: e.buildKeys, buckets: map[uint64][]Tuple{}}
		for {
			var t Tuple
			if pending != nil {
				t, pending = pending, nil
			} else {
				var ok bool
				t, ok, err = bc.next()
				if err != nil {
					return err
				}
				if !ok {
					done = true
					break
				}
			}
			sz := TupleMemSize(t) + joinSlotMem
			if !e.g.Reserve(sz) {
				if block.bytes > 0 {
					pending = t
					break
				}
				e.g.Force(sz) // a single tuple larger than the budget
			}
			block.add(t, sz)
		}
		if block.bytes > 0 {
			pc, err := openRun(pf)
			if err != nil {
				return err
			}
			for {
				t, ok, err := pc.next()
				if err != nil {
					pc.close()
					return err
				}
				if !ok {
					break
				}
				if err := block.match(t, e.probeKeys, e.emit); err != nil {
					pc.close()
					return err
				}
			}
			pc.close()
		}
		e.g.Release(block.bytes)
		if err := e.ctx.Ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}
