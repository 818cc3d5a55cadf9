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

// residentStream hands on a sort's resident rows in order and gives
// each row's bytes back to the grant as it does: the stages the sort
// emits into reserve their own as they take the rows, so the two never
// hold one row's bytes at once.
type residentStream struct {
	s *sorter
	i int
}

func (r *residentStream) next() (Tuple, bool, error) {
	buf := r.s.buf
	if r.i >= len(buf) {
		return nil, false, nil
	}
	t := buf[r.i]
	buf[r.i] = nil
	r.i++
	r.s.g.Release(TupleMemSize(t))
	return t, true, nil
}

// feed hands every tuple of s to add, in order.
func feed(s tupleStream, add func(Tuple) error) error {
	for {
		t, ok, err := s.next()
		if err != nil || !ok {
			return err
		}
		if err := add(t); err != nil {
			return err
		}
	}
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

// sorter is Sort's push form: an external merge sort within the
// instance's grant. Add accumulates budget-sized sorted runs and spills
// them; End k-way merges them (multi-pass when the run count exceeds the
// merge width). With no budget (or no spill store) everything stays in
// memory, matching the original Sort exactly.
type sorter struct {
	ctx      *TaskCtx
	g        *MemGrant
	cols     []SortCol
	emit     func(Tuple) error
	buf      []Tuple
	bufBytes int64
	runs     []*storage.RunFile
}

// spill writes the buffer as one sorted run.
func (s *sorter) spill() error {
	sortTuples(s.buf, s.cols)
	f, err := s.ctx.writeRun("sort", s.buf)
	if err != nil {
		return err
	}
	s.runs = append(s.runs, f)
	s.buf = nil
	s.g.Release(s.bufBytes)
	s.bufBytes = 0
	return nil
}

func (s *sorter) Add(t Tuple) error {
	t = t.Clone()
	sz := TupleMemSize(t)
	if !s.g.Reserve(sz) {
		// Only cut a run once the buffer is worth a file: when a
		// concurrent operator holds most of the budget, spilling on
		// every failed reserve would flood the temp dir with
		// single-tuple runs. Below the floor, force the small excess
		// instead.
		if s.ctx.canSpill() && s.bufBytes >= minSpillRunBytes {
			if err := s.spill(); err != nil {
				return err
			}
		}
		if !s.g.Reserve(sz) {
			s.g.Force(sz)
		}
	}
	s.buf = append(s.buf, t)
	s.bufBytes += sz
	return nil
}

func (s *sorter) End() error {
	defer s.Close()
	ctx, g := s.ctx, s.g
	if err := ctx.Ctx.Err(); err != nil {
		return err
	}
	// A cancelled query stops the sorted stream at the next row.
	emit := func(t Tuple) error {
		if err := s.emit(t); err != nil {
			return err
		}
		return ctx.Ctx.Err()
	}
	sortTuples(s.buf, s.cols)
	if len(s.runs) == 0 {
		return feed(&residentStream{s: s}, emit)
	}
	width := mergeWidth(ctx.Mem)
	// If keeping the sorted tail resident would crowd out the merge
	// stream buffers, spill it as one more run: it becomes the last run,
	// so arrival order — and with it stability — is unchanged, and the
	// merge then runs purely from disk within budget.
	if len(s.buf) > 0 && ctx.canSpill() {
		fanin := len(s.runs) + 1
		if fanin > width {
			fanin = width
		}
		probe := int64(fanin) * mergeStreamMem
		if g.Reserve(probe) {
			g.Release(probe)
		} else if err := s.spill(); err != nil {
			return err
		}
	}
	tail := 0
	if len(s.buf) > 0 {
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
	for len(s.runs)+tail > width {
		runs := s.runs
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
			merged, err := mergeRunsToRun(ctx, g, runs[lo:hi], s.cols)
			if err != nil {
				return err
			}
			for _, f := range runs[lo:hi] {
				f.Close()
			}
			next = append(next, merged)
		}
		s.runs = next
		if err := ctx.Ctx.Err(); err != nil {
			return err
		}
	}
	need := int64(len(s.runs)) * mergeStreamMem
	if !g.Reserve(need) {
		g.Force(need)
	}
	streams := make([]tupleStream, 0, len(s.runs)+tail)
	cursors := make([]*runCursor, 0, len(s.runs))
	defer func() {
		for _, c := range cursors {
			c.close()
		}
	}()
	for _, f := range s.runs {
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
		streams = append(streams, &residentStream{s: s})
	}
	return mergeStreams(streams, s.cols, emit)
}

// Close releases the sort's grant and run files.
func (s *sorter) Close() {
	s.g.ReleaseAll()
	for _, f := range s.runs {
		f.Close()
	}
	s.runs, s.buf = nil, nil
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

// groupByExec is the spilling hash group-by, HashGroup's push form, at
// one recursion depth: the input at depth 0, a spilled partition's run
// below, each with an exec of its own. Tuples aggregate into
// per-partition tables; when a reservation fails, the offending
// partition switches to spill mode — its existing groups stay resident
// (so no aggregation work is lost) and its further tuples go raw to a
// run, capping memory growth. Spilled runs re-aggregate recursively at
// the next depth; run-derived groups merge with the retained resident
// state, preserving arrival order (resident state aggregated strictly
// earlier arrivals than anything in the run, and outer holds the tables
// of the depths above).
type groupByExec struct {
	ctx    *TaskCtx
	g      *MemGrant
	keys   []int
	specs  []AggSpec
	emit   func(Tuple) error
	depth  int
	outer  []*groupTable
	tables []*groupTable
	sinks  []*runSink
}

func newGroupByExec(ctx *TaskCtx, g *MemGrant, keys []int, specs []AggSpec, emit func(Tuple) error, depth int, outer []*groupTable) *groupByExec {
	e := &groupByExec{ctx: ctx, g: g, keys: keys, specs: specs, emit: emit, depth: depth, outer: outer,
		tables: make([]*groupTable, fanout), sinks: make([]*runSink, fanout)}
	for i := range e.tables {
		e.tables[i] = newGroupTable()
	}
	return e
}

func (e *groupByExec) Add(t Tuple) error {
	h := groupHash(t, e.keys)
	p := int(partMix(h, e.depth) % fanout)
	if e.sinks[p] != nil {
		return e.sinks[p].add(t)
	}
	tbl := e.tables[p]
	grp := tbl.lookup(h, t, e.keys)
	need := groupGrowthMem(e.specs, t)
	if grp == nil {
		need += groupCreateMem(t, e.keys, len(e.specs))
	}
	if !e.g.Reserve(need) {
		if e.ctx.canSpill() && e.depth < maxSpillDepth {
			sink, err := e.ctx.newRunSink(fmt.Sprintf("group-d%d-p%d", e.depth, p))
			if err != nil {
				return err
			}
			e.sinks[p] = sink
			return sink.add(t)
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
	return nil
}

func (e *groupByExec) End() error {
	defer e.Close()
	return e.end()
}

// Close releases the group-by's grant.
func (e *groupByExec) Close() { e.g.ReleaseAll() }

// end emits the groups: the resident partitions', then each spilled
// partition's, re-aggregated from its run one depth down.
func (e *groupByExec) end() error {
	if err := e.ctx.Ctx.Err(); err != nil {
		return err
	}
	for p := 0; p < fanout; p++ {
		if e.sinks[p] == nil {
			if err := e.finalizeTable(e.tables[p], e.outer); err != nil {
				return err
			}
		}
	}
	for p := 0; p < fanout; p++ {
		if e.sinks[p] == nil {
			continue
		}
		f, err := e.sinks[p].finish()
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
		sub := newGroupByExec(e.ctx, e.g, e.keys, e.specs, e.emit, e.depth+1, append(e.outer[:len(e.outer):len(e.outer)], e.tables[p]))
		err = feed(cur, sub.Add)
		if err == nil {
			err = sub.end()
		}
		cur.close()
		f.Close()
		e.g.Release(need)
		if err != nil {
			return err
		}
		// Keys of this partition that never reappeared in the run still
		// sit in its resident table.
		if err := e.finalizeTable(e.tables[p], e.outer); err != nil {
			return err
		}
	}
	return e.ctx.Ctx.Err()
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

// match emits the pair of probe and every tuple of the table key-equal
// to it, whose key columns are probeKeys. Keys compare with adm equality
// and a null key matches nothing, exactly as eq() is true.
func (t *JoinTable) match(probe Tuple, probeKeys []int, emit func(b, p Tuple) error) error {
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
			if err := emit(b, probe); err != nil {
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

// hashJoinExec is the hybrid hash join, HashJoin's push form, at one
// recursion depth: the inputs at depth 0, a spilled pair's runs below,
// each with an exec of its own. The build side partitions by a
// depth-varied hash; when a reservation fails, resident partitions are
// evicted (largest first) to build runs (nil where resident) until the
// tuple fits or its own partition went to disk. Probe tuples for
// spilled partitions are deferred to probe runs; at the end each (build
// run, probe run) pair joins recursively, degrading to
// block-nested-loop at the depth cap (the one-giant-key case hashing
// cannot split). keep, when set, is offered the table of a build side
// that stayed wholly resident once the probe is done; a table it takes
// stays reserved against the query's budget until the query ends.
type hashJoinExec struct {
	ctx        *TaskCtx
	g          *MemGrant
	buildKeys  []int
	probeKeys  []int
	emit       func(b, p Tuple) error
	keep       func(part int, t *JoinTable) bool
	depth      int
	resident   [][]Tuple
	memPer     []int64
	n          int
	buildSinks []*runSink
	probeSinks []*runSink
	tbl        *JoinTable
}

func newHashJoinExec(ctx *TaskCtx, g *MemGrant, buildKeys, probeKeys []int, keep func(int, *JoinTable) bool, emit func(b, p Tuple) error, depth int) *hashJoinExec {
	return &hashJoinExec{ctx: ctx, g: g, buildKeys: buildKeys, probeKeys: probeKeys, keep: keep, emit: emit,
		depth: depth, resident: make([][]Tuple, fanout), memPer: make([]int64, fanout),
		buildSinks: make([]*runSink, fanout), probeSinks: make([]*runSink, fanout)}
}

func (e *hashJoinExec) End() error {
	defer e.Close()
	return e.end()
}

// Close releases the join's grant, but for a table keep took.
func (e *hashJoinExec) Close() { e.g.ReleaseAll() }

// reserveOrSpill makes room for sz bytes of partition p's resident
// list, evicting partitions to disk as needed. It reports true when p
// itself spilled (the caller routes the tuple to p's sink).
func (e *hashJoinExec) reserveOrSpill(sz int64, p int) (bool, error) {
	g := e.g
	for {
		if g.Reserve(sz) {
			return false, nil
		}
		if !e.ctx.canSpill() || e.depth >= maxSpillDepth {
			g.Force(sz)
			return false, nil
		}
		victim, best := -1, int64(-1)
		for i := range e.memPer {
			if e.buildSinks[i] != nil {
				continue
			}
			if e.memPer[i] > best {
				best = e.memPer[i]
				victim = i
			}
		}
		if victim < 0 {
			g.Force(sz)
			return false, nil
		}
		sink, err := e.ctx.newRunSink(fmt.Sprintf("join-build-d%d-p%d", e.depth, victim))
		if err != nil {
			return false, err
		}
		for _, bt := range e.resident[victim] {
			if err := sink.add(bt); err != nil {
				return false, err
			}
		}
		e.buildSinks[victim] = sink
		e.resident[victim] = nil
		g.Release(e.memPer[victim])
		e.memPer[victim] = 0
		if victim == p {
			return true, nil
		}
	}
}

func (e *hashJoinExec) AddBuild(t Tuple) error {
	h := joinHash(t, e.buildKeys)
	p := int(partMix(h, e.depth) % fanout)
	if e.buildSinks[p] != nil {
		return e.buildSinks[p].add(t)
	}
	sz := TupleMemSize(t) + joinSlotMem
	spilled, err := e.reserveOrSpill(sz, p)
	if err != nil {
		return err
	}
	if spilled {
		return e.buildSinks[p].add(t)
	}
	e.resident[p] = append(e.resident[p], t)
	e.memPer[p] += sz
	e.n++
	return nil
}

// EndBuild files every resident partition in one table: a probe tuple
// of a spilled partition goes to its run before it could look.
func (e *hashJoinExec) EndBuild() error {
	if err := e.ctx.Ctx.Err(); err != nil {
		return err
	}
	e.tbl = &JoinTable{keys: e.buildKeys, buckets: make(map[uint64][]Tuple, e.n)}
	for p := range e.resident {
		if e.buildSinks[p] != nil {
			continue
		}
		for _, bt := range e.resident[p] {
			h := joinHash(bt, e.buildKeys)
			e.tbl.buckets[h] = append(e.tbl.buckets[h], bt)
		}
		e.tbl.bytes += e.memPer[p]
	}
	e.resident = nil
	return nil
}

func (e *hashJoinExec) Add(t Tuple) error {
	if p := int(partMix(joinHash(t, e.probeKeys), e.depth) % fanout); e.buildSinks[p] != nil {
		if e.probeSinks[p] == nil {
			s, err := e.ctx.newRunSink(fmt.Sprintf("join-probe-d%d-p%d", e.depth, p))
			if err != nil {
				return err
			}
			e.probeSinks[p] = s
		}
		return e.probeSinks[p].add(t)
	}
	return e.tbl.match(t, e.probeKeys, e.emit)
}

// end keeps or releases the table — the resident partitions are fully
// joined, and releasing it first gives the sub-joins the whole budget
// back — then joins the spilled pairs.
func (e *hashJoinExec) end() error {
	if err := e.ctx.Ctx.Err(); err != nil {
		return err
	}
	spilled := false
	for _, s := range e.buildSinks {
		spilled = spilled || s != nil
	}
	if !spilled && e.keep != nil && e.keep(e.ctx.Part, e.tbl) {
		e.g.Retain(e.tbl.bytes)
	} else {
		e.g.Release(e.tbl.bytes)
	}
	for p := 0; p < fanout; p++ {
		if e.buildSinks[p] == nil {
			continue
		}
		bf, err := e.buildSinks[p].finish()
		if err != nil {
			return err
		}
		if e.probeSinks[p] == nil {
			bf.Close() // no probe tuples landed here: nothing can match
			continue
		}
		pf, err := e.probeSinks[p].finish()
		if err != nil {
			bf.Close()
			return err
		}
		err = e.joinRunPair(bf, pf)
		bf.Close()
		pf.Close()
		if err != nil {
			return err
		}
	}
	return e.ctx.Ctx.Err()
}

// joinRunPair joins one spilled (build, probe) pair: recursively while
// re-partitioning can still help, block-nested-loop at the depth cap.
func (e *hashJoinExec) joinRunPair(bf, pf *storage.RunFile) error {
	if e.depth+1 >= maxSpillDepth {
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
	sub := newHashJoinExec(e.ctx, e.g, e.buildKeys, e.probeKeys, nil, e.emit, e.depth+1)
	if err := feed(bc, sub.AddBuild); err != nil {
		return err
	}
	if err := sub.EndBuild(); err != nil {
		return err
	}
	if err := feed(pc, sub.Add); err != nil {
		return err
	}
	return sub.end()
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
