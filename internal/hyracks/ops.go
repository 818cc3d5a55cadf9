package hyracks

import (
	"sync"
	"sync/atomic"

	"simdb/internal/adm"
)

// The runtime operator library. Every operator of the paper's plans is
// a push form (Push), which a pipeline runs as a stage of its one node;
// a pipeline several readers share ends in a FanOut, and the result
// pipeline in a Collector. Expression logic arrives as closures compiled
// by the algebra layer, so the runtime stays independent of the query
// language.

// Push is an operator in push form: a stage of a pipeline, handed its
// input one row at a time (Add) and told when the input ends (End). It
// pushes what it emits into the function it was made with: a per-row
// form during Add, a blocking one during End. Add reads its row only
// while it runs, so the caller may reuse it; a form that holds rows
// holds copies. End releases what the form holds once it has emitted
// everything; Close releases it on every other exit path, and may run
// after End.
type Push interface {
	Add(t Tuple) error
	End() error
	Close()
}

// JoinPush is a join in push form. Its build side is handed over first,
// AddBuild keeping each row, and ended with EndBuild; the probe side
// then flows through Add and End like any Push. A join emits each pair
// as its build row and its probe row, the probe row valid only while
// emit runs.
type JoinPush interface {
	Push
	AddBuild(t Tuple) error
	EndBuild() error
}

// Sort holds its input and, at the end, emits it sorted by cols. Per
// partition; a MergeOne connector downstream extends the order across
// partitions. Under a memory budget it runs as an external merge sort —
// sorted runs spill to disk and a stable k-way merge produces the
// output — so the sort stays stable and byte-identical to the in-memory
// path at any budget.
func Sort(ctx *TaskCtx, cols []SortCol, emit func(Tuple) error) Push {
	return &sorter{ctx: ctx, g: ctx.Grant(), cols: cols, emit: emit}
}

// AggKind enumerates aggregate functions for group-by and scalar
// aggregation.
type AggKind int

// Aggregate kinds. Listify collects values into an ordered list (the
// "with $v" semantics of AQL group-by); First keeps the first value.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
	AggAvg
	AggListify
	AggFirst
)

// AggSpec aggregates input column In into an output column.
type AggSpec struct {
	Kind AggKind
	In   int // input column; ignored for AggCount
}

type aggState struct {
	count int64
	sum   float64
	sumI  int64
	isInt bool
	min   adm.Value
	max   adm.Value
	list  []adm.Value
	first adm.Value
	has   bool
}

func (a *aggState) add(spec AggSpec, t Tuple) {
	switch spec.Kind {
	case AggCount:
		a.count++
	case AggSum, AggAvg:
		v := t[spec.In]
		if f, ok := v.Num(); ok {
			isInt := v.Kind() == adm.KindInt
			if isInt {
				a.sumI += v.Int()
			}
			a.isInt = isInt && (a.isInt || !a.has)
			a.count++
			a.sum += f
			a.has = true
		}
	case AggMin:
		v := t[spec.In]
		if !a.has || adm.Less(v, a.min) {
			a.min = v
			a.has = true
		}
	case AggMax:
		v := t[spec.In]
		if !a.has || adm.Less(a.max, v) {
			a.max = v
			a.has = true
		}
	case AggListify:
		a.list = append(a.list, t[spec.In])
	case AggFirst:
		if !a.has {
			a.first = t[spec.In]
			a.has = true
		}
	}
}

// addPartial folds in the partial result in column spec.In of t — the
// result of a state over the rows of one partition that had some — as
// merge folds that state: a count adds the partition's count, the other
// kinds take the partial as they take a row.
func (a *aggState) addPartial(spec AggSpec, t Tuple) {
	if spec.Kind == AggCount {
		a.count += t[spec.In].Int()
		return
	}
	a.add(spec, t)
}

func (a *aggState) result(spec AggSpec) adm.Value {
	switch spec.Kind {
	case AggCount:
		return adm.NewInt(a.count)
	case AggSum:
		if !a.has {
			return adm.Null
		}
		if a.isInt {
			return adm.NewInt(a.sumI)
		}
		return adm.NewDouble(a.sum)
	case AggAvg:
		if a.count == 0 {
			return adm.Null
		}
		return adm.NewDouble(a.sum / float64(a.count))
	case AggMin:
		if !a.has {
			return adm.Null
		}
		return a.min
	case AggMax:
		if !a.has {
			return adm.Null
		}
		return a.max
	case AggListify:
		return adm.NewList(a.list)
	case AggFirst:
		if !a.has {
			return adm.Null
		}
		return a.first
	}
	return adm.Null
}

// merge folds o into a, where a aggregated tuples that all arrived
// before o's (the spilling group-by merges a partition's resident state
// with the re-aggregated state of its later, spilled tuples).
func (a *aggState) merge(spec AggSpec, o *aggState) {
	switch spec.Kind {
	case AggCount:
		a.count += o.count
	case AggSum, AggAvg:
		if !o.has {
			return
		}
		if !a.has {
			*a = *o
			return
		}
		a.count += o.count
		a.sum += o.sum
		a.sumI += o.sumI
		a.isInt = a.isInt && o.isInt
	case AggMin:
		if o.has && (!a.has || adm.Less(o.min, a.min)) {
			a.min = o.min
			a.has = true
		}
	case AggMax:
		if o.has && (!a.has || adm.Less(a.max, o.max)) {
			a.max = o.max
			a.has = true
		}
	case AggListify:
		a.list = append(a.list, o.list...)
	case AggFirst:
		if !a.has && o.has {
			a.first = o.first
			a.has = true
		}
	}
}

// HashGroup groups its input by the key columns using a hash table and
// emits, at the end, one row per group: key columns followed by one
// column per aggregate. Input must already be partitioned by the keys
// (Hash connector) for global correctness; the "/*+ hash */" hint of the
// paper's stage 1 maps here.
// Under a memory budget, HashGroup spills: tuples hash into partitions,
// and a partition whose table can no longer grow keeps its aggregated
// groups resident while routing further raw tuples to a run file; the
// run re-aggregates recursively and merges with the retained state.
func HashGroup(ctx *TaskCtx, keys []int, aggs []AggSpec, emit func(Tuple) error) Push {
	return newGroupByExec(ctx, ctx.Grant(), keys, aggs, emit, 0, nil)
}

// SortGroup is the sort-based group-by: it sorts its input by the key
// columns, as Sort does, and at the end streams one row per key run. It
// is the default AsterixDB aggregation the paper's "/*+ hash */" hint
// replaces.
func SortGroup(ctx *TaskCtx, keys []int, aggs []AggSpec, emit func(Tuple) error) Push {
	cols := make([]SortCol, len(keys))
	for i, k := range keys {
		cols[i] = SortCol{Col: k}
	}
	sg := &sortGroup{keys: keys, aggs: aggs, out: emit}
	sg.sorter = &sorter{ctx: ctx, g: ctx.Grant(), cols: cols, emit: sg.add}
	return sg
}

type sortGroup struct {
	*sorter
	keys   []int
	aggs   []AggSpec
	out    func(Tuple) error
	key    Tuple // the current key run's, nil before the first row
	states []aggState
}

// add folds the next row in key order into its key run, emitting the
// run before it when a key column differs; only then is the key copied
// out of the row.
func (s *sortGroup) add(t Tuple) error {
	same := s.key != nil
	for i := 0; same && i < len(s.keys); i++ {
		same = adm.Compare(t[s.keys[i]], s.key[i]) == 0
	}
	if !same {
		if err := s.flush(); err != nil {
			return err
		}
		s.key = make(Tuple, len(s.keys))
		for i, k := range s.keys {
			s.key[i] = t[k]
		}
		s.states = make([]aggState, len(s.aggs))
	}
	for i, spec := range s.aggs {
		s.states[i].add(spec, t)
	}
	return nil
}

// flush emits the current key run, if any.
func (s *sortGroup) flush() error {
	if s.key == nil {
		return nil
	}
	row := make(Tuple, 0, len(s.keys)+len(s.aggs))
	row = append(row, s.key...)
	for i, spec := range s.aggs {
		row = append(row, s.states[i].result(spec))
	}
	return s.out(row)
}

func (s *sortGroup) End() error {
	if err := s.sorter.End(); err != nil {
		return err
	}
	return s.flush()
}

// AggPhase is the part a scalar aggregate plays in an aggregation.
type AggPhase int

// AggWhole aggregates all the rows, and emits one row over none too.
// AggLocal is one partition's pre-aggregation for AggFinal: over no rows
// it emits none, so an empty partition has no partial to combine.
// AggFinal combines the AggLocal rows of the same aggregates, aggs[i]'s
// partial in column i: it folds each in as aggState.merge folds a state,
// and over no partials emits the results of empty input (a count of 0,
// a null min).
const (
	AggWhole AggPhase = iota
	AggLocal
	AggFinal
)

// Aggregate computes scalar aggregates over its input, in phase, and
// emits their results as one row at the end.
func Aggregate(aggs []AggSpec, phase AggPhase, emit func(Tuple) error) Push {
	return &aggregate{specs: aggs, phase: phase, states: make([]aggState, len(aggs)), emit: emit}
}

type aggregate struct {
	specs  []AggSpec
	phase  AggPhase
	states []aggState
	emit   func(Tuple) error
	rows   int64
}

func (a *aggregate) Add(t Tuple) error {
	a.rows++
	for i, spec := range a.specs {
		if a.phase == AggFinal {
			a.states[i].addPartial(spec, t)
		} else {
			a.states[i].add(spec, t)
		}
	}
	return nil
}

func (a *aggregate) End() error {
	if a.phase == AggLocal && a.rows == 0 {
		return nil
	}
	row := make(Tuple, len(a.specs))
	for i, spec := range a.specs {
		row[i] = a.states[i].result(spec)
	}
	return a.emit(row)
}

func (a *aggregate) Close() {}

// HashJoin builds a hash table on its build side and probes it with
// every probe row, emitting key-equal pairs. Keys compare with adm
// equality (null keys never match). Both inputs must be partitioned
// compatibly (Hash/Hash or Broadcast build).
// Under a memory budget, HashJoin runs as a hybrid hash join: build
// partitions that outgrow the budget spill to disk (largest-resident
// first), their probe tuples are deferred to probe runs, and at the end
// each spilled pair joins recursively — degrading to a
// block-nested-loop pass for data hashing cannot split. keep, when
// non-nil, is offered the instance's table once its probe is done, if
// no part of the build side spilled; a table it takes is probed by
// HashJoinKept in later jobs and must not change.
func HashJoin(ctx *TaskCtx, buildKeys, probeKeys []int, keep func(part int, t *JoinTable) bool, emit func(b, p Tuple) error) JoinPush {
	return newHashJoinExec(ctx, ctx.Grant(), buildKeys, probeKeys, keep, emit, 0)
}

// HashJoinKept is the probe half of a HashJoin whose build half ran in
// an earlier job, a per-row form: it probes table, which a HashJoin
// kept, with each row and emits what that HashJoin would have.
func HashJoinKept(table *JoinTable, probeKeys []int, emit func(b, p Tuple) error) Push {
	return &keptProbe{table: table, probeKeys: probeKeys, emit: emit}
}

type keptProbe struct {
	table     *JoinTable
	probeKeys []int
	emit      func(b, p Tuple) error
}

func (k *keptProbe) Add(t Tuple) error { return k.table.match(t, k.probeKeys, k.emit) }
func (k *keptProbe) End() error        { return nil }
func (k *keptProbe) Close()            {}

// NestedLoopJoin materializes its build side and, for each probe row,
// emits the pairs satisfying pred. pred sees a pair as the build row
// followed by the probe row, in a scratch row the form reuses, so it may
// read the row only while it runs; a nil pred joins every pair (a cross
// product). Under a memory budget, the build side overflows to a spill
// run; the spilled path then joins in probe blocks (block-nested-loop),
// re-scanning the build buffer once per block instead of once per row,
// the last block at the end.
func NestedLoopJoin(ctx *TaskCtx, pred func(row Tuple) (bool, error), emit func(b, p Tuple) error) JoinPush {
	g := ctx.Grant()
	return &nestedLoopJoin{ctx: ctx, g: g, build: newSpillableBuffer(ctx, g, "nlj-build"), pred: pred, emit: emit}
}

type nestedLoopJoin struct {
	ctx      *TaskCtx
	g        *MemGrant
	build    *spillableBuffer
	pred     func(row Tuple) (bool, error)
	emit     func(b, p Tuple) error
	scratch  Tuple
	block    []Tuple
	blockMem int64
}

func (j *nestedLoopJoin) AddBuild(t Tuple) error { return j.build.add(t) }
func (j *nestedLoopJoin) EndBuild() error        { return j.build.finish() }

func (j *nestedLoopJoin) pair(b, t Tuple) error {
	if j.pred != nil {
		j.scratch = append(append(j.scratch[:0], b...), t...)
		ok, err := j.pred(j.scratch)
		if err != nil || !ok {
			return err
		}
	}
	return j.emit(b, t)
}

func (j *nestedLoopJoin) Add(t Tuple) error {
	if !j.build.spilled() {
		// Everything resident: keep the legacy probe-major order.
		for _, b := range j.build.mem {
			if err := j.pair(b, t); err != nil {
				return err
			}
		}
		return nil
	}
	// Spilled: batch probe rows into budget-sized blocks and make one
	// pass over the build buffer (disk suffix included) per block, so
	// build I/O is amortized across the block.
	t = t.Clone()
	sz := TupleMemSize(t)
	if !j.g.Reserve(sz) {
		if err := j.flush(); err != nil {
			return err
		}
		if !j.g.Reserve(sz) {
			j.g.Force(sz)
		}
	}
	j.block = append(j.block, t)
	j.blockMem += sz
	return nil
}

// flush joins the block of probe rows with one pass over the build side.
func (j *nestedLoopJoin) flush() error {
	if len(j.block) == 0 {
		return nil
	}
	err := j.build.each(func(b Tuple) error {
		for _, t := range j.block {
			if err := j.pair(b, t); err != nil {
				return err
			}
		}
		return nil
	})
	j.block = nil
	j.g.Release(j.blockMem)
	j.blockMem = 0
	if err != nil {
		return err
	}
	return j.ctx.Ctx.Err()
}

func (j *nestedLoopJoin) End() error {
	defer j.Close()
	if err := j.flush(); err != nil {
		return err
	}
	return j.ctx.Ctx.Err()
}

// Close releases the build buffer and the grant.
func (j *nestedLoopJoin) Close() {
	j.build.close()
	j.g.ReleaseAll()
}

// FanOut is the end of a pipeline that several readers share, one
// output port each (the paper's Figure 20 "Materialize" under
// "Replicate"): Add keeps each row, spilling past the grant, and End
// emits all of them to every port, each port on a goroutine of its own
// and closed the moment its stream ends. Materializing first makes the
// fan-out safe when its readers depend on one another, as in the
// three-stage self-join where stage 1's output joins stage 2's; closing
// each port on its own keeps one slow reader from holding every other
// port's end of stream. Unlike the other push forms, FanOut keeps the
// rows Add is handed, which must not change afterwards.
func FanOut(ctx *TaskCtx, outs []*Emitter) Push {
	g := ctx.Grant()
	return &fanOut{ctx: ctx, g: g, buf: newSpillableBuffer(ctx, g, "replicate"), outs: outs}
}

type fanOut struct {
	ctx  *TaskCtx
	g    *MemGrant
	buf  *spillableBuffer
	outs []*Emitter
}

func (f *fanOut) Add(t Tuple) error { return f.buf.add(t) }

func (f *fanOut) End() error {
	if err := f.buf.finish(); err != nil {
		return err
	}
	if f.buf.spilled() {
		// Each port goroutine re-reads the overflow run through its own
		// reader; reserve their buffers before fanning out (the grant is
		// single-goroutine).
		need := int64(len(f.outs)) * mergeStreamMem
		if !f.g.Reserve(need) {
			f.g.Force(need)
		}
	}
	errs := make([]error, len(f.outs))
	var wg sync.WaitGroup
	for i, em := range f.outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f.buf.each(func(t Tuple) error {
				em.Emit(t)
				return nil
			})
			em.Close()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return f.ctx.Ctx.Err()
}

// Close releases the buffer and the grant.
func (f *fanOut) Close() {
	f.buf.close()
	f.g.ReleaseAll()
}

// Collector is the result sink of a job: the last stage of its one
// pipeline in one instance hands it every result row through Collect.
//
// With Sink set, the collector streams: every tuple is handed to Sink
// as it arrives instead of being buffered in Tuples, so a consumer sees
// the first row while upstream operators are still producing later
// ones. Collect runs on the instance goroutine, so a Sink that blocks
// exerts backpressure through the connectors' bounded frame channels —
// upstream buffering stays bounded by a frame multiple (DefaultChanCap
// × FrameSize per edge), never by the result size. A Sink error aborts
// the job and propagates out of Run.
type Collector struct {
	Tuples []Tuple
	// Sink, when non-nil, receives each tuple in result order instead of
	// buffering it. Set it before the job runs.
	Sink func(Tuple) error
	// Delivered counts tuples collected or streamed so far; readable
	// while the job runs.
	Delivered atomic.Int64
}

// Collect hands t, which must not change afterwards, to the sink or the
// buffer, and counts it as a row ctx's instance delivered.
func (c *Collector) Collect(ctx *TaskCtx, t Tuple) error {
	if c.Sink != nil {
		if err := c.Sink(t); err != nil {
			return err
		}
	} else {
		c.Tuples = append(c.Tuples, t)
	}
	c.Delivered.Add(1)
	ctx.RowsDelivered++
	return nil
}
