package cluster

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"simdb/internal/adm"
	"simdb/internal/algebra"
	"simdb/internal/hyracks"
	"simdb/internal/invindex"
	"simdb/internal/sim"
	"simdb/internal/storage"
)

// QueryCounters collects similarity-specific work metrics during one
// query (candidate counts feed Table 6).
type QueryCounters struct {
	IndexSearches   atomic.Int64
	CandidatesTotal atomic.Int64
	// PrunedTotal counts the ids the searches' count filter dropped
	// (invindex.SearchStats.Pruned): they reached T, not their own bound.
	PrunedTotal  atomic.Int64
	PostingsRead atomic.Int64
	// VerifiedTotal counts candidates that survived the global
	// verification Select above an index subtree.
	VerifiedTotal atomic.Int64
	// OccurrenceT records the largest T-occurrence threshold any index
	// search of this query ran with (0 = no index search).
	OccurrenceT atomic.Int64
	ScanPassed  atomic.Int64 // rows the scans passed on, after their record filters
}

// noteOccurrenceT raises OccurrenceT to t if larger.
func (qc *QueryCounters) noteOccurrenceT(t int64) {
	for {
		cur := qc.OccurrenceT.Load()
		if t <= cur || qc.OccurrenceT.CompareAndSwap(cur, t) {
			return
		}
	}
}

// planFacts is what job generation needs to know of a plan alone,
// whatever literals it runs with: computed once per compile, and kept
// with a cached plan for all of its hits.
type planFacts struct {
	// live is algebra.LiveVars of the plan: what the end of a pipeline
	// keeps of the chain's variables.
	live map[*algebra.Op]map[algebra.Var]bool
	// others counts each memo's readers other than a hash join that can
	// build on it: a memo can hit or be captured only if it has none.
	others map[*algebra.Op]int
}

// analyzePlan computes the planFacts of the plan rooted at root. A
// memo's Vars are all live above it, whatever this plan reads of them:
// its entry serves every plan with its key.
func analyzePlan(root *algebra.Op) *planFacts {
	f := &planFacts{live: algebra.LiveVars(root), others: map[*algebra.Op]int{}}
	algebra.Walk(root, func(op *algebra.Op) {
		if op.Kind == algebra.OpMemo {
			for _, v := range op.Vars {
				f.live[op][v] = true
			}
		}
		for i, in := range op.Inputs {
			if in.Kind == algebra.OpMemo && memoSide(op) != i {
				f.others[in]++
			}
		}
	})
	return f
}

// boundPlan is a plan as job generation reads it. Job generation never
// writes the plan: a cached one is shared by every hit, concurrent ones
// included. params are the request's literals, which the plan's tagged
// constants take as job generation compiles them (nil: the plan runs as
// compiled); facts are the plan's planFacts.
type boundPlan struct {
	root   *algebra.Op
	params []adm.Value
	facts  *planFacts
}

// jobGen compiles an optimized algebra plan into a hyracks job.
type jobGen struct {
	c     *Cluster
	job   *hyracks.Job
	parts int
	// shared holds a shared node's output, its port the next reader's;
	// the others are generated once.
	shared  map[*algebra.Op]*genOut
	parents map[*algebra.Op]int // over the operators the job runs: none below a memo hit
	// params are the literals the plan's tagged constants take (see
	// boundPlan); every constant job generation reads, it reads through
	// them.
	params   []adm.Value
	live     map[*algebra.Op]map[algebra.Var]bool // planFacts.live
	counters *QueryCounters
	// replay is whether the job may replay memo entries. memoHits are
	// the memo operators this job replays, memoCaps those it captures,
	// memoUse every memo key's outcome, memoReads the one reading of each
	// memo's dataset version by dsKey, and memoEpoch the catalog epoch
	// they are resolved at (memo.go); nil in a plan without memo. budget
	// is the job's memory budget (0 unlimited), which decides whether a
	// key marked unkept may be captured again.
	replay    bool
	budget    int64
	memoHits  map[*algebra.Op]*memoEntry
	memoCaps  map[*algebra.Op]*memoCapture
	memoUse   map[string]string
	memoReads map[string]memoReading
	memoEpoch uint64
}

// genOut is the generated form of one algebra operator.
type genOut struct {
	node   *hyracks.OpNode
	port   int // output port to read: a shared node has one per reader
	schema []algebra.Var
	parts  int
	// sortCols is non-nil when the output is per-partition sorted; it
	// lets parents use order-preserving merge connectors.
	sortCols []hyracks.SortCol
	// fromIndex marks output carrying unverified secondary-index
	// candidates; the first Select above it is the global verification
	// and counts its survivors into QueryCounters.VerifiedTotal.
	fromIndex bool
	// pipe, when non-nil, is all there is: a chain of per-row stages that
	// no job node runs yet. The next per-row operator extends it; anything
	// else reads it through gen, which seals it into one node.
	pipe *pipeline
}

// colMap maps schema variables to column positions.
func colMap(schema []algebra.Var) map[algebra.Var]int {
	m := make(map[algebra.Var]int, len(schema))
	for i, v := range schema {
		m[v] = i
	}
	return m
}

// generateJob compiles the plan (rooted at OpWrite) into a job and
// returns its generator, which holds the job and its memo outcomes and
// captures, plus the result collector. It replays memo entries only if
// replay is set; budget is the memory budget the job will run under.
func (c *Cluster) generateJob(bp boundPlan, counters *QueryCounters, replay bool, budget int64) (*jobGen, *hyracks.Collector, error) {
	root := bp.root
	if root.Kind != algebra.OpWrite {
		return nil, nil, fmt.Errorf("jobgen: plan root is %v, want distribute-result", root.Kind)
	}
	if counters == nil {
		counters = &QueryCounters{}
	}
	g := &jobGen{
		c:        c,
		job:      &hyracks.Job{},
		parts:    c.cfg.Partitions(),
		shared:   map[*algebra.Op]*genOut{},
		parents:  map[*algebra.Op]int{},
		params:   bp.params,
		live:     bp.facts.live,
		counters: counters,
		replay:   replay,
		budget:   budget,
	}
	// Count each operator's readers over what the job will run: a memo
	// hit is probed where it stands, so nothing below it is generated,
	// and a node shared with that subtree has fewer readers.
	seen := map[*algebra.Op]bool{}
	var visit func(op *algebra.Op)
	visit = func(op *algebra.Op) {
		if seen[op] {
			return
		}
		seen[op] = true
		if op.Kind == algebra.OpMemo && g.resolveMemo(op, bp.facts.others[op] == 0) {
			return
		}
		for _, in := range op.Inputs {
			g.parents[in]++
			visit(in)
		}
	}
	visit(root)
	child, err := g.genOpen(root.Inputs[0])
	if err != nil {
		return nil, nil, err
	}
	// Project to the result column; keep any sort columns so a merge into
	// the sink's one instance can preserve a top-level order-by.
	p := g.openPipeline(child)
	p.add("ResultProject", nil)
	collector := &hyracks.Collector{}
	if err := g.deliver(p, append([]algebra.Var{root.Var}, p.sortVars()...), collector); err != nil {
		return nil, nil, err
	}
	return g, collector, nil
}

// deliver ends p's rows, cut to vars, in the result sink c: as the last
// stage of p if p runs in one instance, else of a pipeline over p
// gathered into one, merged in its order if it has one. The sink runs
// on the instance goroutine, so a Sink that blocks holds up the rows
// behind it.
func (g *jobGen) deliver(p *pipeline, vars []algebra.Var, c *hyracks.Collector) error {
	if p.parts > 1 {
		res, err := g.seal(p, vars)
		if err != nil {
			return err
		}
		p = g.openPort(res, gatherConn(res), 1)
	}
	p.add("DistributeResult", nil)
	p.sink = c
	_, err := g.seal(p, vars)
	return err
}

// gatherConn gathers out into one instance, merged in its order if it
// has one.
func gatherConn(out *genOut) hyracks.ConnectorSpec {
	if out.sortCols != nil {
		return hyracks.ConnectorSpec{Type: hyracks.MergeOne, SortCols: out.sortCols}
	}
	return hyracks.ConnectorSpec{Type: hyracks.GatherOne}
}

// inputFrom builds the Input edge from a generated child.
func (g *jobGen) inputFrom(child *genOut, conn hyracks.ConnectorSpec) hyracks.Input {
	return hyracks.Input{From: child.node, FromPort: child.port, Conn: conn}
}

// gen compiles one algebra node into something a job node can read.
func (g *jobGen) gen(op *algebra.Op) (*genOut, error) {
	out, err := g.genOpen(op)
	if err != nil {
		return nil, err
	}
	return g.sealed(out, op)
}

// sealed closes the pipeline out ends in, if any, keeping the variables
// live above op.
func (g *jobGen) sealed(out *genOut, op *algebra.Op) (*genOut, error) {
	if out.pipe == nil {
		return out, nil
	}
	return g.seal(out.pipe, out.pipe.liveVars(g.live[op]))
}

// genOpen compiles one algebra node and leaves a pipeline it ends in
// open for the caller to extend. A shared node is generated once, its
// pipeline ending in a Replicate stage, a materializing fan-out with a
// port per reader — the runtime form of the paper's Figure 20
// materialize/reuse; each reader is a pipeline over its own port. The
// empty tuple is a source of each reader's own.
func (g *jobGen) genOpen(op *algebra.Op) (*genOut, error) {
	if g.parents[op] <= 1 || op.Kind == algebra.OpEmpty {
		return g.genFresh(op)
	}
	out, ok := g.shared[op]
	if !ok {
		fresh, err := g.genFresh(op)
		if err != nil {
			return nil, err
		}
		p := g.openPipeline(fresh)
		p.add("Replicate", nil)
		p.readers = g.parents[op]
		if out, err = g.seal(p, p.liveVars(g.live[op])); err != nil {
			return nil, err
		}
		g.shared[op] = out
	}
	view := *out
	out.port++
	return &view, nil
}

// genFresh compiles a node that has not been seen yet.
func (g *jobGen) genFresh(op *algebra.Op) (*genOut, error) {
	switch op.Kind {
	case algebra.OpEmpty:
		p := g.openSource(nil, 1, func(_ *hyracks.TaskCtx, row hyracks.Tuple, next step) error {
			return next(row)
		})
		p.everywhere = true
		return p.out, nil
	case algebra.OpScan:
		return g.genScan(op)
	case algebra.OpSelect, algebra.OpAssign, algebra.OpProject, algebra.OpUnnest:
		in, err := g.genOpen(op.Inputs[0])
		if err != nil {
			return nil, err
		}
		p := g.openPipeline(in)
		return p.out, p.stage(op, g.counters)
	case algebra.OpOrder:
		return g.genOrder(op)
	case algebra.OpRank, algebra.OpLimit:
		return g.genGathered(op)
	case algebra.OpAggregate:
		return g.genAggregate(op)
	case algebra.OpGroupBy:
		return g.genGroupBy(op)
	case algebra.OpJoin:
		return g.genJoin(op)
	case algebra.OpUnion:
		return g.genUnion(op)
	case algebra.OpSecondarySearch:
		return g.genSecondarySearch(op)
	case algebra.OpPrimaryLookup:
		return g.genPrimaryLookup(op)
	case algebra.OpMemo:
		return g.genMemo(op)
	}
	return nil, fmt.Errorf("jobgen: unsupported operator %v", op.Kind)
}

func (g *jobGen) genScan(op *algebra.Op) (*genOut, error) {
	dv, ds := op.Dataverse, op.Dataset
	meta, ok := g.c.Catalog.Dataset(dv, ds)
	if !ok {
		return nil, fmt.Errorf("jobgen: unknown dataset %s.%s", dv, ds)
	}
	pkField := meta.PKField
	fields := scanFields(op.ProjectFields, pkField)
	keep, filter := adm.NewKeepSet(fields), op.Filter
	start, end := scanBounds(op.Range, g.params)
	c, counters := g.c, g.counters
	p := g.openSource([]algebra.Var{op.PKVar, op.RecVar}, g.parts, func(ctx *hyracks.TaskCtx, row hyracks.Tuple, next step) error {
		return c.scanPartition(ctx, dv, ds, pkField, start, end, fields, keep, filter, counters, row, next)
	})
	p.add("DataScan("+ds+")", nil)
	return p.out, nil
}

// scanBounds turns a scan's key range into the storage key range
// [start, end) it reads, nil for an unbounded end. Both ends are closed
// whatever their strictness: a number's ordered key is its float64 image
// (adm.OrderedKey), so beyond 2^53 a strict end would drop keys the
// select keeps, while the select still drops what a closed end lets
// through. Any scalar end is sound — adm.Compare orders kinds by rank,
// and the ordered key leads with the same rank. An empty range yields
// start >= end, which storage reads as no key. The ends are bound to
// params (see boundPlan).
func scanBounds(r *algebra.KeyRange, params []adm.Value) (start, end []byte) {
	if r == nil {
		return nil, nil
	}
	if r.Lo != nil {
		start = adm.OrderedKey(r.Lo.Bound(params))
	}
	if r.Hi != nil {
		// The successor of the upper end's key: no key lies between.
		end = append(adm.OrderedKey(r.Hi.Bound(params)), 0)
	}
	return start, end
}

// scanFields turns a scan's projection annotation into the field list
// the storage layer needs: the referenced top-level fields plus the
// primary key's top-level field (the scan always extracts the pk from
// the record). Nil stays nil — scan everything.
func scanFields(project []string, pkField string) []string {
	if project == nil {
		return nil
	}
	pk := pkField
	if i := strings.IndexByte(pk, '.'); i >= 0 {
		pk = pk[:i]
	}
	out := append(append(make([]string, 0, len(project)+1), project...), pk)
	seen := make(map[string]bool, len(out))
	dedup := out[:0]
	for _, f := range out {
		if !seen[f] {
			seen[f] = true
			dedup = append(dedup, f)
		}
	}
	return dedup
}

// step runs one stage of a pipeline over the scratch row, and the stages
// after it.
type step func(row hyracks.Tuple) error

// stage is one per-row operator compiled into a pipeline: given the
// instance it runs in and the step that follows it, it builds that
// instance's step.
type stage func(inst *instance, next step) (step, error)

// source heads a pipeline that reads no port: it writes each row it
// produces into the first slots of the instance's scratch row and runs
// next over it.
type source func(ctx *hyracks.TaskCtx, row hyracks.Tuple, next step) error

// instance is one operator instance of a pipeline's node. A stage that
// holds something for the instance's lifetime (a lookup's snapshot, a
// push form's memory and runs) registers its release as it builds its
// step, and seal runs the releases on every exit path: error,
// cancellation, end of input. A stage that holds rows until its input
// ends registers its end, which seal runs once the input has ended.
type instance struct {
	ctx *hyracks.TaskCtx
	// cur is the tuple the chain's last segment started from, which a
	// chain that hands it on unchanged emits.
	cur hyracks.Tuple
	// builds are the ports the stages read as the instance starts, in
	// pipeline.builds order.
	builds  []*hyracks.PortReader
	closers []func()
	ends    []func() error
}

func (inst *instance) onClose(f func())     { inst.closers = append(inst.closers, f) }
func (inst *instance) onEnd(f func() error) { inst.ends = append(inst.ends, f) }

// end runs the stages' ends in chain order once the input has ended:
// the steps are built from the last stage to the first, so the first
// stage's end was registered last. A blocking stage's end pushes its
// rows through the stages after it, whose own ends come after.
func (inst *instance) end() error {
	if err := inst.ctx.Ctx.Err(); err != nil {
		return err
	}
	for i := len(inst.ends) - 1; i >= 0; i-- {
		if err := inst.ends[i](); err != nil {
			return err
		}
	}
	return inst.ctx.Ctx.Err()
}

func (inst *instance) close() {
	for i := len(inst.closers) - 1; i >= 0; i-- {
		inst.closers[i]()
	}
}

// pipeline builds the one job node of a maximal chain of operators
// between two places rows change partition, headed by the port it reads
// (a union's, by each input's port in turn) or by a source: a scan, or
// the empty tuple. Its stages are the per-row operators (select, assign,
// project, unnest, index search, primary lookup, rank, limit, and the
// select or project a join, a union input and the result add) and the
// push forms of hyracks (sort, group-by, aggregate, join); it ends in a
// port, in a fan-out to the ports of the readers that share it, or in
// the result sink. Every instance owns a scratch row per segment: the
// source writes its row, or the input tuple is copied, into the first
// slots of the head segment's, a stage writes the variables it defines
// into slots of their own, and the compiled evaluators index the row by
// slot, so nothing is allocated until the last stage builds the output
// tuple of a surviving row from the slots that are still live. A push
// form's output heads a segment of its own. An evaluator may read the
// row only while it runs (the next input overwrites it); a value it
// returns is immutable and may be kept.
type pipeline struct {
	// in are the ports the chain reads, one after another; none under a
	// source.
	in    []hyracks.Input
	src   source // the chain's source, nil if it reads in
	parts int    // instances of the chain's node
	// readers is how many readers share the chain, each over a port of
	// its own; more than one ends the chain in a fan-out. sink, when
	// set, is the result collector the chain ends in instead of a port.
	readers int
	sink    *hyracks.Collector
	out     *genOut             // the open genOut that stands for the chain
	schema  []algebra.Var       // variables visible after the last stage
	cols    map[algebra.Var]int // visible variable -> slot of seg's row
	head    *segment            // the segment the input starts
	seg     *segment            // the segment the last stage ends in
	params  []adm.Value         // the job's jobGen.params
	stages  []stage
	names   []string // stage names, in order: the node's name
	// builds are the ports a join's stage reads its build side from as
	// an instance starts.
	builds []hyracks.Input
	// sorted is the order of the chain's rows within an instance, by
	// slot of the scratch row; nil for none.
	sorted []hyracks.SortCol
	// everywhere: every instance yields the same rows (the chain is over
	// the empty tuple and reads no partition), so it may run in as many
	// instances as its reader needs.
	everywhere bool
	fromIndex  bool
}

// segment is a stretch of a pipeline over one scratch row: from the
// head, or from a push form's output, to the next push form or the end.
type segment struct {
	width int // slots of the row
	// n is the number of slots its start writes. owned: they are copied
	// from one tuple nothing changes afterwards (the port's, or one a push
	// form emits), which the end of the chain may emit as it is.
	n     int
	owned bool
}

// partsOf returns the instances out runs in.
func partsOf(out *genOut) int {
	if out.pipe != nil {
		return out.pipe.parts
	}
	return out.parts
}

// openPipeline returns the pipeline out ends in, or starts one above it.
func (g *jobGen) openPipeline(out *genOut) *pipeline {
	if out.pipe != nil {
		return out.pipe
	}
	n := len(out.schema)
	p := &pipeline{
		parts:  out.parts,
		schema: append([]algebra.Var(nil), out.schema...),
		cols:   colMap(out.schema),
		head:   &segment{width: n, n: n, owned: true},
		params: g.params,
		sorted: out.sortCols, fromIndex: out.fromIndex,
	}
	if out.node != nil {
		p.in = []hyracks.Input{g.inputFrom(out, hyracks.ConnectorSpec{Type: hyracks.OneToOne})}
	}
	p.seg = p.head
	p.out = &genOut{pipe: p}
	return p
}

// openPort starts a pipeline that reads in, a sealed node, through conn
// in parts instances. Only a merge keeps in's order.
func (g *jobGen) openPort(in *genOut, conn hyracks.ConnectorSpec, parts int) *pipeline {
	p := g.openPipeline(in)
	p.in[0].Conn, p.parts = conn, parts
	if conn.Type != hyracks.MergeOne {
		p.sorted = nil
	}
	return p
}

// gathered returns a pipeline over open in one instance: open's own,
// extended, if it runs in one, and otherwise a new one over it sealed,
// merged in its order if it has one.
func (g *jobGen) gathered(open *genOut, below *algebra.Op) (*pipeline, error) {
	if partsOf(open) == 1 {
		return g.openPipeline(open), nil
	}
	in, err := g.sealed(open, below)
	if err != nil {
		return nil, err
	}
	return g.openPort(in, gatherConn(in), 1), nil
}

// openSource starts a pipeline headed by src, in parts instances, whose
// rows bind vars.
func (g *jobGen) openSource(vars []algebra.Var, parts int, src source) *pipeline {
	p := g.openPipeline(&genOut{schema: vars, parts: parts})
	p.src = src
	p.head.owned = false
	return p
}

// bind gives each variable a fresh slot of the scratch row.
func (p *pipeline) bind(vars ...algebra.Var) []int {
	slots := make([]int, len(vars))
	for i, v := range vars {
		slots[i] = p.seg.width
		p.cols[v] = p.seg.width
		p.seg.width++
	}
	p.schema = append(p.schema, vars...)
	return slots
}

// slotsOf returns the slots of vars.
func (p *pipeline) slotsOf(vars []algebra.Var) ([]int, error) {
	slots := make([]int, len(vars))
	for i, v := range vars {
		c, ok := p.cols[v]
		if !ok {
			return nil, fmt.Errorf("jobgen: var %v missing from schema %v", v, p.schema)
		}
		slots[i] = c
	}
	return slots, nil
}

// pushEmit is where a push form's stage sends what the form emits: a
// row, or a join's build and probe rows, which head the next segment.
type pushEmit func(a, b hyracks.Tuple) error

// one sends a single row.
func (e pushEmit) one(t hyracks.Tuple) error { return e(t, nil) }

// push adds a stage that a push form runs. Each row hands the form the
// slots of in, in that order, in a tuple the instance reuses; what the
// form emits heads a new segment of the chain, whose variables are out:
// one row (owned, so the end of the chain may emit it as it is) or a
// join's pair of rows. mk makes an instance's form, given where it
// emits; a form it returns is closed, with an error or without.
func (p *pipeline) push(name string, in, out []algebra.Var, owned bool, mk func(inst *instance, emit pushEmit) (hyracks.Push, error)) error {
	slots, err := p.slotsOf(in)
	if err != nil {
		return err
	}
	seg := &segment{width: len(out), n: len(out), owned: owned}
	p.seg, p.schema, p.cols, p.sorted, p.everywhere = seg, append([]algebra.Var(nil), out...), colMap(out), nil, false
	p.add(name, func(inst *instance, next step) (step, error) {
		row := make(hyracks.Tuple, seg.width)
		form, err := mk(inst, func(a, b hyracks.Tuple) error {
			inst.cur = a
			copy(row, a)
			copy(row[len(a):], b)
			return next(row)
		})
		if form != nil {
			inst.onClose(form.Close)
		}
		if err != nil {
			return nil, err
		}
		inst.onEnd(form.End)
		buf := make(hyracks.Tuple, len(slots))
		return func(r hyracks.Tuple) error {
			for i, s := range slots {
				buf[i] = r[s]
			}
			return form.Add(buf)
		}, nil
	})
	return nil
}

// blocking adds a stage that a push form emitting single rows runs, as
// push does.
func (p *pipeline) blocking(name string, in, out []algebra.Var, mk func(ctx *hyracks.TaskCtx, emit func(hyracks.Tuple) error) hyracks.Push) error {
	return p.push(name, in, out, true, func(inst *instance, emit pushEmit) (hyracks.Push, error) {
		return mk(inst.ctx, emit.one), nil
	})
}

// sort adds a Sort stage: the chain's rows, cut to vars, sorted by
// orders, whose keys are variables among vars.
func (p *pipeline) sort(vars []algebra.Var, orders []algebra.OrderSpec) error {
	exprs := make([]algebra.Expr, len(orders))
	for i, o := range orders {
		exprs[i] = o.E
	}
	cols, err := colsOf(exprs, colMap(vars), "order key")
	if err != nil {
		return err
	}
	sortCols := make([]hyracks.SortCol, len(orders))
	for i, o := range orders {
		sortCols[i] = hyracks.SortCol{Col: cols[i], Desc: o.Desc}
	}
	err = p.blocking("Sort", vars, vars, func(ctx *hyracks.TaskCtx, emit func(hyracks.Tuple) error) hyracks.Push {
		return hyracks.Sort(ctx, sortCols, emit)
	})
	p.sorted = sortCols
	return err
}

// aggStage names the stage of a scalar aggregate by its phase.
var aggStage = [...]string{hyracks.AggWhole: "Aggregate", hyracks.AggLocal: "AggregateLocal", hyracks.AggFinal: "AggregateFinal"}

// aggregate adds a scalar aggregate's stage in phase over the chain's
// rows, cut to in, defining out.
func (p *pipeline) aggregate(phase hyracks.AggPhase, in, out []algebra.Var, specs []hyracks.AggSpec) error {
	p.fromIndex = false
	return p.blocking(aggStage[phase], in, out, func(_ *hyracks.TaskCtx, emit func(hyracks.Tuple) error) hyracks.Push {
		return hyracks.Aggregate(specs, phase, emit)
	})
}

// groupForm makes a group-by's push form (hyracks.SortGroup or HashGroup).
type groupForm func(ctx *hyracks.TaskCtx, keys []int, aggs []hyracks.AggSpec, emit func(hyracks.Tuple) error) hyracks.Push

// group adds a group-by's stage: form groups the chain's rows, cut to
// in, on the columns keys of in, into rows of out.
func (p *pipeline) group(name string, form groupForm, in, out []algebra.Var, keys []int, specs []hyracks.AggSpec) error {
	p.fromIndex = false
	return p.blocking(name, in, out, func(ctx *hyracks.TaskCtx, emit func(hyracks.Tuple) error) hyracks.Push {
		return form(ctx, keys, specs, emit)
	})
}

// rank numbers the chain's rows in order into v's slot.
func (p *pipeline) rank(v algebra.Var) {
	slot := p.bind(v)[0]
	p.everywhere = false
	p.add("Rank", func(_ *instance, next step) (step, error) {
		var i int64
		return func(row hyracks.Tuple) error {
			i++
			row[slot] = adm.NewInt(i)
			return next(row)
		}, nil
	})
}

// limit passes on the chain's first n rows.
func (p *pipeline) limit(n int64) {
	p.everywhere = false
	p.add("Limit", func(_ *instance, next step) (step, error) {
		var seen int64
		return func(row hyracks.Tuple) error {
			if seen >= n {
				return nil
			}
			seen++
			return next(row)
		}, nil
	})
}

func (p *pipeline) add(name string, st stage) {
	p.names = append(p.names, name)
	if st != nil {
		p.stages = append(p.stages, st)
	}
}

// sortVars names the variables the chain's rows are sorted on.
func (p *pipeline) sortVars() []algebra.Var {
	var vars []algebra.Var
	for _, v := range p.schema {
		if slices.ContainsFunc(p.sorted, func(sc hyracks.SortCol) bool { return sc.Col == p.cols[v] }) {
			vars = append(vars, v)
		}
	}
	return vars
}

// liveVars is what the end of the chain keeps: the visible variables
// that are live above it or carry its sort order, in schema order.
func (p *pipeline) liveVars(live map[algebra.Var]bool) []algebra.Var {
	sorted := p.sortVars()
	var keep []algebra.Var
	for _, v := range p.schema {
		if live[v] || slices.Contains(sorted, v) {
			keep = append(keep, v)
		}
	}
	return keep
}

// sel adds a select: the fused-assign evaluators run first, filling
// their slots, then the condition evaluator decides. The first select
// above an index subtree is the global verification of the paper's index
// plans: its survivors are the true results among the T-occurrence
// candidates. Survivors are few, so one atomic add each stays off the
// per-row hot path.
func (p *pipeline) sel(name string, cond algebra.Expr, fusedVars []algebra.Var, fusedExprs []algebra.Expr, counters *QueryCounters) {
	verifier := p.fromIndex
	p.fromIndex = false
	slots := p.bind(fusedVars...)
	evals := compileEvals(p.cols, p.params, append([]algebra.Expr{cond}, fusedExprs...)...)
	ev, fused := evals[0], evals[1:]
	p.add(name, func(_ *instance, next step) (step, error) {
		return func(row hyracks.Tuple) error {
			if err := fill(row, slots, fused); err != nil {
				return err
			}
			v, err := ev(row)
			if err != nil || !algebra.Truthy(v) {
				return err
			}
			if verifier {
				counters.VerifiedTotal.Add(1)
			}
			return next(row)
		}, nil
	})
}

// stage compiles one per-row algebra operator onto the end of the chain.
func (p *pipeline) stage(op *algebra.Op, counters *QueryCounters) error {
	switch op.Kind {
	case algebra.OpSelect:
		name := "Select"
		if p.fromIndex {
			name = "Select(verify)"
		}
		if len(op.FusedAssignVars) > 0 {
			name += "(fused-assign)"
		}
		p.sel(name, op.Cond, op.FusedAssignVars, op.FusedAssignExprs, counters)
	case algebra.OpAssign:
		p.assign(op.AssignVars, op.AssignExprs)
	case algebra.OpProject:
		p.sorted = nil
		return p.project(op.Vars)
	case algebra.OpUnnest:
		p.unnest(op.Expr, op.UnnestVar, op.PosVar)
	}
	return nil
}

func (p *pipeline) assign(vars []algebra.Var, exprs []algebra.Expr) {
	// The expressions see the input only, not one another's variables.
	evals := compileEvals(p.cols, p.params, exprs...)
	slots := p.bind(vars...)
	p.add("Assign", func(_ *instance, next step) (step, error) {
		return func(row hyracks.Tuple) error {
			if err := fill(row, slots, evals); err != nil {
				return err
			}
			return next(row)
		}, nil
	})
}

// fill evaluates evals over the row, in order, each into its slot.
func fill(row hyracks.Tuple, slots []int, evals []algebra.CompiledEval) error {
	for i, ev := range evals {
		v, err := ev(row)
		if err != nil {
			return err
		}
		row[slots[i]] = v
	}
	return nil
}

// project narrows the visible schema to vars. It has no runtime step:
// the slots stay where they are and the end of the chain picks.
func (p *pipeline) project(vars []algebra.Var) error {
	cols := make(map[algebra.Var]int, len(vars))
	for _, v := range vars {
		c, ok := p.cols[v]
		if !ok {
			return fmt.Errorf("jobgen: project var %v missing from schema", v)
		}
		cols[v] = c
	}
	p.schema, p.cols = append([]algebra.Var(nil), vars...), cols
	p.add("Project", nil)
	return nil
}

// unnest loops over the collection in its slot: the stages after it run
// once per element.
func (p *pipeline) unnest(e algebra.Expr, elemVar, posVar algebra.Var) {
	evals := compileEvals(p.cols, p.params, e)
	ev := evals[0]
	slot, posSlot := p.bind(elemVar)[0], -1
	if posVar != 0 {
		posSlot = p.bind(posVar)[0]
	}
	p.sorted = nil
	p.add("Unnest", func(_ *instance, next step) (step, error) {
		return func(row hyracks.Tuple) error {
			v, err := ev(row)
			if err != nil || v.IsNull() {
				return err
			}
			if v.Kind() != adm.KindList && v.Kind() != adm.KindBag {
				return fmt.Errorf("unnest over %v value", v.Kind())
			}
			for i, e := range v.Elems() {
				row[slot] = e
				if posSlot >= 0 {
					row[posSlot] = adm.NewInt(int64(i + 1))
				}
				if err := next(row); err != nil {
					return err
				}
			}
			return nil
		}, nil
	})
}

// seal ends the chain in one job node that emits vars: to its port, to
// the port of each reader that shares it, or to the result sink. Only
// here is a tuple allocated, one per surviving row; a chain that hands
// the tuple its last segment started from on unchanged emits that tuple
// itself, and one over a single one-to-one port with nothing to run and
// nothing to drop adds no node at all. A chain headed by a source is a
// node with no input but the ports its joins build from.
func (g *jobGen) seal(p *pipeline, vars []algebra.Var) (*genOut, error) {
	slots, err := p.slotsOf(vars)
	if err != nil {
		return nil, err
	}
	same := p.seg.owned && len(vars) == p.seg.n
	for i, c := range slots {
		same = same && c == i
	}
	out := &genOut{schema: vars, parts: p.parts, fromIndex: p.fromIndex}
	// The output is sorted as the chain's rows are if every sort slot
	// survives (liveVars and the result keep them).
	for _, sc := range p.sorted {
		i := slices.Index(slots, sc.Col)
		if i < 0 {
			out.sortCols = nil
			break
		}
		out.sortCols = append(out.sortCols, hyracks.SortCol{Col: i, Desc: sc.Desc})
	}
	ports := max(p.readers, 1)
	if p.sink != nil {
		ports = 0
	}
	if len(p.stages) == 0 && same && ports == 1 && len(p.in) == 1 && p.in[0].Conn.Type == hyracks.OneToOne {
		out.node, out.port = p.in[0].From, p.in[0].FromPort
		return out, nil
	}
	heads := len(p.in)
	inputs := append(p.in, p.builds...)
	stages, width, src, sink := p.stages, p.head.width, p.src, p.sink
	out.node = g.job.Add(strings.Join(p.names, "+"), p.parts, func(ctx *hyracks.TaskCtx, in []*hyracks.PortReader, outs []*hyracks.Emitter) error {
		inst := &instance{ctx: ctx, builds: in[heads:]}
		defer inst.close()
		var fan hyracks.Push
		if len(outs) > 1 {
			fan = hyracks.FanOut(ctx, outs)
			inst.onClose(fan.Close)
			inst.onEnd(fan.End)
		}
		first := step(func(row hyracks.Tuple) error {
			t := inst.cur
			if !same {
				t = make(hyracks.Tuple, len(slots))
				for i, s := range slots {
					t[i] = row[s]
				}
			}
			switch {
			case sink != nil:
				return sink.Collect(ctx, t)
			case fan != nil:
				return fan.Add(t)
			}
			outs[0].Emit(t)
			return nil
		})
		for i := len(stages) - 1; i >= 0; i-- {
			var err error
			if first, err = stages[i](inst, first); err != nil {
				return err
			}
		}
		row := make(hyracks.Tuple, width)
		if src != nil {
			if err := src(ctx, row, first); err != nil {
				return err
			}
		}
		for _, port := range in[:heads] {
			for {
				t, ok := port.Next()
				if !ok {
					break
				}
				inst.cur = t
				copy(row, t)
				if err := first(row); err != nil {
					return err
				}
			}
		}
		return inst.end()
	}, inputs...)
	out.node.OutPorts = ports
	return out, nil
}

// inOrder reports whether out is already sorted by orders in each
// partition: the order it advertises starts with theirs, variable for
// variable and direction for direction.
func inOrder(out *genOut, orders []algebra.OrderSpec) bool {
	cols, sorted := colMap(out.schema), out.sortCols
	if p := out.pipe; p != nil {
		cols, sorted = p.cols, p.sorted
	}
	if len(orders) > len(sorted) {
		return false
	}
	for i, o := range orders {
		vr, ok := o.E.(algebra.VarRef)
		if c, in := cols[vr.V]; !ok || !in || c != sorted[i].Col || sorted[i].Desc != o.Desc {
			return false
		}
	}
	return true
}

// genOrder sorts each partition of its input as a stage of the pipeline
// it ends in, unless the input already has the order: then the Order
// generates nothing, and the pipeline stays as it is (the plan keeps the
// Order, which the paper's Figure 15 counts).
func (g *jobGen) genOrder(op *algebra.Op) (*genOut, error) {
	open, err := g.genOpen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	if inOrder(open, op.Orders) {
		return open, nil
	}
	p := g.openPipeline(open)
	return p.out, p.sort(p.liveVars(g.live[op.Inputs[0]]), op.Orders)
}

// genGathered adds a rank or a limit: a per-row stage over all of its
// input's rows in order, so of a pipeline in one instance, the input's
// own if it runs in one, else one that gathers it, merged in its order.
func (g *jobGen) genGathered(op *algebra.Op) (*genOut, error) {
	open, err := g.genOpen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	p, err := g.gathered(open, op.Inputs[0])
	if err != nil {
		return nil, err
	}
	if op.Kind == algebra.OpRank {
		p.rank(op.PosVar)
	} else {
		p.limit(op.Count)
	}
	return p.out, nil
}

// aggKindOf maps algebra aggregate kinds to runtime kinds.
func aggKindOf(k algebra.AggKind) hyracks.AggKind {
	switch k {
	case algebra.AggCount:
		return hyracks.AggCount
	case algebra.AggSum:
		return hyracks.AggSum
	case algebra.AggMin:
		return hyracks.AggMin
	case algebra.AggMax:
		return hyracks.AggMax
	case algebra.AggAvg:
		return hyracks.AggAvg
	case algebra.AggListify:
		return hyracks.AggListify
	case algebra.AggFirst:
		return hyracks.AggFirst
	}
	return hyracks.AggCount
}

// decomposable reports whether all aggregates support local
// pre-aggregation with a combining final pass.
func decomposable(aggs []algebra.AggDef) bool {
	for _, a := range aggs {
		switch a.Kind {
		case algebra.AggCount, algebra.AggSum, algebra.AggMin, algebra.AggMax:
		default:
			return false
		}
	}
	return true
}

// combineKind gives the final-pass aggregate for a partial column.
func combineKind(k algebra.AggKind) hyracks.AggKind {
	if k == algebra.AggCount {
		return hyracks.AggSum // partial counts are summed
	}
	return aggKindOf(k)
}

// aggSpecsFor resolves aggregate input columns through the schema.
func aggSpecsFor(aggs []algebra.AggDef, cols map[algebra.Var]int) ([]hyracks.AggSpec, error) {
	out := make([]hyracks.AggSpec, len(aggs))
	for i, a := range aggs {
		out[i].Kind = aggKindOf(a.Kind)
		if a.Kind != algebra.AggCount {
			in, err := colsOf([]algebra.Expr{a.E}, cols, "aggregate input")
			if err != nil {
				return nil, err
			}
			out[i].In = in[0]
		}
	}
	return out, nil
}

// aggVars returns the variables the aggregates define.
func aggVars(aggs []algebra.AggDef) []algebra.Var {
	vars := make([]algebra.Var, len(aggs))
	for i, a := range aggs {
		vars[i] = a.V
	}
	return vars
}

// genAggregate aggregates its input as a stage of the pipeline it ends
// in when the aggregates decompose and the input is partitioned: each
// partition's rows fold into a local partial, which the final stage in
// one instance combines. Otherwise the whole input is aggregated in one
// instance.
func (g *jobGen) genAggregate(op *algebra.Op) (*genOut, error) {
	open, err := g.genOpen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	schema := aggVars(op.Aggs)
	phase := hyracks.AggWhole
	var p *pipeline
	if decomposable(op.Aggs) && partsOf(open) > 1 {
		phase, p = hyracks.AggLocal, g.openPipeline(open)
	} else if p, err = g.gathered(open, op.Inputs[0]); err != nil {
		return nil, err
	}
	in := p.liveVars(g.live[op.Inputs[0]])
	specs, err := aggSpecsFor(op.Aggs, colMap(in))
	if err != nil {
		return nil, err
	}
	if err := p.aggregate(phase, in, schema, specs); err != nil || phase == hyracks.AggWhole {
		return p.out, err
	}
	partial, err := g.seal(p, schema)
	if err != nil {
		return nil, err
	}
	final := slices.Clone(specs)
	for i := range final {
		final[i].In = i
	}
	p = g.openPort(partial, hyracks.ConnectorSpec{Type: hyracks.GatherOne}, 1)
	return p.out, p.aggregate(hyracks.AggFinal, schema, schema, final)
}

// groupCols resolves the keys and aggregates of a group-by through vars,
// the row its stage is handed.
func groupCols(op *algebra.Op, vars []algebra.Var) ([]int, []hyracks.AggSpec, error) {
	cols := colMap(vars)
	exprs := make([]algebra.Expr, len(op.Keys))
	for i, k := range op.Keys {
		exprs[i] = k.E
	}
	keyCols, err := colsOf(exprs, cols, "group key")
	if err != nil {
		return nil, nil, err
	}
	specs, err := aggSpecsFor(op.Aggs, cols)
	return keyCols, specs, err
}

// genGroupBy groups its input in a pipeline over a hash port on the
// keys. Under the hash hint, aggregates that decompose are first
// pre-aggregated per partition, as a stage of the pipeline the input
// ends in (Figure 12's stage 1 shape); the final stage then groups the
// partials, keys 0..k-1 and partials k..k+n-1.
func (g *jobGen) genGroupBy(op *algebra.Op) (*genOut, error) {
	open, err := g.genOpen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	schema := make([]algebra.Var, 0, len(op.Keys)+len(op.Aggs))
	for _, k := range op.Keys {
		schema = append(schema, k.V)
	}
	schema = append(schema, aggVars(op.Aggs)...)
	// The default is the sort-based aggregation: hash-repartition on the
	// keys, then sort each partition and stream-group, in one stage.
	// (Repartition-then-sort rather than sort-then-merge: bounded merge
	// connectors can deadlock when skewed producers fill one consumer's
	// buffer while another consumer still waits for that producer's
	// first frame.)
	name, form := "SortGroup", hyracks.SortGroup
	if op.HashHint {
		name, form = "HashGroup", hyracks.HashGroup
	}
	var in *genOut
	var keyCols []int
	var specs []hyracks.AggSpec
	if op.HashHint && decomposable(op.Aggs) && partsOf(open) > 1 {
		p := g.openPipeline(open)
		vars := p.liveVars(g.live[op.Inputs[0]])
		if keyCols, specs, err = groupCols(op, vars); err != nil {
			return nil, err
		}
		if err := p.group("HashGroupLocal", form, vars, schema, keyCols, specs); err != nil {
			return nil, err
		}
		if in, err = g.seal(p, schema); err != nil {
			return nil, err
		}
		keyCols, specs = make([]int, len(op.Keys)), make([]hyracks.AggSpec, len(op.Aggs))
		for i := range keyCols {
			keyCols[i] = i
		}
		for i, a := range op.Aggs {
			specs[i] = hyracks.AggSpec{Kind: combineKind(a.Kind), In: len(keyCols) + i}
		}
		name = "HashGroupFinal"
	} else {
		if in, err = g.sealed(open, op.Inputs[0]); err != nil {
			return nil, err
		}
		if keyCols, specs, err = groupCols(op, in.schema); err != nil {
			return nil, err
		}
	}
	p := g.openPort(in, hyracks.ConnectorSpec{Type: hyracks.Hash, HashCols: keyCols}, g.parts)
	return p.out, p.group(name, form, in.schema, schema, keyCols, specs)
}

// colsOf resolves exprs, each a variable, to their columns in cols;
// what names them in an error.
func colsOf(exprs []algebra.Expr, cols map[algebra.Var]int, what string) ([]int, error) {
	out := make([]int, len(exprs))
	for i, e := range exprs {
		vr, ok := e.(algebra.VarRef)
		if !ok {
			return nil, fmt.Errorf("jobgen: %s not normalized: %s", what, e)
		}
		c, ok := cols[vr.V]
		if !ok {
			return nil, fmt.Errorf("jobgen: %s var %v missing", what, vr.V)
		}
		out[i] = c
	}
	return out, nil
}

// readBuild hands a join its whole build side from port r.
func readBuild(r *hyracks.PortReader, j hyracks.JoinPush) error {
	for {
		t, ok := r.Next()
		if !ok {
			return j.EndBuild()
		}
		if err := j.AddBuild(t); err != nil {
			return err
		}
	}
}

// genJoin joins as a stage of the pipeline over the probe side: the
// probe side's own when the build side is broadcast and the probe side
// runs in every partition, else one over a port that brings the probe
// rows to their partition. The stage reads the build side from a port of
// its own as an instance starts, or probes the tables a memo kept.
func (g *jobGen) genJoin(op *algebra.Op) (*genOut, error) {
	if op.Phys == algebra.JoinPhysUnset {
		return nil, fmt.Errorf("jobgen: join without a physical algorithm (optimizer bug)")
	}
	// A hash join builds on a memo that hits or is captured, so its
	// table is the one kept. A hit is not generated: the join probes the
	// tables the entry kept, laid out as the memo's Vars.
	build := op.BuildSide
	if s := memoSide(op); s >= 0 && (g.memoHits[op.Inputs[s]] != nil || g.memoCaps[op.Inputs[s]] != nil) {
		build = s
	}
	probe := 1 - build
	memo := op.Inputs[build]
	hit := g.memoHits[memo]
	var buildOut, probeOpen *genOut
	for i, in := range op.Inputs {
		var err error
		switch {
		case i == probe:
			probeOpen, err = g.genOpen(in)
		case hit != nil:
			buildOut = &genOut{schema: memo.Vars, parts: g.parts}
		default:
			buildOut, err = g.gen(in)
		}
		if err != nil {
			return nil, err
		}
	}
	sideKeys := [2][]algebra.Expr{op.JoinLeftKeys, op.JoinRightKeys}
	broadcast := op.Phys != algebra.JoinPhysHash
	var p *pipeline
	if broadcast && partsOf(probeOpen) == g.parts {
		p = g.openPipeline(probeOpen)
	} else {
		in, err := g.sealed(probeOpen, op.Inputs[probe])
		if err != nil {
			return nil, err
		}
		conn := hyracks.ConnectorSpec{Type: hyracks.RoundRobin}
		if !broadcast {
			keys, err := colsOf(sideKeys[probe], colMap(in.schema), "join key")
			if err != nil {
				return nil, err
			}
			conn = hyracks.ConnectorSpec{Type: hyracks.Hash, HashCols: keys}
		}
		p = g.openPort(in, conn, g.parts)
	}
	probeVars := p.liveVars(g.live[op.Inputs[probe]])
	outSchema := append(append([]algebra.Var(nil), buildOut.schema...), probeVars...)
	p.fromIndex = p.fromIndex || buildOut.fromIndex
	cond := op.Cond

	switch op.Phys {
	case algebra.JoinPhysHash, algebra.JoinPhysBroadcastHash:
		buildKeys, err := colsOf(sideKeys[build], colMap(buildOut.schema), "join key")
		if err != nil {
			return nil, err
		}
		probeKeys, err := colsOf(sideKeys[probe], colMap(probeVars), "join key")
		if err != nil {
			return nil, err
		}
		if hit != nil {
			err = p.push("HashJoin(kept)", probeVars, outSchema, false, func(inst *instance, emit pushEmit) (hyracks.Push, error) {
				return hyracks.HashJoinKept(hit.table(inst.ctx.Part), probeKeys, emit), nil
			})
		} else {
			buildConn, slots := hyracks.ConnectorSpec{Type: hyracks.Hash, HashCols: buildKeys}, g.parts
			if broadcast {
				buildConn, slots = hyracks.ConnectorSpec{Type: hyracks.Broadcast}, 1
			}
			port := p.addBuild(g.inputFrom(buildOut, buildConn))
			keep := g.memoCaps[memo].keeper(slots)
			err = p.push("HashJoin", probeVars, outSchema, false, func(inst *instance, emit pushEmit) (hyracks.Push, error) {
				j := hyracks.HashJoin(inst.ctx, buildKeys, probeKeys, keep, emit)
				return j, readBuild(inst.builds[port], j)
			})
		}
		if err != nil {
			return nil, err
		}
	case algebra.JoinPhysNestedLoop:
		ev := compileEvals(colMap(outSchema), g.params, cond)[0]
		pred := func(row hyracks.Tuple) (bool, error) {
			v, err := ev(row)
			if err != nil {
				return false, err
			}
			return algebra.Truthy(v), nil
		}
		port := p.addBuild(g.inputFrom(buildOut, hyracks.ConnectorSpec{Type: hyracks.Broadcast}))
		err := p.push("NestedLoopJoin", probeVars, outSchema, false, func(inst *instance, emit pushEmit) (hyracks.Push, error) {
			j := hyracks.NestedLoopJoin(inst.ctx, pred, emit)
			return j, readBuild(inst.builds[port], j)
		})
		return p.out, err
	default:
		return nil, fmt.Errorf("jobgen: unknown join phys %v", op.Phys)
	}

	// A hash join's condition is what its keys leave over (the optimizer
	// took the key equalities out when it chose the algorithm): evaluate
	// it as the stage after the join. That doubles as the global
	// verification when an index subtree feeds the join.
	if !isAlwaysTrue(cond, g.params) {
		p.sel("JoinPostSelect", cond, nil, nil, g.counters)
	}
	return p.out, nil
}

// addBuild adds a port a join's stage reads its build side from and
// returns its index among them.
func (p *pipeline) addBuild(in hyracks.Input) int {
	p.builds = append(p.builds, in)
	return len(p.builds) - 1
}

// isAlwaysTrue reports whether e, bound to params, is the constant true.
func isAlwaysTrue(e algebra.Expr, params []adm.Value) bool {
	c, ok := e.(algebra.Const)
	if !ok {
		return false
	}
	v := c.Bound(params)
	return v.Kind() == adm.KindBool && v.Bool()
}

// genUnion heads a pipeline that reads each input's port in turn, in
// every partition (bag union, no dedup). Each input is cut to the
// union's columns as the last stage of the pipeline below it.
func (g *jobGen) genUnion(op *algebra.Op) (*genOut, error) {
	var heads []hyracks.Input
	var fromIndex bool
	for i, child := range op.Inputs {
		open, err := g.genOpen(child)
		if err != nil {
			return nil, err
		}
		p := g.openPipeline(open)
		p.add("UnionProject", nil)
		in, err := g.seal(p, op.InVars[i])
		if err != nil {
			return nil, err
		}
		fromIndex = fromIndex || in.fromIndex
		conn := hyracks.ConnectorSpec{Type: hyracks.OneToOne}
		if in.parts != g.parts {
			conn = hyracks.ConnectorSpec{Type: hyracks.RoundRobin}
		}
		heads = append(heads, g.inputFrom(in, conn))
	}
	p := g.openPipeline(&genOut{schema: op.OutVars, parts: g.parts, fromIndex: fromIndex})
	p.in = heads
	p.add("Union", nil)
	return p.out, nil
}

// genSecondarySearch adds the search to the pipeline its input ends in
// as a stage: the key and T of each row select the candidates of the
// instance's partition, and the stages after it run once per candidate,
// its pk bound to op.OutVar. Every partition's index is searched for
// every input row. A chain over the empty tuple yields the same rows in
// any instance, so it runs in every partition; any other input (an
// index nested-loop join's outer side) is read through a broadcast
// port. Over the bare empty tuple the search runs once per partition,
// so its candidates, sorted and distinct as SearchBounded returns them,
// are in pk order; in a chain that reads no port they are what the node
// reads, and the instance reports them as its tuples in.
func (g *jobGen) genSecondarySearch(op *algebra.Op) (*genOut, error) {
	open, err := g.genOpen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	if open.pipe == nil || !open.pipe.everywhere {
		in, err := g.sealed(open, op.Inputs[0])
		if err != nil {
			return nil, err
		}
		open = g.openPort(in, hyracks.ConnectorSpec{Type: hyracks.Broadcast}, g.parts).out
	}
	p := open.pipe
	evals := compileEvals(p.cols, p.params, op.KeyExpr, op.TExpr)
	keyEval, tEval := evals[0], evals[1]
	slot := p.bind(op.OutVar)[0]
	p.sorted = nil
	if p.everywhere && len(p.stages) == 0 {
		p.sorted = []hyracks.SortCol{{Col: slot}}
	}
	leaf := p.src != nil
	p.parts, p.everywhere, p.fromIndex = g.parts, false, true
	c, counters := g.c, g.counters
	dv, ds, ixName, bound, algo := op.Dataverse, op.Dataset, op.IndexName, op.Bound, c.tOccAlgo
	p.add("SecondaryIndexSearch("+ixName+")", func(inst *instance, next step) (step, error) {
		ctx := inst.ctx
		done := ctx.Ctx.Done()
		return func(row hyracks.Tuple) error {
			keyVal, err := keyEval(row)
			if err != nil || keyVal.IsNull() {
				return err
			}
			tVal, err := tEval(row)
			if err != nil {
				return err
			}
			tNum, ok := tVal.Num()
			if !ok {
				return fmt.Errorf("secondary search: non-numeric T %v", tVal)
			}
			if int(tNum) <= 0 {
				return fmt.Errorf("secondary search: T=%d reached the index (corner case not handled by the plan)", int(tNum))
			}
			tokens, err := tokensFromValue(keyVal)
			if err != nil {
				return err
			}
			pks, err := c.searchIndex(dv, ds, ixName, ctx.Part, tokens, bound.Bounds(len(tokens), int(tNum)), algo, counters)
			if err != nil {
				return err
			}
			if leaf {
				ctx.RowsRead += int64(len(pks))
			}
			for _, pk := range pks {
				select {
				case <-done:
					return ctx.Ctx.Err()
				default:
				}
				row[slot] = pk
				if err := next(row); err != nil {
					return err
				}
			}
			return nil
		}, nil
	})
	return p.out, nil
}

// tokensFromValue converts a secondary search key to tokens: a token
// list through algebra.TokensOf, as IndexTokens coerces the indexed
// field, and a single string as one token.
func tokensFromValue(v adm.Value) ([]string, error) {
	if toks, ok := algebra.TokensOf(v); ok {
		return toks, nil
	}
	if v.Kind() == adm.KindString {
		return []string{v.Str()}, nil
	}
	return nil, fmt.Errorf("secondary search key is %v, want a token list", v.Kind())
}

// genPrimaryLookup adds the lookup to the pipeline its input ends in, or
// starts one above it.
func (g *jobGen) genPrimaryLookup(op *algebra.Op) (*genOut, error) {
	in, err := g.genOpen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	meta, ok := g.c.Catalog.Dataset(op.Dataverse, op.Dataset)
	if !ok {
		return nil, fmt.Errorf("jobgen: unknown dataset %s.%s", op.Dataverse, op.Dataset)
	}
	p := g.openPipeline(in)
	p.lookup(g.c, op, meta.PKField)
	return p.out, nil
}

// lookup adds a primary-index lookup: a row's key becomes the record
// stored under it, bound with its pk to the op's PKVar and RecVar, and a
// key with no record, or a record the op's filter rejects, ends the row.
// Each instance resolves its partition's tree once and takes one
// snapshot as it starts, so every lookup of the query reads the same
// version of the partition; the snapshot is released on every exit
// path, so a dying query never pins retired components. The rows keep
// the order of their keys, but that order is the lookup's own locality
// (the plan sorts the pks for it), which nothing above reads: the chain
// stops advertising it, and the result gathers instead of merging.
func (p *pipeline) lookup(c *Cluster, op *algebra.Op, pkField string) {
	ev := compileEvals(p.cols, p.params, op.PKExpr)[0]
	slots := p.bind(op.PKVar, op.RecVar)
	raw := op.RawPK
	dv, ds := op.Dataverse, op.Dataset
	fields := scanFields(op.ProjectFields, pkField)
	proj, keep, filter := storage.NewProjection(fields), adm.NewKeepSet(fields), op.Filter
	p.sorted = nil
	p.add("PrimaryIndexLookup("+ds+")", func(inst *instance, next step) (step, error) {
		tree, err := c.nodeOfPartition(inst.ctx.Part).primary(dv, ds, inst.ctx.Part)
		if err != nil {
			return nil, err
		}
		snap := tree.Snapshot()
		inst.onClose(snap.Close)
		rf := rowFilter(filter)
		return func(row hyracks.Tuple) error {
			v, err := ev(row)
			if err != nil || v.IsNull() {
				return err
			}
			var key []byte
			if raw {
				if v.Kind() != adm.KindString {
					return fmt.Errorf("primary lookup: raw key is %v", v.Kind())
				}
				key = []byte(v.Str())
			} else {
				key = adm.OrderedKey(v)
			}
			val, found, err := snap.GetProjected(key, proj)
			if err != nil || !found || !rf.PassRecord(val) {
				return err
			}
			rec, err := decodeRecord(val, keep)
			if err != nil {
				return err
			}
			row[slots[0]], _ = rec.Rec().GetPath(pkField)
			row[slots[1]] = rec
			return next(row)
		}, nil
	})
}

// scanPartition runs next over one partition of a dataset, each record
// with its pk in the first two slots of row. The scan reads a refcounted
// LSM snapshot (never blocking concurrent writers) and honors ctx
// cancellation between batches. A non-nil fields list restricts the
// scan to those top-level record fields: columnar components read only
// the matching column blocks, and row components skip decoding the
// unreferenced fields. The records then carry just the projected
// fields, which is only correct because the optimizer proved no other
// field is used. A non-nil filter goes to storage with the projection:
// a row it rejects is never assembled or decoded. The instance reports
// the rows storage read as its tuples in, and adds the rows it ran next
// over to counters.ScanPassed. Only keys in [start, end) are read (nil:
// unbounded).
func (c *Cluster) scanPartition(ctx *hyracks.TaskCtx, dv, ds, pkField string, start, end []byte, fields []string, keep adm.KeepSet, filter *algebra.RecordFilter, counters *QueryCounters, row hyracks.Tuple, next step) error {
	tree, err := c.nodeOfPartition(ctx.Part).primary(dv, ds, ctx.Part)
	if err != nil {
		return err
	}
	var scanErr error
	var passed int64
	read, err := tree.ScanProjectedContext(ctx.Ctx, start, end, fields, rowFilter(filter), func(key, val []byte) bool {
		rec, err := decodeRecord(val, keep)
		if err == nil {
			row[0], _ = rec.Rec().GetPath(pkField)
			row[1] = rec
			passed++
			err = next(row)
		}
		scanErr = err
		return err == nil
	})
	ctx.RowsRead = read
	counters.ScanPassed.Add(passed)
	if scanErr != nil {
		return scanErr
	}
	return err
}

// rowFilter compiles a source's record filter for one operator
// instance; nil stays nil.
func rowFilter(f *algebra.RecordFilter) *storage.RowFilter {
	if f == nil {
		return nil
	}
	return &storage.RowFilter{Field: f.Field, Pass: f.New()}
}

// decodeRecord decodes a stored record value. Under a projection it
// materializes only the kept fields and skips over the rest — the
// value may be a partial record (columnar component) or a whole one
// (memtable, row component); a value the projected decoder does not
// take falls back to the full decode.
func decodeRecord(val []byte, keep adm.KeepSet) (adm.Value, error) {
	if keep != nil {
		if rec, ok := adm.DecodeRecordProjected(val, keep); ok {
			return rec, nil
		}
	}
	rec, _, err := adm.Decode(val)
	return rec, err
}

// searchIndex runs a bounded T-occurrence search on the local partition
// of an inverted index, returning candidate keys as raw-key string
// values in sorted order.
func (c *Cluster) searchIndex(dv, ds, ixName string, part int, tokens []string, b sim.Bounds, algo invindex.Algorithm, counters *QueryCounters) ([]adm.Value, error) {
	node := c.nodeOfPartition(part)
	inv, err := node.invIndex(dv, ds, ixName, part)
	if err != nil {
		return nil, err
	}
	pks, stats, err := inv.SearchBounded(tokens, b, algo)
	if err != nil {
		return nil, err
	}
	if counters != nil {
		counters.IndexSearches.Add(1)
		counters.CandidatesTotal.Add(int64(stats.Candidates))
		counters.PrunedTotal.Add(int64(stats.Pruned))
		counters.PostingsRead.Add(stats.PostingsRead)
		counters.noteOccurrenceT(int64(stats.T))
	}
	out := make([]adm.Value, len(pks))
	for i, pk := range pks {
		out[i] = adm.NewString(string(pk))
	}
	return out, nil
}
