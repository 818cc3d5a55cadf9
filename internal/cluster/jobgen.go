package cluster

import (
	"fmt"
	"strings"
	"sync/atomic"

	"simdb/internal/adm"
	"simdb/internal/algebra"
	"simdb/internal/hyracks"
	"simdb/internal/invindex"
	"simdb/internal/storage"
)

// QueryCounters collects similarity-specific work metrics during one
// query (candidate counts feed Table 6).
type QueryCounters struct {
	IndexSearches   atomic.Int64
	CandidatesTotal atomic.Int64
	PostingsRead    atomic.Int64
	// VerifiedTotal counts candidates that survived the global
	// verification Select above an index subtree.
	VerifiedTotal atomic.Int64
	// OccurrenceT records the largest T-occurrence threshold any index
	// search of this query ran with (0 = no index search).
	OccurrenceT atomic.Int64
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

// jobGen compiles an optimized algebra plan into a hyracks job.
type jobGen struct {
	c        *Cluster
	job      *hyracks.Job
	parts    int
	memo     map[*algebra.Op]*genOut // shared nodes only: the others are generated once
	parents  map[*algebra.Op]int
	portUsed map[*algebra.Op]int
	// live is algebra.LiveVars of the plan: what the end of a pipeline
	// keeps of the chain's variables.
	live     map[*algebra.Op]map[algebra.Var]bool
	counters *QueryCounters
	// tOccAlgo is the job's T-occurrence solver, resolved once when the
	// job is generated: every search of the job runs the same one.
	tOccAlgo invindex.Algorithm
}

// genOut is the generated form of one algebra operator.
type genOut struct {
	node   *hyracks.OpNode
	port   int // output port to read (replicated shared nodes use >0)
	schema []algebra.Var
	parts  int
	// sortCols is non-nil when the output is per-partition sorted; it
	// lets parents use order-preserving merge connectors.
	sortCols []hyracks.SortCol
	// rep is the Replicate node inserted for shared algebra nodes.
	rep *hyracks.OpNode
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

// GenerateJob compiles the plan (rooted at OpWrite) and returns the
// job plus the result collector. The job's index searches run tOccAlgo.
func (c *Cluster) GenerateJob(root *algebra.Op, counters *QueryCounters, tOccAlgo invindex.Algorithm) (*hyracks.Job, *hyracks.Collector, error) {
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
		memo:     map[*algebra.Op]*genOut{},
		parents:  map[*algebra.Op]int{},
		portUsed: map[*algebra.Op]int{},
		live:     algebra.LiveVars(root),
		counters: counters,
		tOccAlgo: tOccAlgo,
	}
	algebra.Walk(root, func(op *algebra.Op) {
		for _, in := range op.Inputs {
			g.parents[in]++
		}
	})
	child, err := g.genOpen(root.Inputs[0])
	if err != nil {
		return nil, nil, err
	}
	// Project to the result column; keep any sort columns so a MergeOne
	// sink can preserve a top-level order-by.
	p := openPipeline(child)
	p.add("ResultProject", nil)
	res, err := g.seal(p, append([]algebra.Var{root.Var}, p.sortVars()...))
	if err != nil {
		return nil, nil, err
	}
	collector := &hyracks.Collector{}
	conn := hyracks.ConnectorSpec{Type: hyracks.GatherOne}
	if res.sortCols != nil {
		conn = hyracks.ConnectorSpec{Type: hyracks.MergeOne, SortCols: res.sortCols}
	}
	hyracks.MakeSink(g.job, "DistributeResult", collector, g.inputFrom(res, conn))
	return g.job, collector, nil
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
// open for the caller to extend. Shared nodes are sealed, memoized and
// get a materializing Replicate so each parent reads a private port.
func (g *jobGen) genOpen(op *algebra.Op) (*genOut, error) {
	if g.parents[op] <= 1 {
		return g.genFresh(op)
	}
	out, ok := g.memo[op]
	if !ok {
		fresh, err := g.genFresh(op)
		if err != nil {
			return nil, err
		}
		if out, err = g.sealed(fresh, op); err != nil {
			return nil, err
		}
		g.memo[op] = out
	}
	// Every parent, the first included, reads through the replicate.
	return g.sharedPort(op, out)
}

// sharedPort wraps a shared node with a materializing Replicate (once)
// and returns a view bound to the next free output port — the runtime
// form of the paper's Figure 20 materialize/reuse.
func (g *jobGen) sharedPort(op *algebra.Op, out *genOut) (*genOut, error) {
	if out.rep == nil {
		rep := g.job.Add("Replicate", out.parts, hyracks.Replicate(g.parents[op]),
			hyracks.Input{From: out.node, FromPort: out.port, Conn: hyracks.ConnectorSpec{Type: hyracks.OneToOne}})
		rep.OutPorts = g.parents[op]
		out.rep = rep
	}
	port := g.portUsed[op]
	g.portUsed[op]++
	if port >= out.rep.OutPorts {
		return nil, fmt.Errorf("jobgen: too many readers of shared %v", op.Kind)
	}
	return &genOut{node: out.rep, port: port, schema: out.schema, parts: out.parts, sortCols: out.sortCols, fromIndex: out.fromIndex}, nil
}

// genFresh compiles a node that has not been seen yet.
func (g *jobGen) genFresh(op *algebra.Op) (*genOut, error) {
	switch op.Kind {
	case algebra.OpEmpty:
		node := g.job.Add("EmptyTupleSource", 1, hyracks.SourceFunc(
			func(ctx *hyracks.TaskCtx, emit func(hyracks.Tuple)) error {
				emit(hyracks.Tuple{})
				return nil
			}))
		return &genOut{node: node, parts: 1}, nil
	case algebra.OpScan:
		return g.genScan(op)
	case algebra.OpSelect, algebra.OpAssign, algebra.OpProject, algebra.OpUnnest:
		in, err := g.genOpen(op.Inputs[0])
		if err != nil {
			return nil, err
		}
		p := openPipeline(in)
		return p.out, p.stage(op, g.counters)
	case algebra.OpOrder:
		return g.genOrder(op)
	case algebra.OpRank:
		return g.genRank(op)
	case algebra.OpLimit:
		return g.genLimit(op)
	case algebra.OpMaterialize:
		return g.genMaterialize(op)
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
	c := g.c
	node := g.job.Add("DataScan("+ds+")", g.parts, hyracks.SourceFunc(
		func(ctx *hyracks.TaskCtx, emit func(hyracks.Tuple)) error {
			return c.scanPartition(ctx, dv, ds, pkField, fields, keep, filter, emit)
		}))
	return &genOut{node: node, schema: []algebra.Var{op.PKVar, op.RecVar}, parts: g.parts}, nil
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

// stage is one per-row operator compiled into a pipeline: given the step
// that follows it, it builds one instance's step.
type stage func(next step) step

// pipeline builds the one job node of a maximal chain of per-row
// operators (select, assign, project, unnest, and the select or project
// a join, a union input and the result add). Every instance owns one
// scratch row: the input tuple is copied into its first slots, a stage
// writes the variables it defines into slots of their own, and the
// compiled evaluators index the row by slot, so nothing is allocated
// until the last stage builds the output tuple of a surviving row from
// the slots that are still live. An evaluator may read the row only
// while it runs (the next input overwrites it); a value it returns is
// immutable and may be kept.
type pipeline struct {
	in     *genOut             // the sealed producer the chain reads
	out    *genOut             // the open genOut that stands for the chain
	schema []algebra.Var       // variables visible after the last stage
	cols   map[algebra.Var]int // visible variable -> slot
	width  int                 // slots of the scratch row
	stages []stage
	names  []string // stage names, in order: the node's name
	// ordered: the stages so far keep in.sortCols meaningful.
	ordered   bool
	fromIndex bool
}

// openPipeline returns the pipeline out ends in, or starts one above it.
func openPipeline(out *genOut) *pipeline {
	if out.pipe != nil {
		return out.pipe
	}
	p := &pipeline{
		in:      out,
		schema:  append([]algebra.Var(nil), out.schema...),
		cols:    colMap(out.schema),
		width:   len(out.schema),
		ordered: true, fromIndex: out.fromIndex,
	}
	p.out = &genOut{pipe: p}
	return p
}

// bind gives each variable a fresh slot of the scratch row.
func (p *pipeline) bind(vars ...algebra.Var) []int {
	slots := make([]int, len(vars))
	for i, v := range vars {
		slots[i] = p.width
		p.cols[v] = p.width
		p.width++
	}
	p.schema = append(p.schema, vars...)
	return slots
}

func (p *pipeline) add(name string, st stage) {
	p.names = append(p.names, name)
	if st != nil {
		p.stages = append(p.stages, st)
	}
}

// sortVars names the variables the input's sort order is on, while the
// chain keeps that order.
func (p *pipeline) sortVars() []algebra.Var {
	if !p.ordered {
		return nil
	}
	vars := make([]algebra.Var, len(p.in.sortCols))
	for i, sc := range p.in.sortCols {
		vars[i] = p.in.schema[sc.Col]
	}
	return vars
}

// liveVars is what the end of the chain keeps: the visible variables
// that are live above it or carry its sort order, in schema order.
func (p *pipeline) liveVars(live map[algebra.Var]bool) []algebra.Var {
	sorted := p.sortVars()
	var keep []algebra.Var
	for _, v := range p.schema {
		if live[v] || containsVar(sorted, v) {
			keep = append(keep, v)
		}
	}
	return keep
}

func containsVar(vars []algebra.Var, v algebra.Var) bool {
	for _, x := range vars {
		if x == v {
			return true
		}
	}
	return false
}

// sel adds a select: the fused-assign evaluators run first, filling
// their slots, then the condition evaluator decides. The first select
// above an index subtree is the global verification of the paper's index
// plans: its survivors are the true results among the T-occurrence
// candidates. Survivors are few, so one atomic add each stays off the
// per-row hot path.
func (p *pipeline) sel(name string, cond algebra.Expr, fusedVars []algebra.Var, fusedExprs []algebra.Expr, counters *QueryCounters) error {
	verifier := p.fromIndex
	p.fromIndex = false
	slots := p.bind(fusedVars...)
	evals, err := compileEvals(p.cols, append([]algebra.Expr{cond}, fusedExprs...)...)
	if err != nil {
		return err
	}
	ev, fused := evals[0], evals[1:]
	p.add(name, func(next step) step {
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
		}
	})
	return nil
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
		return p.sel(name, op.Cond, op.FusedAssignVars, op.FusedAssignExprs, counters)
	case algebra.OpAssign:
		return p.assign(op.AssignVars, op.AssignExprs)
	case algebra.OpProject:
		p.ordered = false
		return p.project(op.Vars)
	case algebra.OpUnnest:
		return p.unnest(op.Expr, op.UnnestVar, op.PosVar)
	}
	return nil
}

func (p *pipeline) assign(vars []algebra.Var, exprs []algebra.Expr) error {
	// The expressions see the input only, not one another's variables.
	evals, err := compileEvals(p.cols, exprs...)
	if err != nil {
		return err
	}
	slots := p.bind(vars...)
	p.add("Assign", func(next step) step {
		return func(row hyracks.Tuple) error {
			if err := fill(row, slots, evals); err != nil {
				return err
			}
			return next(row)
		}
	})
	return nil
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
func (p *pipeline) unnest(e algebra.Expr, elemVar, posVar algebra.Var) error {
	evals, err := compileEvals(p.cols, e)
	if err != nil {
		return err
	}
	ev := evals[0]
	slot, posSlot := p.bind(elemVar)[0], -1
	if posVar != 0 {
		posSlot = p.bind(posVar)[0]
	}
	p.ordered = false
	p.add("Unnest", func(next step) step {
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
		}
	})
	return nil
}

// seal ends the chain in one job node that emits vars. Only here is a
// tuple allocated, one per surviving row; a chain that hands its input
// on unchanged emits the input tuple itself, and one with nothing to run
// and nothing to drop adds no node at all.
func (g *jobGen) seal(p *pipeline, vars []algebra.Var) (*genOut, error) {
	in := p.in
	slots := make([]int, len(vars))
	same := len(vars) == len(in.schema)
	for i, v := range vars {
		c, ok := p.cols[v]
		if !ok {
			return nil, fmt.Errorf("jobgen: pipeline output var %v missing from schema %v", v, p.schema)
		}
		slots[i] = c
		same = same && c == i
	}
	out := &genOut{node: in.node, port: in.port, schema: vars, parts: in.parts, fromIndex: p.fromIndex}
	// The output is sorted as the input was if every sort variable
	// survives (liveVars and the result keep them).
	for k, sv := range p.sortVars() {
		i := 0
		for i < len(vars) && vars[i] != sv {
			i++
		}
		if i == len(vars) {
			out.sortCols = nil
			break
		}
		out.sortCols = append(out.sortCols, hyracks.SortCol{Col: i, Desc: in.sortCols[k].Desc})
	}
	if len(p.stages) == 0 && same {
		return out, nil
	}
	stages, width := p.stages, p.width
	out.port = 0
	out.node = g.job.Add(strings.Join(p.names, "+"), in.parts, func() hyracks.Operator {
		return hyracks.OpFunc(func(ctx *hyracks.TaskCtx, ports []*hyracks.PortReader, outs []*hyracks.Emitter) error {
			row := make(hyracks.Tuple, width)
			var cur hyracks.Tuple
			first := step(func(row hyracks.Tuple) error {
				nt := make(hyracks.Tuple, len(slots))
				for i, s := range slots {
					nt[i] = row[s]
				}
				outs[0].Emit(nt)
				return nil
			})
			if same {
				first = func(hyracks.Tuple) error {
					outs[0].Emit(cur)
					return nil
				}
			}
			for i := len(stages) - 1; i >= 0; i-- {
				first = stages[i](first)
			}
			for {
				t, ok := ports[0].Next()
				if !ok {
					return ctx.Ctx.Err()
				}
				cur = t
				copy(row, t)
				if err := first(row); err != nil {
					return err
				}
			}
		})
	}, g.inputFrom(in, hyracks.ConnectorSpec{Type: hyracks.OneToOne}))
	return out, nil
}

func (g *jobGen) genOrder(op *algebra.Op) (*genOut, error) {
	in, err := g.gen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	cols := colMap(in.schema)
	sortCols := make([]hyracks.SortCol, len(op.Orders))
	for i, o := range op.Orders {
		vr, ok := o.E.(algebra.VarRef)
		if !ok {
			return nil, fmt.Errorf("jobgen: order key not normalized: %s", o.E)
		}
		c, ok := cols[vr.V]
		if !ok {
			return nil, fmt.Errorf("jobgen: order var %v missing", vr.V)
		}
		sortCols[i] = hyracks.SortCol{Col: c, Desc: o.Desc}
	}
	node := g.job.Add("Sort", in.parts, hyracks.Sort(sortCols),
		g.inputFrom(in, hyracks.ConnectorSpec{Type: hyracks.OneToOne}))
	return &genOut{node: node, schema: in.schema, parts: in.parts, sortCols: sortCols, fromIndex: in.fromIndex}, nil
}

func (g *jobGen) genRank(op *algebra.Op) (*genOut, error) {
	in, err := g.gen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	conn := hyracks.ConnectorSpec{Type: hyracks.GatherOne}
	if in.sortCols != nil {
		conn = hyracks.ConnectorSpec{Type: hyracks.MergeOne, SortCols: in.sortCols}
	}
	node := g.job.Add("Rank", 1, hyracks.Rank(), g.inputFrom(in, conn))
	schema := append(append([]algebra.Var(nil), in.schema...), op.PosVar)
	return &genOut{node: node, schema: schema, parts: 1, sortCols: in.sortCols, fromIndex: in.fromIndex}, nil
}

func (g *jobGen) genLimit(op *algebra.Op) (*genOut, error) {
	in, err := g.gen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	conn := hyracks.ConnectorSpec{Type: hyracks.GatherOne}
	if in.sortCols != nil {
		conn = hyracks.ConnectorSpec{Type: hyracks.MergeOne, SortCols: in.sortCols}
	}
	node := g.job.Add("Limit", 1, hyracks.Limit(op.Count), g.inputFrom(in, conn))
	return &genOut{node: node, schema: in.schema, parts: 1, sortCols: in.sortCols, fromIndex: in.fromIndex}, nil
}

func (g *jobGen) genMaterialize(op *algebra.Op) (*genOut, error) {
	in, err := g.gen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	node := g.job.Add("Materialize", in.parts, hyracks.Materialize(),
		g.inputFrom(in, hyracks.ConnectorSpec{Type: hyracks.OneToOne}))
	return &genOut{node: node, schema: in.schema, parts: in.parts, sortCols: in.sortCols, fromIndex: in.fromIndex}, nil
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
		spec := hyracks.AggSpec{Kind: aggKindOf(a.Kind)}
		if a.Kind != algebra.AggCount {
			vr, ok := a.E.(algebra.VarRef)
			if !ok {
				return nil, fmt.Errorf("jobgen: aggregate input not normalized: %s", a.E)
			}
			c, ok := cols[vr.V]
			if !ok {
				return nil, fmt.Errorf("jobgen: aggregate var %v missing", vr.V)
			}
			spec.In = c
		}
		out[i] = spec
	}
	return out, nil
}

func (g *jobGen) genAggregate(op *algebra.Op) (*genOut, error) {
	in, err := g.gen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	cols := colMap(in.schema)
	specs, err := aggSpecsFor(op.Aggs, cols)
	if err != nil {
		return nil, err
	}
	schema := make([]algebra.Var, len(op.Aggs))
	for i, a := range op.Aggs {
		schema[i] = a.V
	}
	if decomposable(op.Aggs) && in.parts > 1 {
		local := g.job.Add("AggregateLocal", in.parts, hyracks.Aggregate(specs),
			g.inputFrom(in, hyracks.ConnectorSpec{Type: hyracks.OneToOne}))
		finalSpecs := make([]hyracks.AggSpec, len(op.Aggs))
		for i, a := range op.Aggs {
			finalSpecs[i] = hyracks.AggSpec{Kind: combineKind(a.Kind), In: i}
		}
		final := g.job.Add("AggregateFinal", 1, hyracks.Aggregate(finalSpecs),
			hyracks.Input{From: local, Conn: hyracks.ConnectorSpec{Type: hyracks.GatherOne}})
		return &genOut{node: final, schema: schema, parts: 1}, nil
	}
	node := g.job.Add("Aggregate", 1, hyracks.Aggregate(specs),
		g.inputFrom(in, hyracks.ConnectorSpec{Type: hyracks.GatherOne}))
	return &genOut{node: node, schema: schema, parts: 1}, nil
}

func (g *jobGen) genGroupBy(op *algebra.Op) (*genOut, error) {
	in, err := g.gen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	cols := colMap(in.schema)
	keyCols := make([]int, len(op.Keys))
	for i, k := range op.Keys {
		vr, ok := k.E.(algebra.VarRef)
		if !ok {
			return nil, fmt.Errorf("jobgen: group key not normalized: %s", k.E)
		}
		c, ok := cols[vr.V]
		if !ok {
			return nil, fmt.Errorf("jobgen: group key var %v missing", vr.V)
		}
		keyCols[i] = c
	}
	specs, err := aggSpecsFor(op.Aggs, cols)
	if err != nil {
		return nil, err
	}
	schema := make([]algebra.Var, 0, len(op.Keys)+len(op.Aggs))
	for _, k := range op.Keys {
		schema = append(schema, k.V)
	}
	for _, a := range op.Aggs {
		schema = append(schema, a.V)
	}

	if op.HashHint {
		// The paper's /*+ hash */ path: local hash pre-aggregation when
		// the aggregates decompose, then a hash-repartitioned final
		// aggregation (Figure 12's stage 1 shape).
		if decomposable(op.Aggs) && in.parts > 1 {
			local := g.job.Add("HashGroupLocal", in.parts, hyracks.HashGroup(keyCols, specs),
				g.inputFrom(in, hyracks.ConnectorSpec{Type: hyracks.OneToOne}))
			// Local output layout: keys 0..k-1, partials k..k+n-1.
			finalKeys := make([]int, len(keyCols))
			for i := range finalKeys {
				finalKeys[i] = i
			}
			finalSpecs := make([]hyracks.AggSpec, len(op.Aggs))
			for i, a := range op.Aggs {
				finalSpecs[i] = hyracks.AggSpec{Kind: combineKind(a.Kind), In: len(keyCols) + i}
			}
			final := g.job.Add("HashGroupFinal", g.parts, hyracks.HashGroup(finalKeys, finalSpecs),
				hyracks.Input{From: local, Conn: hyracks.ConnectorSpec{Type: hyracks.Hash, HashCols: finalKeys}})
			return &genOut{node: final, schema: schema, parts: g.parts}, nil
		}
		node := g.job.Add("HashGroup", g.parts, hyracks.HashGroup(keyCols, specs),
			g.inputFrom(in, hyracks.ConnectorSpec{Type: hyracks.Hash, HashCols: keyCols}))
		return &genOut{node: node, schema: schema, parts: g.parts}, nil
	}

	// Default sort-based aggregation: hash-repartition on the keys,
	// sort each partition, then stream-group. (Repartition-then-sort
	// rather than sort-then-merge: bounded merge connectors can
	// deadlock when skewed producers fill one consumer's buffer while
	// another consumer still waits for that producer's first frame.)
	sortCols := make([]hyracks.SortCol, len(keyCols))
	for i, c := range keyCols {
		sortCols[i] = hyracks.SortCol{Col: c}
	}
	sorted := g.job.Add("SortForGroup", g.parts, hyracks.Sort(sortCols),
		g.inputFrom(in, hyracks.ConnectorSpec{Type: hyracks.Hash, HashCols: keyCols}))
	node := g.job.Add("SortGroup", g.parts, hyracks.SortGroup(keyCols, specs),
		hyracks.Input{From: sorted, Conn: hyracks.ConnectorSpec{Type: hyracks.OneToOne}})
	return &genOut{node: node, schema: schema, parts: g.parts}, nil
}

func (g *jobGen) genJoin(op *algebra.Op) (*genOut, error) {
	if op.Phys == algebra.JoinPhysUnset {
		return nil, fmt.Errorf("jobgen: join without a physical algorithm (optimizer bug)")
	}
	left, err := g.gen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	right, err := g.gen(op.Inputs[1])
	if err != nil {
		return nil, err
	}
	sides := [2]*genOut{left, right}
	build := op.BuildSide
	probe := 1 - build
	buildOut, probeOut := sides[build], sides[probe]
	outSchema := append(append([]algebra.Var(nil), buildOut.schema...), probeOut.schema...)
	cond := op.Cond

	var node *hyracks.OpNode
	switch op.Phys {
	case algebra.JoinPhysHash, algebra.JoinPhysBroadcastHash:
		keysOf := func(exprs []algebra.Expr, schema []algebra.Var) ([]int, error) {
			cols := colMap(schema)
			out := make([]int, len(exprs))
			for i, e := range exprs {
				vr, ok := e.(algebra.VarRef)
				if !ok {
					return nil, fmt.Errorf("jobgen: join key not normalized: %s", e)
				}
				c, ok := cols[vr.V]
				if !ok {
					return nil, fmt.Errorf("jobgen: join key var %v missing", vr.V)
				}
				out[i] = c
			}
			return out, nil
		}
		sideKeys := [2][]algebra.Expr{op.JoinLeftKeys, op.JoinRightKeys}
		buildKeys, err := keysOf(sideKeys[build], buildOut.schema)
		if err != nil {
			return nil, err
		}
		probeKeys, err := keysOf(sideKeys[probe], probeOut.schema)
		if err != nil {
			return nil, err
		}
		var buildConn, probeConn hyracks.ConnectorSpec
		if op.Phys == algebra.JoinPhysBroadcastHash {
			buildConn = hyracks.ConnectorSpec{Type: hyracks.Broadcast}
			if probeOut.parts == g.parts {
				probeConn = hyracks.ConnectorSpec{Type: hyracks.OneToOne}
			} else {
				probeConn = hyracks.ConnectorSpec{Type: hyracks.RoundRobin}
			}
		} else {
			buildConn = hyracks.ConnectorSpec{Type: hyracks.Hash, HashCols: buildKeys}
			probeConn = hyracks.ConnectorSpec{Type: hyracks.Hash, HashCols: probeKeys}
		}
		node = g.job.Add("HashJoin", g.parts, hyracks.HashJoin(buildKeys, probeKeys),
			g.inputFrom(buildOut, buildConn),
			g.inputFrom(probeOut, probeConn))
	case algebra.JoinPhysNestedLoop:
		var probeConn hyracks.ConnectorSpec
		if probeOut.parts == g.parts {
			probeConn = hyracks.ConnectorSpec{Type: hyracks.OneToOne}
		} else {
			probeConn = hyracks.ConnectorSpec{Type: hyracks.RoundRobin}
		}
		evals, err := compileEvals(colMap(outSchema), cond)
		if err != nil {
			return nil, err
		}
		ev := evals[0]
		pred := func(row hyracks.Tuple) (bool, error) {
			v, err := ev(row)
			if err != nil {
				return false, err
			}
			return algebra.Truthy(v), nil
		}
		node = g.job.Add("NestedLoopJoin", g.parts, hyracks.NestedLoopJoin(pred),
			g.inputFrom(buildOut, hyracks.ConnectorSpec{Type: hyracks.Broadcast}),
			g.inputFrom(probeOut, probeConn))
		return &genOut{node: node, schema: outSchema, parts: g.parts, fromIndex: left.fromIndex || right.fromIndex}, nil
	default:
		return nil, fmt.Errorf("jobgen: unknown join phys %v", op.Phys)
	}

	// Hash joins verify key equality only; re-apply the full condition
	// for any extra conjuncts, as the first stage of the pipeline above.
	// That doubles as the global verification when an index subtree feeds
	// the join.
	out := &genOut{node: node, schema: outSchema, parts: g.parts, fromIndex: left.fromIndex || right.fromIndex}
	if isAlwaysTrue(cond) {
		return out, nil
	}
	p := openPipeline(out)
	return p.out, p.sel("JoinPostSelect", cond, nil, nil, g.counters)
}

func isAlwaysTrue(e algebra.Expr) bool {
	c, ok := e.(algebra.Const)
	return ok && c.Val.Kind() == adm.KindBool && c.Val.Bool()
}

func (g *jobGen) genUnion(op *algebra.Op) (*genOut, error) {
	inputs := make([]hyracks.Input, len(op.Inputs))
	var fromIndex bool
	for i, child := range op.Inputs {
		open, err := g.genOpen(child)
		if err != nil {
			return nil, err
		}
		// Align the input's columns with the union's as the last stage of
		// the pipeline below it.
		p := openPipeline(open)
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
		inputs[i] = g.inputFrom(in, conn)
	}
	node := g.job.Add("Union", g.parts, hyracks.Union(), inputs...)
	return &genOut{node: node, schema: append([]algebra.Var(nil), op.OutVars...), parts: g.parts, fromIndex: fromIndex}, nil
}

func (g *jobGen) genSecondarySearch(op *algebra.Op) (*genOut, error) {
	in, err := g.gen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	cols := colMap(in.schema)
	evals, err := compileEvals(cols, op.KeyExpr, op.TExpr)
	if err != nil {
		return nil, err
	}
	keyEval, tEval := evals[0], evals[1]
	dv, ds, ixName := op.Dataverse, op.Dataset, op.IndexName
	c := g.c
	counters, algo := g.counters, g.tOccAlgo
	node := g.job.Add("SecondaryIndexSearch("+ixName+")", g.parts, func() hyracks.Operator {
		return hyracks.OpFunc(func(ctx *hyracks.TaskCtx, in []*hyracks.PortReader, out []*hyracks.Emitter) error {
			for {
				t, ok := in[0].Next()
				if !ok {
					return ctx.Ctx.Err()
				}
				keyVal, err := keyEval(t)
				if err != nil {
					return err
				}
				if keyVal.IsNull() {
					continue
				}
				tVal, err := tEval(t)
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
				pks, err := c.searchIndex(dv, ds, ixName, ctx.Part, tokens, int(tNum), algo, counters)
				if err != nil {
					return err
				}
				for _, pk := range pks {
					nt := make(hyracks.Tuple, len(t), len(t)+1)
					copy(nt, t)
					nt = append(nt, pk)
					out[0].Emit(nt)
				}
			}
		})
	}, g.inputFrom(in, hyracks.ConnectorSpec{Type: hyracks.Broadcast}))
	schema := append(append([]algebra.Var(nil), in.schema...), op.OutVar)
	return &genOut{node: node, schema: schema, parts: g.parts, fromIndex: true}, nil
}

// tokensFromValue converts a token-list value to strings. Non-string
// elements use their binary encoding, mirroring IndexTokens.
func tokensFromValue(v adm.Value) ([]string, error) {
	switch v.Kind() {
	case adm.KindList, adm.KindBag:
		elems := v.Elems()
		out := make([]string, len(elems))
		for i, e := range elems {
			if e.Kind() == adm.KindString {
				out[i] = e.Str()
			} else {
				out[i] = string(adm.Encode(e))
			}
		}
		return out, nil
	case adm.KindString:
		return []string{v.Str()}, nil
	}
	return nil, fmt.Errorf("secondary search key is %v, want a token list", v.Kind())
}

func (g *jobGen) genPrimaryLookup(op *algebra.Op) (*genOut, error) {
	in, err := g.gen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	meta, ok := g.c.Catalog.Dataset(op.Dataverse, op.Dataset)
	if !ok {
		return nil, fmt.Errorf("jobgen: unknown dataset %s.%s", op.Dataverse, op.Dataset)
	}
	cols := colMap(in.schema)
	evals, err := compileEvals(cols, op.PKExpr)
	if err != nil {
		return nil, err
	}
	ev := evals[0]
	raw := op.RawPK
	dv, ds, pkField := op.Dataverse, op.Dataset, meta.PKField
	fields := scanFields(op.ProjectFields, pkField)
	proj, keep, filter := storage.NewProjection(fields), adm.NewKeepSet(fields), op.Filter
	c := g.c
	// One tree resolution and one snapshot per operator instance: every
	// lookup of the query reads the same version of the partition, and
	// the deferred Close runs on every exit path (error, cancellation,
	// end of input), so a dying query never pins retired components.
	node := g.job.Add("PrimaryIndexLookup("+ds+")", g.parts, func() hyracks.Operator {
		return hyracks.OpFunc(func(ctx *hyracks.TaskCtx, in []*hyracks.PortReader, out []*hyracks.Emitter) error {
			tree, err := c.nodeOfPartition(ctx.Part).primary(dv, ds, ctx.Part)
			if err != nil {
				return err
			}
			snap := tree.Snapshot()
			defer snap.Close()
			rf := rowFilter(filter)
			for {
				t, ok := in[0].Next()
				if !ok {
					return ctx.Ctx.Err()
				}
				v, err := ev(t)
				if err != nil {
					return err
				}
				if v.IsNull() {
					continue
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
				if err != nil {
					return err
				}
				if !found || !rf.PassRecord(val) {
					continue
				}
				rec, err := decodeRecord(val, keep)
				if err != nil {
					return err
				}
				pkVal, _ := rec.Rec().GetPath(pkField)
				nt := make(hyracks.Tuple, len(t), len(t)+2)
				copy(nt, t)
				out[0].Emit(append(nt, pkVal, rec))
			}
		})
	}, g.inputFrom(in, hyracks.ConnectorSpec{Type: hyracks.OneToOne}))
	schema := append(append([]algebra.Var(nil), in.schema...), op.PKVar, op.RecVar)
	return &genOut{node: node, schema: schema, parts: g.parts, fromIndex: in.fromIndex}, nil
}

// scanPartition streams one partition of a dataset as (pk, record)
// tuples. The scan reads a refcounted LSM snapshot (never blocking
// concurrent writers) and honors ctx cancellation between batches.
// A non-nil fields list restricts the scan to those top-level record
// fields: columnar components read only the matching column blocks,
// and row components skip decoding the unreferenced fields. The
// emitted records then carry just the projected fields, which is
// only correct because the optimizer proved no other field is used.
// A non-nil filter goes to storage with the projection: a row it
// rejects is never assembled or decoded, and the instance reports the
// rows storage read as its tuples in.
func (c *Cluster) scanPartition(ctx *hyracks.TaskCtx, dv, ds, pkField string, fields []string, keep adm.KeepSet, filter *algebra.RecordFilter, emit func(hyracks.Tuple)) error {
	tree, err := c.nodeOfPartition(ctx.Part).primary(dv, ds, ctx.Part)
	if err != nil {
		return err
	}
	rf := rowFilter(filter)
	var scanErr error
	read, err := tree.ScanProjectedContext(ctx.Ctx, nil, nil, fields, rf, func(key, val []byte) bool {
		rec, derr := decodeRecord(val, keep)
		if derr != nil {
			scanErr = derr
			return false
		}
		pk, _ := rec.Rec().GetPath(pkField)
		emit(hyracks.Tuple{pk, rec})
		return true
	})
	if rf != nil {
		ctx.RowsRead = read
	}
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

// searchIndex runs a T-occurrence search on the local partition of an
// inverted index, returning candidate keys as raw-key string values in
// sorted order.
func (c *Cluster) searchIndex(dv, ds, ixName string, part int, tokens []string, t int, algo invindex.Algorithm, counters *QueryCounters) ([]adm.Value, error) {
	node := c.nodeOfPartition(part)
	inv, err := node.invIndex(dv, ds, ixName, part)
	if err != nil {
		return nil, err
	}
	pks, stats, err := inv.Search(tokens, t, algo)
	if err != nil {
		return nil, err
	}
	if counters != nil {
		counters.IndexSearches.Add(1)
		counters.CandidatesTotal.Add(int64(stats.Candidates))
		counters.PostingsRead.Add(stats.PostingsRead)
		counters.noteOccurrenceT(int64(t))
	}
	out := make([]adm.Value, len(pks))
	for i, pk := range pks {
		out[i] = adm.NewString(string(pk))
	}
	return out, nil
}
