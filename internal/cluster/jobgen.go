package cluster

import (
	"fmt"
	"strings"
	"sync/atomic"

	"simdb/internal/adm"
	"simdb/internal/algebra"
	"simdb/internal/hyracks"
	"simdb/internal/optimizer"
	"simdb/internal/sim"
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
	memo     map[*algebra.Op]*genOut
	parents  map[*algebra.Op]int
	portUsed map[*algebra.Op]int
	counters *QueryCounters
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
// job plus the result collector.
func (c *Cluster) GenerateJob(root *algebra.Op, counters *QueryCounters) (*hyracks.Job, *hyracks.Collector, error) {
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
		counters: counters,
	}
	algebra.Walk(root, func(op *algebra.Op) {
		for _, in := range op.Inputs {
			g.parents[in]++
		}
	})
	child, err := g.gen(root.Inputs[0])
	if err != nil {
		return nil, nil, err
	}
	cols := colMap(child.schema)
	col, ok := cols[root.Var]
	if !ok {
		return nil, nil, fmt.Errorf("jobgen: result variable %v not in schema %v", root.Var, child.schema)
	}
	// Project to the result column; keep any sort columns so a MergeOne
	// sink can preserve a top-level order-by.
	keep := []int{col}
	var sinkSort []hyracks.SortCol
	for _, sc := range child.sortCols {
		sinkSort = append(sinkSort, hyracks.SortCol{Col: len(keep), Desc: sc.Desc})
		keep = append(keep, sc.Col)
	}
	proj := g.job.Add("ResultProject", child.parts, hyracks.FlatMap(
		func(ctx *hyracks.TaskCtx, t hyracks.Tuple, emit func(hyracks.Tuple)) error {
			nt := make(hyracks.Tuple, len(keep))
			for i, c := range keep {
				nt[i] = t[c]
			}
			emit(nt)
			return nil
		}), g.inputFrom(child, hyracks.ConnectorSpec{Type: hyracks.OneToOne}))
	collector := &hyracks.Collector{}
	conn := hyracks.ConnectorSpec{Type: hyracks.GatherOne}
	if sinkSort != nil {
		conn = hyracks.ConnectorSpec{Type: hyracks.MergeOne, SortCols: sinkSort}
	}
	hyracks.MakeSink(g.job, "DistributeResult", collector,
		hyracks.Input{From: proj, Conn: conn})
	return g.job, collector, nil
}

// inputFrom builds the Input edge from a generated child.
func (g *jobGen) inputFrom(child *genOut, conn hyracks.ConnectorSpec) hyracks.Input {
	return hyracks.Input{From: child.node, FromPort: child.port, Conn: conn}
}

// gen compiles one algebra node (memoized; shared nodes get a
// materializing Replicate so each parent reads a private port).
func (g *jobGen) gen(op *algebra.Op) (*genOut, error) {
	if out, ok := g.memo[op]; ok {
		// Shared node: route this parent through the replicate port.
		return g.sharedPort(op, out)
	}
	out, err := g.genFresh(op)
	if err != nil {
		return nil, err
	}
	g.memo[op] = out
	if g.parents[op] > 1 {
		// First parent also reads through the replicate.
		return g.sharedPort(op, out)
	}
	return out, nil
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
	case algebra.OpSelect:
		return g.genSelect(op)
	case algebra.OpAssign:
		return g.genAssign(op)
	case algebra.OpProject:
		return g.genProject(op)
	case algebra.OpUnnest:
		return g.genUnnest(op)
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
	c := g.c
	node := g.job.Add("DataScan("+ds+")", g.parts, hyracks.SourceFunc(
		func(ctx *hyracks.TaskCtx, emit func(hyracks.Tuple)) error {
			return c.scanPartition(ctx.Ctx, dv, ds, pkField, fields, ctx.Part, emit)
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

// selectState is the per-instance state of a (possibly fused) select:
// the fused-assign evaluators run first, extending the tuple, then the
// condition evaluator decides.
type selectState struct {
	fused []tupleEval
	cond  tupleEval
}

func (g *jobGen) genSelect(op *algebra.Op) (*genOut, error) {
	in, err := g.gen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	// The first Select above an index subtree is the global verification
	// of the paper's index plans: its survivors are the true results
	// among the T-occurrence candidates. Output tuples here are few, so
	// one atomic add per survivor stays off the per-tuple hot path.
	verifier := in.fromIndex
	counters := g.counters
	name := "Select"
	if verifier {
		name = "Select(verify)"
	}
	if op.BatchVerify {
		cols := colMap(in.schema)
		if fn, compiled, ok := batchedVerifyOp(op.Cond, cols, verifier, counters); ok {
			node := g.job.Add(interpretedMark(name+"[batched]", compiled), in.parts, fn,
				g.inputFrom(in, hyracks.ConnectorSpec{Type: hyracks.OneToOne}))
			return &genOut{node: node, schema: in.schema, parts: in.parts, sortCols: in.sortCols}, nil
		}
	}
	schema := in.schema
	if len(op.FusedAssignVars) > 0 {
		schema = append(append([]algebra.Var(nil), in.schema...), op.FusedAssignVars...)
		name += "(fused-assign)"
	}
	cols := colMap(schema)
	newCond, condCompiled := evalFactory(op.Cond, cols)
	newFused, fusedCompiled := evalFactories(op.FusedAssignExprs, cols)
	node := g.job.Add(interpretedMark(name, condCompiled && fusedCompiled), in.parts, hyracks.MapStateful(
		func() *selectState {
			return &selectState{cond: newCond(), fused: instantiate(newFused)}
		},
		func(ctx *hyracks.TaskCtx, st *selectState, t hyracks.Tuple, emit func(hyracks.Tuple)) error {
			row := t
			if len(st.fused) > 0 {
				row = make(hyracks.Tuple, len(t), len(t)+len(st.fused))
				copy(row, t)
				for _, fe := range st.fused {
					v, err := fe(row)
					if err != nil {
						return err
					}
					row = append(row, v)
				}
			}
			v, err := st.cond(row)
			if err != nil {
				return err
			}
			if algebra.Truthy(v) {
				if verifier {
					counters.VerifiedTotal.Add(1)
				}
				emit(row)
			}
			return nil
		}, nil), g.inputFrom(in, hyracks.ConnectorSpec{Type: hyracks.OneToOne}))
	return &genOut{node: node, schema: schema, parts: in.parts, sortCols: in.sortCols}, nil
}

// batchVerifyState is one verifier instance's state: the checker's
// mutable count map and the instance's evaluators (rest is nil when the
// similarity conjunct is the whole condition).
type batchVerifyState struct {
	checker          *sim.JaccardChecker
	cand, orig, rest tupleEval
}

// batchedVerifyOp lowers a BatchVerify-marked select condition to a
// vectorized operator: the Jaccard conjunct's constant query side is
// tokenized once here at job-generation time, each operator instance
// gets its own JaccardChecker (the count map is mutable scratch), and
// candidates are checked a frame at a time with the length filter and
// early termination of similarity-jaccard-check. Remaining conjuncts
// evaluate per survivor. compiled reports whether every per-tuple
// expression compiled. Returns ok=false when the condition does not
// decompose after all — the caller falls back to the per-tuple select,
// which is always semantically equivalent.
func batchedVerifyOp(cond algebra.Expr, cols map[algebra.Var]int, verifier bool, counters *QueryCounters) (newOp func() hyracks.Operator, compiled, ok bool) {
	conjs := algebra.Conjuncts(cond)
	simIdx := -1
	var sc optimizer.SimConjunct
	for i, conj := range conjs {
		c, ok := optimizer.ParseSimConjunct(conj)
		if !ok || c.Fn != "jaccard" {
			continue
		}
		lConst := len(algebra.UsedVars(c.Left, nil)) == 0
		rConst := len(algebra.UsedVars(c.Right, nil)) == 0
		if lConst == rConst {
			continue
		}
		if !lConst {
			c.Left, c.Right = c.Right, c.Left
		}
		simIdx, sc = i, c
		break
	}
	if simIdx < 0 {
		return nil, false, false
	}
	qv, err := algebra.Eval(sc.Left, algebra.NewEnv(nil, nil))
	if err != nil {
		return nil, false, false
	}
	queryToks, ok := algebra.TokensOf(qv)
	if !ok {
		return nil, false, false
	}
	delta := sc.Threshold
	newCand, candCompiled := evalFactory(sc.Right, cols)
	// Null or non-list candidates defer to the original conjunct, so
	// edge-case semantics stay identical.
	newOrig, origCompiled := evalFactory(sc.Orig, cols)
	compiled = candCompiled && origCompiled
	var newRest func() tupleEval
	if len(conjs) > 1 {
		others := make([]algebra.Expr, 0, len(conjs)-1)
		others = append(others, conjs[:simIdx]...)
		others = append(others, conjs[simIdx+1:]...)
		var restCompiled bool
		newRest, restCompiled = evalFactory(algebra.AndAll(others), cols)
		compiled = compiled && restCompiled
	}
	return hyracks.FlatMapBatch(
		func() *batchVerifyState {
			st := &batchVerifyState{
				checker: sim.NewJaccardChecker(queryToks),
				cand:    newCand(),
				orig:    newOrig(),
			}
			if newRest != nil {
				st.rest = newRest()
			}
			return st
		},
		func(ctx *hyracks.TaskCtx, st *batchVerifyState, batch []hyracks.Tuple, emit func(hyracks.Tuple)) error {
			for _, t := range batch {
				cv, err := st.cand(t)
				if err != nil {
					return err
				}
				if toks, ok := algebra.TokensOf(cv); ok {
					if _, pass := st.checker.Check(toks, delta); !pass {
						continue
					}
				} else {
					v, err := st.orig(t)
					if err != nil {
						return err
					}
					if !algebra.Truthy(v) {
						continue
					}
				}
				if st.rest != nil {
					v, err := st.rest(t)
					if err != nil {
						return err
					}
					if !algebra.Truthy(v) {
						continue
					}
				}
				if verifier {
					counters.VerifiedTotal.Add(1)
				}
				emit(t)
			}
			return nil
		}), compiled, true
}

func (g *jobGen) genAssign(op *algebra.Op) (*genOut, error) {
	in, err := g.gen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	cols := colMap(in.schema)
	newEvals, compiled := evalFactories(op.AssignExprs, cols)
	node := g.job.Add(interpretedMark("Assign", compiled), in.parts, hyracks.MapStateful(
		func() []tupleEval { return instantiate(newEvals) },
		func(ctx *hyracks.TaskCtx, evals []tupleEval, t hyracks.Tuple, emit func(hyracks.Tuple)) error {
			nt := make(hyracks.Tuple, len(t), len(t)+len(evals))
			copy(nt, t)
			for _, ev := range evals {
				v, err := ev(t)
				if err != nil {
					return err
				}
				nt = append(nt, v)
			}
			emit(nt)
			return nil
		}, nil), g.inputFrom(in, hyracks.ConnectorSpec{Type: hyracks.OneToOne}))
	schema := append(append([]algebra.Var(nil), in.schema...), op.AssignVars...)
	return &genOut{node: node, schema: schema, parts: in.parts, sortCols: in.sortCols, fromIndex: in.fromIndex}, nil
}

func (g *jobGen) genProject(op *algebra.Op) (*genOut, error) {
	in, err := g.gen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	cols := colMap(in.schema)
	idx := make([]int, len(op.Vars))
	for i, v := range op.Vars {
		c, ok := cols[v]
		if !ok {
			return nil, fmt.Errorf("jobgen: project var %v missing from schema", v)
		}
		idx[i] = c
	}
	node := g.job.Add("Project", in.parts, hyracks.FlatMap(
		func(ctx *hyracks.TaskCtx, t hyracks.Tuple, emit func(hyracks.Tuple)) error {
			nt := make(hyracks.Tuple, len(idx))
			for i, c := range idx {
				nt[i] = t[c]
			}
			emit(nt)
			return nil
		}), g.inputFrom(in, hyracks.ConnectorSpec{Type: hyracks.OneToOne}))
	return &genOut{node: node, schema: append([]algebra.Var(nil), op.Vars...), parts: in.parts, fromIndex: in.fromIndex}, nil
}

func (g *jobGen) genUnnest(op *algebra.Op) (*genOut, error) {
	in, err := g.gen(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	cols := colMap(in.schema)
	newEval, compiled := evalFactory(op.Expr, cols)
	withPos := op.PosVar != 0
	node := g.job.Add(interpretedMark("Unnest", compiled), in.parts, hyracks.MapStateful(
		newEval,
		func(ctx *hyracks.TaskCtx, ev tupleEval, t hyracks.Tuple, emit func(hyracks.Tuple)) error {
			v, err := ev(t)
			if err != nil {
				return err
			}
			if v.IsNull() {
				return nil
			}
			if v.Kind() != adm.KindList && v.Kind() != adm.KindBag {
				return fmt.Errorf("unnest over %v value", v.Kind())
			}
			for i, e := range v.Elems() {
				nt := make(hyracks.Tuple, len(t), len(t)+2)
				copy(nt, t)
				nt = append(nt, e)
				if withPos {
					nt = append(nt, adm.NewInt(int64(i+1)))
				}
				emit(nt)
			}
			return nil
		}, nil), g.inputFrom(in, hyracks.ConnectorSpec{Type: hyracks.OneToOne}))
	schema := append(append([]algebra.Var(nil), in.schema...), op.UnnestVar)
	if withPos {
		schema = append(schema, op.PosVar)
	}
	return &genOut{node: node, schema: schema, parts: in.parts, fromIndex: in.fromIndex}, nil
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
