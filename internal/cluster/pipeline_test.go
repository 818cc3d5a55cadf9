package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/algebra"
	"simdb/internal/hyracks"
)

// The property below holds a fused pipeline against its definition: the
// chain's operators applied one at a time, each building the wider tuple
// the standalone operator used to emit and compiling its expressions
// against that tuple's own layout (the pipeline compiles them once
// against slots of its scratch row). That the compiled closures agree
// with the interpreter is internal/algebra's differential test.

// chainGen draws random chains of per-row operators over a four-column
// input: $1 int, $2 string, $3 a list, a bag, null or (rarely) a number,
// $4 int.
type chainGen struct {
	r    *rand.Rand
	next algebra.Var
	// visible variables by what they may hold
	ints, strs, colls, any []algebra.Var
}

func newChainGen(r *rand.Rand) *chainGen {
	return &chainGen{r: r, next: 10,
		ints: []algebra.Var{1, 4}, strs: []algebra.Var{2}, colls: []algebra.Var{3}}
}

func (g *chainGen) fresh() algebra.Var {
	g.next++
	return g.next
}

func (g *chainGen) pick(vars []algebra.Var) algebra.Expr {
	return algebra.V(vars[g.r.Intn(len(vars))])
}

func (g *chainGen) visible() []algebra.Var {
	return append(append(append(append([]algebra.Var(nil), g.ints...), g.strs...), g.colls...), g.any...)
}

// intExpr is a number most of the time; one draw in ten hands back a
// variable of another kind, so type errors and nulls flow down the chain.
func (g *chainGen) intExpr() algebra.Expr {
	switch n := g.r.Intn(10); {
	case n == 0:
		return g.pick(g.visible())
	case n < 3 || len(g.ints) == 0:
		return algebra.CInt(int64(g.r.Intn(7)))
	case n < 6:
		return g.pick(g.ints)
	case n < 8 && len(g.colls) > 0:
		return algebra.F("len", g.pick(g.colls))
	default:
		return algebra.F([]string{"add", "sub", "mul", "mod"}[g.r.Intn(4)], g.pick(g.ints), algebra.CInt(int64(g.r.Intn(4))))
	}
}

func (g *chainGen) collExpr() algebra.Expr {
	switch n := g.r.Intn(10); {
	case n < 4 && len(g.colls) > 0:
		return g.pick(g.colls)
	case n < 7 && len(g.strs) > 0:
		return algebra.F("word-tokens", g.pick(g.strs))
	case n < 9:
		return algebra.F("list", g.intExpr(), g.intExpr())
	default:
		return g.pick(g.visible()) // likely not a collection: the unnest error
	}
}

func (g *chainGen) cond() algebra.Expr {
	if g.r.Intn(5) == 0 && len(g.colls) > 0 {
		return algebra.F("not", algebra.F("is-null", g.pick(g.colls)))
	}
	return algebra.F([]string{"lt", "le", "ge", "neq"}[g.r.Intn(4)], g.intExpr(), g.intExpr())
}

func (g *chainGen) stage() *algebra.Op {
	op := &algebra.Op{}
	switch g.r.Intn(7) {
	case 0, 1:
		op.Kind = algebra.OpAssign
		for n := 1 + g.r.Intn(2); n > 0; n-- {
			op.AssignVars = append(op.AssignVars, g.fresh())
			op.AssignExprs = append(op.AssignExprs, g.intExpr())
		}
		g.ints = append(g.ints, op.AssignVars...)
	case 2:
		op.Kind = algebra.OpAssign
		op.AssignVars, op.AssignExprs = []algebra.Var{g.fresh()}, []algebra.Expr{g.collExpr()}
		g.colls = append(g.colls, op.AssignVars...)
	case 3:
		op.Kind, op.Cond = algebra.OpSelect, g.cond()
		if g.r.Intn(2) == 0 {
			// Fused assigns: the second may read the first, the condition both.
			a, b := g.fresh(), g.fresh()
			op.FusedAssignVars = []algebra.Var{a, b}
			op.FusedAssignExprs = []algebra.Expr{g.intExpr(), algebra.F("add", algebra.V(a), g.intExpr())}
			op.Cond = algebra.F("and", op.Cond, algebra.F("ge", algebra.V(b), algebra.V(a)))
			g.ints = append(g.ints, a, b)
		}
	case 4, 5:
		op.Kind, op.Expr, op.UnnestVar = algebra.OpUnnest, g.collExpr(), g.fresh()
		g.any = append(g.any, op.UnnestVar)
		if g.r.Intn(2) == 0 {
			op.PosVar = g.fresh()
			g.ints = append(g.ints, op.PosVar)
		}
	default:
		op.Kind = algebra.OpProject
		keep := func(vars []algebra.Var) []algebra.Var {
			var out []algebra.Var
			for _, v := range vars {
				if g.r.Intn(4) > 0 {
					out = append(out, v)
				}
			}
			return out
		}
		g.ints, g.strs, g.colls, g.any = keep(g.ints), keep(g.strs), keep(g.colls), keep(g.any)
		op.Vars = g.visible()
		g.r.Shuffle(len(op.Vars), func(i, j int) { op.Vars[i], op.Vars[j] = op.Vars[j], op.Vars[i] })
	}
	return op
}

func randomChainInput(r *rand.Rand) []hyracks.Tuple {
	words := []string{"great", "product", "of", "love", "the", "charger"}
	tuples := make([]hyracks.Tuple, 1+r.Intn(8))
	for i := range tuples {
		elems := make([]adm.Value, r.Intn(4))
		for j := range elems {
			elems[j] = adm.NewInt(int64(r.Intn(5)))
			if r.Intn(3) == 0 {
				elems[j] = adm.NewString(words[r.Intn(len(words))])
			}
		}
		coll := adm.NewList(elems)
		switch r.Intn(8) {
		case 0:
			coll = adm.NewBag(elems)
		case 1:
			coll = adm.Null
		case 2:
			coll = adm.NewDouble(2.5)
		}
		tuples[i] = hyracks.Tuple{adm.NewInt(int64(r.Intn(6))), adm.NewString(words[r.Intn(6)] + " " + words[r.Intn(6)]), coll, adm.NewInt(int64(r.Intn(6)))}
	}
	return tuples
}

// applyOneAtATime is the reference: every stage copies its input tuple
// and appends what it defines, depth first, so rows come out in the order
// a chain of standalone operators emits them and the first error is the
// first one such a chain meets on its first failing row.
func applyOneAtATime(ops []*algebra.Op, schema []algebra.Var, t hyracks.Tuple, emit func([]algebra.Var, hyracks.Tuple)) error {
	if len(ops) == 0 {
		emit(schema, t)
		return nil
	}
	op, rest := ops[0], ops[1:]
	eval := func(e algebra.Expr, schema []algebra.Var, row hyracks.Tuple) (adm.Value, error) {
		fn, ok := algebra.Compile(e, colMap(schema))
		if !ok {
			panic("expression does not compile: " + e.String())
		}
		return fn(row)
	}
	extend := func(vars ...algebra.Var) []algebra.Var {
		return append(append([]algebra.Var(nil), schema...), vars...)
	}
	switch op.Kind {
	case algebra.OpAssign:
		nt := t.Clone()
		for _, e := range op.AssignExprs {
			v, err := eval(e, schema, t)
			if err != nil {
				return err
			}
			nt = append(nt, v)
		}
		return applyOneAtATime(rest, extend(op.AssignVars...), nt, emit)
	case algebra.OpSelect:
		wide, row := extend(op.FusedAssignVars...), t.Clone()
		for _, e := range op.FusedAssignExprs {
			v, err := eval(e, wide, row)
			if err != nil {
				return err
			}
			row = append(row, v)
		}
		v, err := eval(op.Cond, wide, row)
		if err != nil || !algebra.Truthy(v) {
			return err
		}
		return applyOneAtATime(rest, wide, row, emit)
	case algebra.OpUnnest:
		v, err := eval(op.Expr, schema, t)
		if err != nil || v.IsNull() {
			return err
		}
		if v.Kind() != adm.KindList && v.Kind() != adm.KindBag {
			return fmt.Errorf("unnest over %v value", v.Kind())
		}
		wide := extend(op.UnnestVar)
		if op.PosVar != 0 {
			wide = append(wide, op.PosVar)
		}
		for i, e := range v.Elems() {
			nt := append(t.Clone(), e)
			if op.PosVar != 0 {
				nt = append(nt, adm.NewInt(int64(i+1)))
			}
			if err := applyOneAtATime(rest, wide, nt, emit); err != nil {
				return err
			}
		}
		return nil
	case algebra.OpProject:
		cols := colMap(schema)
		nt := make(hyracks.Tuple, len(op.Vars))
		for i, v := range op.Vars {
			nt[i] = t[cols[v]]
		}
		return applyOneAtATime(rest, op.Vars, nt, emit)
	}
	panic("not a per-row operator")
}

func TestFusedPipelineMatchesStagesOneAtATime(t *testing.T) {
	input := []algebra.Var{1, 2, 3, 4}
	var failed, unnested, fusedAssigns, passedInput int
	for seed := int64(0); seed < 600; seed++ {
		r := rand.New(rand.NewSource(seed))
		cg := newChainGen(r)
		chain := make([]*algebra.Op, 1+r.Intn(6))
		for i := range chain {
			chain[i] = cg.stage()
			if chain[i].Kind == algebra.OpUnnest {
				unnested++
			}
			if len(chain[i].FusedAssignVars) > 0 {
				fusedAssigns++
			}
		}
		tuples := randomChainInput(r)
		live := map[algebra.Var]bool{}
		for _, v := range cg.visible() {
			live[v] = r.Intn(3) > 0
		}

		// The pipeline, read from a port: one node between a source node
		// and a sink.
		port := runChain(t, chain, input, tuples, live, false)
		if port.nodes > 2 {
			t.Fatalf("seed %d: a chain of %d operators became %d job nodes", seed, len(chain), port.nodes-1)
		}
		if port.nodes == 1 {
			passedInput++
		}
		// The same chain headed by a source that writes the rows into the
		// scratch row itself: one node.
		src := runChain(t, chain, input, tuples, live, true)
		if src.nodes != 1 {
			t.Fatalf("seed %d: a source and a chain of %d operators became %d job nodes", seed, len(chain), src.nodes)
		}
		keep := port.keep

		var want []hyracks.Tuple
		var wantErr error
		for _, tu := range tuples {
			wantErr = applyOneAtATime(chain, input, tu, func(schema []algebra.Var, row hyracks.Tuple) {
				cols := colMap(schema)
				nt := make(hyracks.Tuple, len(keep))
				for i, v := range keep {
					nt[i] = row[cols[v]]
				}
				want = append(want, nt)
			})
			if wantErr != nil {
				break
			}
		}

		desc := func() string {
			var b strings.Builder
			for _, op := range chain {
				fmt.Fprintf(&b, "  %s\n", strings.TrimSpace(algebra.Print(op)))
			}
			return fmt.Sprintf("seed %d, keep %v, chain:\n%s", seed, keep, b.String())
		}
		if wantErr != nil {
			failed++
			for _, e := range []error{port.err, src.err} {
				if e == nil || !strings.HasSuffix(e.Error(), ": "+wantErr.Error()) {
					t.Fatalf("%spipeline error %v (port) and %v (source), one at a time: %v", desc(), port.err, src.err, wantErr)
				}
			}
			continue
		}
		if port.err != nil || src.err != nil {
			t.Fatalf("%spipeline error %v (port) and %v (source), one at a time none", desc(), port.err, src.err)
		}
		for head, rows := range map[string][]hyracks.Tuple{"port": port.rows, "source": src.rows} {
			if len(rows) != len(want) {
				t.Fatalf("%spipeline headed by a %s emitted %d rows, one at a time %d", desc(), head, len(rows), len(want))
			}
			for i, row := range rows {
				if fmt.Sprint(row) != fmt.Sprint(want[i]) {
					t.Fatalf("%srow %d: pipeline headed by a %s %v, one at a time %v", desc(), i, head, row, want[i])
				}
			}
		}
	}
	t.Logf("600 chains: %d raised an error, %d unnests, %d selects with fused assigns, %d read from a port sealed into no node", failed, unnested, fusedAssigns, passedInput)
	if failed < 30 || failed > 400 || unnested < 100 || fusedAssigns < 50 {
		t.Errorf("the generator no longer covers the cases: %d errors, %d unnests, %d fused assigns", failed, unnested, fusedAssigns)
	}
}

// chainRun is one run of a chain: the rows and error it ended with, the
// job nodes before the sink, and the variables its end kept.
type chainRun struct {
	rows  []hyracks.Tuple
	err   error
	nodes int
	keep  []algebra.Var
}

// runChain builds chain as one pipeline over tuples of input, headed by
// a port a source node feeds or by a source of the pipeline's own, and
// runs it into a sink.
func runChain(t *testing.T, chain []*algebra.Op, input []algebra.Var, tuples []hyracks.Tuple, live map[algebra.Var]bool, headed bool) chainRun {
	t.Helper()
	g := &jobGen{job: &hyracks.Job{}}
	var p *pipeline
	if headed {
		p = g.openSource(input, 1, func(_ *hyracks.TaskCtx, row hyracks.Tuple, next step) error {
			for _, tu := range tuples {
				copy(row, tu)
				if err := next(row); err != nil {
					return err
				}
			}
			return nil
		})
	} else {
		src := g.job.Add("Source", 1, func() hyracks.Operator {
			return hyracks.OpFunc(func(_ *hyracks.TaskCtx, _ []*hyracks.PortReader, outs []*hyracks.Emitter) error {
				for _, tu := range tuples {
					outs[0].Emit(tu)
				}
				return nil
			})
		})
		p = g.openPipeline(&genOut{node: src, schema: input, parts: 1})
	}
	for _, op := range chain {
		if err := p.stage(op, &QueryCounters{}); err != nil {
			t.Fatal(err)
		}
	}
	run := chainRun{keep: p.liveVars(live)}
	out, err := g.seal(p, run.keep)
	if err != nil {
		t.Fatal(err)
	}
	run.nodes = len(g.job.Nodes())
	sink := &hyracks.Collector{}
	hyracks.MakeSink(g.job, "Sink", sink, g.inputFrom(out, hyracks.ConnectorSpec{Type: hyracks.GatherOne}))
	_, run.err = hyracks.Run(context.Background(), g.job, hyracks.Topology{Partitions: 1, PartsPerNode: 1})
	run.rows = sink.Tuples
	return run
}
