package algebra

import (
	"math/rand"
	"testing"
)

// planGen draws random plan DAGs whose expressions come from genExpr
// (FuzzCompiledEval's generator), its variables renamed to ones the
// operator's input carries.
type planGen struct {
	r     *rand.Rand
	alloc VarAlloc
	made  []*Op // subplans so far: a later operator may read one again
}

func (g *planGen) expr(schema []Var) Expr {
	m := map[Var]Var{}
	for v := Var(0); v < 5; v++ {
		m[v] = schema[g.r.Intn(len(schema))]
	}
	return SubstVars(genExpr(g.r, g.r.Intn(3)), m)
}

func (g *planGen) ref(schema []Var) Expr { return V(schema[g.r.Intn(len(schema))]) }

// distinct reports whether two subplans can be joined or unioned: plans
// never carry one variable twice in a tuple.
func distinct(a, b *Op) bool {
	seen := map[Var]bool{}
	for _, v := range a.Schema() {
		seen[v] = true
	}
	for _, v := range b.Schema() {
		if seen[v] {
			return false
		}
	}
	return true
}

func (g *planGen) plan(depth int) *Op {
	if depth <= 0 || g.r.Intn(8) == 0 {
		if len(g.made) > 0 && g.r.Intn(3) == 0 {
			return g.made[g.r.Intn(len(g.made))] // a shared node
		}
		op := NewOp(OpScan)
		op.PKVar, op.RecVar = g.alloc.New(), g.alloc.New()
		g.made = append(g.made, op)
		return op
	}
	in := g.plan(depth - 1)
	schema := in.Schema()
	op := NewOp(OpKind(0), in)
	switch g.r.Intn(11) {
	case 0:
		op.Kind, op.Cond = OpSelect, g.expr(schema)
		if g.r.Intn(2) == 0 {
			op.FusedAssignVars, op.FusedAssignExprs = []Var{g.alloc.New()}, []Expr{g.expr(schema)}
		}
	case 1, 2:
		op.Kind = OpAssign
		for n := 1 + g.r.Intn(2); n > 0; n-- {
			op.AssignVars, op.AssignExprs = append(op.AssignVars, g.alloc.New()), append(op.AssignExprs, g.expr(schema))
		}
	case 3:
		op.Kind = OpProject
		for _, v := range schema {
			if g.r.Intn(3) > 0 {
				op.Vars = append(op.Vars, v)
			}
		}
		if len(op.Vars) == 0 {
			op.Vars = schema[:1]
		}
	case 4:
		op.Kind, op.Expr, op.UnnestVar = OpUnnest, g.expr(schema), g.alloc.New()
		if g.r.Intn(2) == 0 {
			op.PosVar = g.alloc.New()
		}
	case 5:
		other := g.plan(depth - 1)
		if !distinct(in, other) {
			return in
		}
		op.Kind, op.Inputs = OpJoin, []*Op{in, other}
		op.Cond = g.expr(append(schema, other.Schema()...))
		op.JoinLeftKeys, op.JoinRightKeys = []Expr{g.ref(schema)}, []Expr{g.ref(other.Schema())}
	case 6:
		op.Kind = OpGroupBy
		op.Keys = []KeyDef{{V: g.alloc.New(), E: g.ref(schema)}}
		op.Aggs = []AggDef{{V: g.alloc.New(), Kind: AggListify, E: g.ref(schema)}, {V: g.alloc.New(), Kind: AggCount, E: CInt(1)}}
	case 7:
		other := g.plan(depth - 1)
		if !distinct(in, other) {
			return in
		}
		op.Kind, op.Inputs = OpUnion, []*Op{in, other}
		op.InVars = [][]Var{{schema[g.r.Intn(len(schema))]}, {other.Schema()[0]}}
		op.OutVars = []Var{g.alloc.New()}
	case 8:
		op.Kind, op.Orders = OpOrder, []OrderSpec{{E: g.ref(schema)}}
	case 9:
		op.Kind, op.PosVar = OpRank, g.alloc.New()
	default:
		op.Kind, op.Aggs = OpAggregate, []AggDef{{V: g.alloc.New(), Kind: AggSum, E: g.ref(schema)}}
	}
	g.made = append(g.made, op)
	return op
}

// unmet lists, by the definition and not by LiveVars' own code, the
// (operator, variable) pairs an operator above cannot get: a variable of
// an input's schema that the operator reads — in an expression, as a
// union or result column — or hands on because it is asked for it, and
// that the input's kept set lacks.
func unmet(root *Op, live map[*Op]map[Var]bool) int {
	n := 0
	Walk(root, func(op *Op) {
		for i, in := range op.Inputs {
			var want []Var
			for _, e := range op.UsedExprs() {
				want = UsedVars(e, want)
			}
			switch op.Kind {
			case OpUnion:
				want = append(want, op.InVars[i]...)
			case OpWrite:
				want = append(want, op.Var)
			}
			// Whatever is asked of op, is in its output and comes from
			// this input passes through.
			for _, v := range op.Schema() {
				if live[op][v] {
					want = append(want, v)
				}
			}
			has := map[Var]bool{}
			for _, v := range in.Schema() {
				has[v] = true
			}
			for _, v := range want {
				if has[v] && !live[in][v] {
					n++
				}
			}
		}
	})
	return n
}

// TestLiveVarsKeepWhatIsReadAndNothingElse: on random plans every
// variable an operator reads, or hands on to a reader, is in its input's
// kept set, and dropping any one kept variable breaks that.
func TestLiveVarsKeepWhatIsReadAndNothingElse(t *testing.T) {
	var ops, kept, shared int
	for seed := int64(0); seed < 300; seed++ {
		g := &planGen{r: rand.New(rand.NewSource(seed))}
		body := g.plan(2 + g.r.Intn(6))
		root := NewOp(OpWrite, body)
		root.Var = body.Schema()[g.r.Intn(len(body.Schema()))]

		live := LiveVars(root)
		if n := unmet(root, live); n != 0 {
			t.Fatalf("seed %d: %d reads of variables their input does not keep:\n%s", seed, n, Print(root))
		}
		parents := map[*Op]int{}
		Walk(root, func(op *Op) {
			ops++
			for _, in := range op.Inputs {
				if parents[in]++; parents[in] == 2 {
					shared++
				}
			}
		})
		Walk(root, func(op *Op) {
			for _, v := range op.Schema() {
				if !live[op][v] || op == root {
					continue
				}
				kept++
				delete(live[op], v)
				if unmet(root, live) == 0 {
					t.Fatalf("seed %d: %v is kept in the output of %v and nothing above reads it:\n%s", seed, v, op.Kind, Print(root))
				}
				live[op][v] = true
			}
		})
	}
	t.Logf("300 plans, %d operators (%d shared), %d kept variables", ops, shared, kept)
	if shared < 20 || kept < 1000 {
		t.Errorf("the generator no longer covers the cases: %d shared nodes, %d kept variables", shared, kept)
	}
}
