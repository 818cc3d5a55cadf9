package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
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
// against slots of its scratch row), and each push form run standalone
// over all the rows that reach it. That the compiled closures agree with
// the interpreter is internal/algebra's differential test; that the push
// forms sort, group, aggregate and join is internal/hyracks's.

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

// chainStage is one stage of a random chain: a per-row algebra operator
// (op), or a stage of kind, one of the stages job generation gives an
// operator that is not per-row.
type chainStage struct {
	op   *algebra.Op
	kind string
	// in are the variables a push form is handed, out those it defines.
	in, out []algebra.Var
	orders  []algebra.OrderSpec // Sort
	keys    []int               // group and probe keys, columns of in
	specs   []hyracks.AggSpec   // aggregates, over columns of in
	pos     algebra.Var         // Rank
	n       int64               // Limit
	table   *hyracks.JoinTable  // HashJoin(kept)
}

// blocks reports whether the stage holds its rows until its input ends.
func (s *chainStage) blocks() bool {
	switch s.kind {
	case "Sort", "SortGroup", "HashGroup", "Aggregate":
		return true
	}
	return false
}

// category returns the list of g that holds v.
func (g *chainGen) category(v algebra.Var) *[]algebra.Var {
	for _, l := range []*[]algebra.Var{&g.ints, &g.strs, &g.colls} {
		if slices.Contains(*l, v) {
			return l
		}
	}
	return &g.any
}

// draw draws the next stage: a per-row operator most of the time, else
// one of the stages the other operators become.
func (g *chainGen) draw() []*chainStage {
	in := g.visible()
	if g.r.Intn(3) > 0 || len(in) == 0 {
		return []*chainStage{{op: g.stage()}}
	}
	s := &chainStage{in: in}
	switch g.r.Intn(6) {
	case 0:
		s.kind = "Sort"
		for _, v := range g.r.Perm(len(in))[:1+g.r.Intn(min(2, len(in)))] {
			s.orders = append(s.orders, algebra.OrderSpec{E: algebra.V(in[v]), Desc: g.r.Intn(2) == 0})
		}
		s.out = in
	case 1, 2:
		s.kind = []string{"SortGroup", "HashGroup", "Aggregate"}[g.r.Intn(3)]
		g.aggregates(s)
		if s.kind == "HashGroup" {
			// Hash groups come out in no order: sort them on the key.
			return []*chainStage{s, {kind: "Sort", in: s.out, out: s.out, orders: []algebra.OrderSpec{{E: algebra.V(s.out[0])}}}}
		}
	case 3:
		s.kind, s.pos = "Rank", g.fresh()
		g.ints = append(g.ints, s.pos)
	case 4:
		s.kind, s.n = "Limit", int64(g.r.Intn(6))
	default:
		s.kind = "HashJoin(kept)"
		probe := in[g.r.Intn(len(in))]
		if len(g.ints) > 0 && g.r.Intn(4) > 0 {
			probe = g.ints[g.r.Intn(len(g.ints))]
		}
		s.keys = []int{colMap(in)[probe]}
		bk, bv := g.fresh(), g.fresh()
		s.out = append([]algebra.Var{bk, bv}, in...)
		s.table = keptTable(g.r)
		g.ints, g.strs = append(g.ints, bk), append(g.strs, bv)
	}
	return []*chainStage{s}
}

// aggregates fills in a group-by's or an aggregate's keys, aggregates
// and output, and makes them what the chain sees.
func (g *chainGen) aggregates(s *chainStage) {
	cols := colMap(s.in)
	type def struct {
		v   algebra.Var
		cat *[]algebra.Var
	}
	var defs []def
	if s.kind != "Aggregate" {
		src := s.in[g.r.Intn(len(s.in))]
		s.keys = []int{cols[src]}
		defs = append(defs, def{g.fresh(), g.category(src)})
	}
	for n := 1 + g.r.Intn(3); n > 0; n-- {
		src := s.in[g.r.Intn(len(s.in))]
		switch k := g.r.Intn(4); {
		case k == 0:
			s.specs = append(s.specs, hyracks.AggSpec{Kind: hyracks.AggCount})
			defs = append(defs, def{g.fresh(), &g.ints})
		case k == 1 && len(g.ints) > 0:
			src = g.ints[g.r.Intn(len(g.ints))]
			s.specs = append(s.specs, hyracks.AggSpec{Kind: hyracks.AggSum, In: cols[src]})
			defs = append(defs, def{g.fresh(), &g.ints})
		default:
			kind := hyracks.AggMin
			if k == 3 {
				kind = hyracks.AggMax
			}
			s.specs = append(s.specs, hyracks.AggSpec{Kind: kind, In: cols[src]})
			defs = append(defs, def{g.fresh(), g.category(src)})
		}
	}
	// The group's output is all the chain sees from here on.
	g.ints, g.strs, g.colls, g.any = nil, nil, nil, nil
	for _, d := range defs {
		s.out = append(s.out, d.v)
		*d.cat = append(*d.cat, d.v)
	}
}

// keptTable is the table a hash join kept of a few (int key, string)
// build rows, keys drawn from what intExpr yields.
func keptTable(r *rand.Rand) *hyracks.JoinTable {
	var kept *hyracks.JoinTable
	j := hyracks.HashJoin(&hyracks.TaskCtx{Ctx: context.Background()}, []int{0}, []int{0},
		func(_ int, t *hyracks.JoinTable) bool { kept = t; return true },
		func(b, p hyracks.Tuple) error { return nil })
	for i := r.Intn(5); i > 0; i-- {
		if err := j.AddBuild(hyracks.Tuple{adm.NewInt(int64(r.Intn(7))), adm.NewString(fmt.Sprintf("b%d", i))}); err != nil {
			panic(err)
		}
	}
	if err := j.EndBuild(); err != nil {
		panic(err)
	}
	if err := j.End(); err != nil {
		panic(err)
	}
	return kept
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

// refRun is the reference: the chain's stages one at a time over rows
// of schema. Per-row stages run depth first (applyOneAtATime) up to the
// first stage that holds its rows; that one runs its push form
// standalone over every row that reached it, and the rest of the chain
// runs over what it emits. It returns the rows at the end of the chain,
// each with its schema.
func refRun(chain []*chainStage, schema []algebra.Var, rows []hyracks.Tuple) ([][]algebra.Var, []hyracks.Tuple, error) {
	b := slices.IndexFunc(chain, (*chainStage).blocks)
	if b < 0 {
		b = len(chain)
	}
	var schemas [][]algebra.Var
	var out []hyracks.Tuple
	seen := map[*chainStage]int64{}
	for _, t := range rows {
		if err := applyOneAtATime(chain[:b], seen, schema, t, func(sch []algebra.Var, row hyracks.Tuple) {
			schemas, out = append(schemas, sch), append(out, row)
		}); err != nil {
			return nil, nil, err
		}
	}
	if b == len(chain) {
		return schemas, out, nil
	}
	s := chain[b]
	ctx := &hyracks.TaskCtx{Ctx: context.Background()}
	var held []hyracks.Tuple
	emit := func(t hyracks.Tuple) error {
		held = append(held, t.Clone())
		return nil
	}
	var form hyracks.Push
	switch s.kind {
	case "Sort":
		form = hyracks.Sort(ctx, sortColsOf(s.in, s.orders), emit)
	case "SortGroup":
		form = hyracks.SortGroup(ctx, s.keys, s.specs, emit)
	case "HashGroup":
		form = hyracks.HashGroup(ctx, s.keys, s.specs, emit)
	case "Aggregate":
		// The chain runs it as a local and a final pass; standalone it
		// is the one scalar aggregate.
		form = hyracks.Aggregate(s.specs, hyracks.AggWhole, emit)
	}
	for i, row := range out {
		if err := form.Add(cut(row, schemas[i], s.in)); err != nil {
			return nil, nil, err
		}
	}
	if err := form.End(); err != nil {
		return nil, nil, err
	}
	return refRun(chain[b+1:], s.out, held)
}

// cut returns the columns of vars of a row of schema.
func cut(row hyracks.Tuple, schema, vars []algebra.Var) hyracks.Tuple {
	cols := colMap(schema)
	out := make(hyracks.Tuple, len(vars))
	for i, v := range vars {
		out[i] = row[cols[v]]
	}
	return out
}

func sortColsOf(vars []algebra.Var, orders []algebra.OrderSpec) []hyracks.SortCol {
	cols := colMap(vars)
	out := make([]hyracks.SortCol, len(orders))
	for i, o := range orders {
		out[i] = hyracks.SortCol{Col: cols[o.E.(algebra.VarRef).V], Desc: o.Desc}
	}
	return out
}

// applyOneAtATime runs per-row stages over one row: every stage copies
// its input tuple and appends what it defines, depth first, so rows come
// out in the order a chain of standalone operators emits them and the
// first error is the first one such a chain meets on its first failing
// row. seen counts the rows each rank or limit has passed on so far.
func applyOneAtATime(chain []*chainStage, seen map[*chainStage]int64, schema []algebra.Var, t hyracks.Tuple, emit func([]algebra.Var, hyracks.Tuple)) error {
	if len(chain) == 0 {
		emit(schema, t)
		return nil
	}
	st, rest := chain[0], chain[1:]
	switch st.kind {
	case "Rank":
		seen[st]++
		return applyOneAtATime(rest, seen, append(append([]algebra.Var(nil), schema...), st.pos), append(t.Clone(), adm.NewInt(seen[st])), emit)
	case "Limit":
		if seen[st] >= st.n {
			return nil
		}
		seen[st]++
		return applyOneAtATime(rest, seen, schema, t, emit)
	case "HashJoin(kept)":
		probe := cut(t, schema, st.in)
		var pairs []hyracks.Tuple
		if err := hyracks.HashJoinKept(st.table, st.keys, func(b, p hyracks.Tuple) error {
			pairs = append(pairs, append(b.Clone(), p...))
			return nil
		}).Add(probe); err != nil {
			return err
		}
		for _, pair := range pairs {
			if err := applyOneAtATime(rest, seen, st.out, pair, emit); err != nil {
				return err
			}
		}
		return nil
	}
	op := st.op
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
		return applyOneAtATime(rest, seen, extend(op.AssignVars...), nt, emit)
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
		return applyOneAtATime(rest, seen, wide, row, emit)
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
			if err := applyOneAtATime(rest, seen, wide, nt, emit); err != nil {
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
		return applyOneAtATime(rest, seen, op.Vars, nt, emit)
	}
	panic("not a per-row operator")
}

func TestFusedPipelineMatchesStagesOneAtATime(t *testing.T) {
	input := []algebra.Var{1, 2, 3, 4}
	const chains = 1000
	var failed, unnested, fusedAssigns, passedInput int
	kinds := map[string]int{}
	for seed := int64(0); seed < chains; seed++ {
		r := rand.New(rand.NewSource(seed))
		cg := newChainGen(r)
		var chain []*chainStage
		for n := 1 + r.Intn(6); n > 0; n-- {
			chain = append(chain, cg.draw()...)
		}
		for _, st := range chain {
			switch {
			case st.op == nil:
				kinds[st.kind]++
			case st.op.Kind == algebra.OpUnnest:
				unnested++
			case len(st.op.FusedAssignVars) > 0:
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
		schemas, rows, wantErr := refRun(chain, input, tuples)
		for i, row := range rows {
			want = append(want, cut(row, schemas[i], keep))
		}

		desc := func() string {
			var b strings.Builder
			for _, st := range chain {
				if st.op != nil {
					fmt.Fprintf(&b, "  %s\n", strings.TrimSpace(algebra.Print(st.op)))
				} else {
					fmt.Fprintf(&b, "  %s in %v out %v orders %v keys %v aggs %v pos %v n %d\n", st.kind, st.in, st.out, st.orders, st.keys, st.specs, st.pos, st.n)
				}
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
	t.Logf("%d chains: %d raised an error, %d unnests, %d selects with fused assigns, %d read from a port sealed into no node, other stages %v",
		chains, failed, unnested, fusedAssigns, passedInput, kinds)
	if failed < 30 || failed > 600 || unnested < 100 || fusedAssigns < 50 {
		t.Errorf("the generator no longer covers the cases: %d errors, %d unnests, %d fused assigns", failed, unnested, fusedAssigns)
	}
	for _, kind := range []string{"Sort", "SortGroup", "HashGroup", "Aggregate", "Rank", "Limit", "HashJoin(kept)"} {
		if kinds[kind] < 50 {
			t.Errorf("the generator drew %d %s stages, want at least 50", kinds[kind], kind)
		}
	}
}

// addTo adds the stage to p as job generation adds its operator's.
func (st *chainStage) addTo(p *pipeline) error {
	switch st.kind {
	case "":
		return p.stage(st.op, &QueryCounters{})
	case "Sort":
		return p.sort(st.in, st.orders)
	case "SortGroup":
		return p.group(st.kind, hyracks.SortGroup, st.in, st.out, st.keys, st.specs)
	case "HashGroup":
		return p.group(st.kind, hyracks.HashGroup, st.in, st.out, st.keys, st.specs)
	case "Aggregate":
		final := make([]hyracks.AggSpec, len(st.specs))
		for i, spec := range st.specs {
			final[i] = hyracks.AggSpec{Kind: spec.Kind, In: i}
		}
		if err := p.aggregate(hyracks.AggLocal, st.in, st.out, st.specs); err != nil {
			return err
		}
		return p.aggregate(hyracks.AggFinal, st.out, st.out, final)
	case "Rank":
		p.rank(st.pos)
	case "Limit":
		p.limit(st.n)
	case "HashJoin(kept)":
		return p.push(st.kind, st.in, st.out, false, func(_ *instance, emit pushEmit) (hyracks.Push, error) {
			return hyracks.HashJoinKept(st.table, st.keys, emit), nil
		})
	}
	return nil
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
func runChain(t *testing.T, chain []*chainStage, input []algebra.Var, tuples []hyracks.Tuple, live map[algebra.Var]bool, headed bool) chainRun {
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
		src := g.job.Add("Source", 1, func(_ *hyracks.TaskCtx, _ []*hyracks.PortReader, outs []*hyracks.Emitter) error {
			for _, tu := range tuples {
				outs[0].Emit(tu)
			}
			return nil
		})
		p = g.openPipeline(&genOut{node: src, schema: input, parts: 1})
	}
	for _, st := range chain {
		if err := st.addTo(p); err != nil {
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
	if err := g.deliver(g.openPort(out, hyracks.ConnectorSpec{Type: hyracks.GatherOne}, 1), run.keep, sink); err != nil {
		t.Fatal(err)
	}
	_, run.err = hyracks.Run(context.Background(), g.job, hyracks.Topology{Partitions: 1, PartsPerNode: 1})
	run.rows = sink.Tuples
	return run
}

// TestRankAssignsPositions: a rank stage numbers the rows of its chain
// in order, here the order of the sort stage before it.
func TestRankAssignsPositions(t *testing.T) {
	var tuples []hyracks.Tuple
	for _, v := range []int64{30, 10, 20} {
		tuples = append(tuples, hyracks.Tuple{adm.NewInt(v)})
	}
	chain := []*chainStage{
		{kind: "Sort", in: []algebra.Var{1}, out: []algebra.Var{1}, orders: []algebra.OrderSpec{{E: algebra.V(1)}}},
		{kind: "Rank", pos: 2},
	}
	run := runChain(t, chain, []algebra.Var{1}, tuples, map[algebra.Var]bool{1: true, 2: true}, false)
	if run.err != nil || fmt.Sprint(run.rows) != "[[10 1] [20 2] [30 3]]" {
		t.Errorf("ranked rows %v, error %v; want [[10 1] [20 2] [30 3]]", run.rows, run.err)
	}
}

// TestLimitStopsEarly: a limit stage passes on the first five of 100 000
// rows and no more.
func TestLimitStopsEarly(t *testing.T) {
	tuples := make([]hyracks.Tuple, 100000)
	for i := range tuples {
		tuples[i] = hyracks.Tuple{adm.NewInt(int64(i))}
	}
	for _, headed := range []bool{false, true} {
		run := runChain(t, []*chainStage{{kind: "Limit", n: 5}}, []algebra.Var{1}, tuples, map[algebra.Var]bool{1: true}, headed)
		if run.err != nil || fmt.Sprint(run.rows) != "[[0] [1] [2] [3] [4]]" {
			t.Errorf("headed by a source %v: limit produced %v, error %v", headed, run.rows, run.err)
		}
	}
}
