package algebra

import (
	"strings"
	"testing"

	"simdb/internal/adm"
)

func evalOK(t *testing.T, e Expr, env *Env) adm.Value {
	t.Helper()
	v, err := Eval(e, env)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func emptyEnv() *Env { return NewEnv(map[Var]int{}, nil) }

func TestEvalScalars(t *testing.T) {
	env := emptyEnv()
	cases := []struct {
		e    Expr
		want adm.Value
	}{
		{F("add", CInt(2), CInt(3)), adm.NewInt(5)},
		{F("add", CInt(2), C(adm.NewDouble(0.5))), adm.NewDouble(2.5)},
		{F("sub", CInt(10), CInt(4)), adm.NewInt(6)},
		{F("mul", CInt(3), CInt(4)), adm.NewInt(12)},
		{F("div", CInt(10), CInt(4)), adm.NewDouble(2.5)},
		{F("mod", CInt(10), CInt(3)), adm.NewInt(1)},
		{F("neg", CInt(5)), adm.NewInt(-5)},
		{F("eq", CInt(1), C(adm.NewDouble(1))), adm.NewBool(true)},
		{F("lt", CStr("a"), CStr("b")), adm.NewBool(true)},
		{F("ge", CInt(3), CInt(3)), adm.NewBool(true)},
		{F("and", C(adm.NewBool(true)), C(adm.NewBool(false))), adm.NewBool(false)},
		{F("or", C(adm.NewBool(false)), C(adm.NewBool(true))), adm.NewBool(true)},
		{F("not", C(adm.NewBool(false))), adm.NewBool(true)},
		{F("is-null", C(adm.Null)), adm.NewBool(true)},
		{F("len", CStr("héllo")), adm.NewInt(5)},
		{F("lowercase", CStr("AbC")), adm.NewString("abc")},
		{F("contains", CStr("hello world"), CStr("lo w")), adm.NewBool(true)},
	}
	for _, c := range cases {
		if got := evalOK(t, c.e, env); !adm.Equal(got, c.want) {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestEvalNullPropagation(t *testing.T) {
	env := emptyEnv()
	for _, e := range []Expr{
		F("eq", C(adm.Null), CInt(1)),
		F("add", C(adm.Null), CInt(1)),
		F("edit-distance", C(adm.Null), CStr("x")),
		F("similarity-jaccard", C(adm.Null), F("list")),
	} {
		if got := evalOK(t, e, env); !got.IsNull() {
			t.Errorf("%s = %v, want null", e, got)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	env := emptyEnv()
	for _, e := range []Expr{
		F("div", CInt(1), CInt(0)),
		F("unknown-fn", CInt(1)),
		F("mod", CStr("x"), CInt(1)),
		V(Var(99)),
	} {
		if _, err := Eval(e, env); err == nil {
			t.Errorf("%s should error", e)
		}
	}
}

func TestEvalVarsAndFieldAccess(t *testing.T) {
	rec := adm.EmptyRecord(1)
	rec.Set("name", adm.NewString("ann"))
	env := NewEnv(map[Var]int{1: 0}, []adm.Value{adm.NewRecord(rec)})
	got := evalOK(t, F("field-access", V(1), CStr("name")), env)
	if got.Str() != "ann" {
		t.Errorf("field access = %v", got)
	}
	if got := evalOK(t, F("field-access", V(1), CStr("zip")), env); !got.IsNull() {
		t.Errorf("missing field = %v, want null (open records)", got)
	}
}

func TestEvalSimilarityFunctions(t *testing.T) {
	env := emptyEnv()
	if got := evalOK(t, F("edit-distance", CStr("james"), CStr("jamie")), env); got.Int() != 2 {
		t.Errorf("edit-distance = %v", got)
	}
	lists := F("similarity-jaccard",
		F("word-tokens", CStr("Good Product Value")),
		F("word-tokens", CStr("Nice Product")))
	if got := evalOK(t, lists, env); got.Double() != 0.25 {
		t.Errorf("jaccard = %v", got)
	}
	check := F("similarity-jaccard-check",
		F("word-tokens", CStr("a b c d")), F("word-tokens", CStr("a b c x")), C(adm.NewDouble(0.5)))
	if got := evalOK(t, check, env); got.IsNull() || got.Double() != 0.6 {
		t.Errorf("jaccard-check = %v, want 0.6", got)
	}
	below := F("similarity-jaccard-check",
		F("word-tokens", CStr("a b")), F("word-tokens", CStr("x y")), C(adm.NewDouble(0.5)))
	if got := evalOK(t, below, env); !got.IsNull() {
		t.Errorf("jaccard-check below threshold = %v, want null", got)
	}
	edlist := F("edit-distance",
		F("word-tokens", CStr("Better than I expected")),
		F("word-tokens", CStr("Better than expected")))
	if got := evalOK(t, edlist, env); got.Int() != 1 {
		t.Errorf("list edit-distance = %v, want 1", got)
	}
	cont := F("edit-distance-contains", CStr("the quick brown fox"), CStr("quik"), CInt(1))
	if got := evalOK(t, cont, env); !got.Bool() {
		t.Errorf("edit-distance-contains = %v", got)
	}
}

func TestEvalSubsetCollectionAndPrefixLen(t *testing.T) {
	env := emptyEnv()
	lst := F("list", CInt(10), CInt(20), CInt(30), CInt(40))
	got := evalOK(t, F("subset-collection", lst, CInt(1), CInt(2)), env)
	if len(got.Elems()) != 2 || got.Elems()[0].Int() != 20 {
		t.Errorf("subset-collection = %v", got)
	}
	if got := evalOK(t, F("subset-collection", lst, CInt(2), CInt(99)), env); len(got.Elems()) != 2 {
		t.Errorf("subset-collection clamp = %v", got)
	}
	if got := evalOK(t, F("prefix-len-jaccard", CInt(10), C(adm.NewDouble(0.8))), env); got.Int() != 3 {
		t.Errorf("prefix-len-jaccard = %v", got)
	}
}

func TestEvalListAggregates(t *testing.T) {
	env := emptyEnv()
	lst := F("list", CInt(3), CInt(1), CInt(2))
	if got := evalOK(t, F("count", lst), env); got.Int() != 3 {
		t.Errorf("count = %v", got)
	}
	if got := evalOK(t, F("sum", lst), env); got.Int() != 6 {
		t.Errorf("sum = %v", got)
	}
	if got := evalOK(t, F("min", lst), env); got.Int() != 1 {
		t.Errorf("min = %v", got)
	}
	if got := evalOK(t, F("max", lst), env); got.Int() != 3 {
		t.Errorf("max = %v", got)
	}
	if got := evalOK(t, F("avg", lst), env); got.Double() != 2 {
		t.Errorf("avg = %v", got)
	}
	sortedV := evalOK(t, F("sorted", lst), env)
	if sortedV.Elems()[0].Int() != 1 || sortedV.Elems()[2].Int() != 3 {
		t.Errorf("sorted = %v", sortedV)
	}
}

func TestEvalComprehension(t *testing.T) {
	// for %x in [1,2,3,4] where %x > 1 order by %x desc return %x * 10
	comp := Comprehension{
		Clauses: []CompClause{
			{Kind: "for", V: "x", E: F("list", CInt(1), CInt(2), CInt(3), CInt(4))},
			{Kind: "where", E: F("gt", NameRef{"x"}, CInt(1))},
			{Kind: "order", E: NameRef{"x"}, Desc: true},
		},
		Ret: F("mul", NameRef{"x"}, CInt(10)),
	}
	got := evalOK(t, comp, emptyEnv())
	want := []int64{40, 30, 20}
	for i, w := range want {
		if got.Elems()[i].Int() != w {
			t.Fatalf("comprehension = %v, want %v", got, want)
		}
	}
}

func TestEvalComprehensionPositional(t *testing.T) {
	comp := Comprehension{
		Clauses: []CompClause{
			{Kind: "for", V: "x", PosV: "i", E: F("list", CStr("a"), CStr("b"))},
		},
		Ret: NameRef{"i"},
	}
	got := evalOK(t, comp, emptyEnv())
	if got.Elems()[0].Int() != 1 || got.Elems()[1].Int() != 2 {
		t.Errorf("positional = %v", got)
	}
}

func TestEvalComprehensionLetAndNesting(t *testing.T) {
	inner := Comprehension{
		Clauses: []CompClause{{Kind: "for", V: "y", E: NameRef{"xs"}}},
		Ret:     F("add", NameRef{"y"}, CInt(1)),
	}
	outer := Comprehension{
		Clauses: []CompClause{
			{Kind: "let", V: "xs", E: F("list", CInt(1), CInt(2))},
			{Kind: "for", V: "z", E: inner},
		},
		Ret: NameRef{"z"},
	}
	got := evalOK(t, outer, emptyEnv())
	if len(got.Elems()) != 2 || got.Elems()[1].Int() != 3 {
		t.Errorf("nested comprehension = %v", got)
	}
}

func TestConjunctsAndAndAll(t *testing.T) {
	e := F("and", F("eq", CInt(1), CInt(1)), F("and", F("lt", CInt(1), CInt(2)), F("gt", CInt(3), CInt(2))))
	cs := Conjuncts(e)
	if len(cs) != 3 {
		t.Fatalf("Conjuncts = %d", len(cs))
	}
	back := AndAll(cs)
	if c, ok := back.(Call); !ok || c.Fn != "and" || len(c.Args) != 3 {
		t.Errorf("AndAll = %s", back)
	}
	if !adm.Equal(evalOK(t, AndAll(nil), emptyEnv()), adm.NewBool(true)) {
		t.Error("AndAll(nil) should be true")
	}
}

func TestSubstAndUsedVars(t *testing.T) {
	e := F("add", V(1), F("mul", V(2), V(1)))
	used := UsedVars(e, nil)
	if len(used) != 3 {
		t.Errorf("UsedVars = %v", used)
	}
	s := SubstVars(e, map[Var]Var{1: 10})
	used2 := UsedVars(s, nil)
	count10 := 0
	for _, v := range used2 {
		if v == 10 {
			count10++
		}
		if v == 1 {
			t.Error("var 1 should be fully substituted")
		}
	}
	if count10 != 2 {
		t.Errorf("substitution result %v", used2)
	}
}

func buildSmallPlan(alloc *VarAlloc) *Op {
	scan := NewOp(OpScan)
	scan.Dataverse, scan.Dataset = "dv", "ds"
	scan.PKVar, scan.RecVar = alloc.New(), alloc.New()
	sel := NewOp(OpSelect, scan)
	sel.Cond = F("gt", V(scan.PKVar), CInt(5))
	asg := NewOp(OpAssign, sel)
	v := alloc.New()
	asg.AssignVars = []Var{v}
	asg.AssignExprs = []Expr{F("field-access", V(scan.RecVar), CStr("name"))}
	w := NewOp(OpWrite, asg)
	w.Var = v
	return w
}

func TestPlanSchemaAndCount(t *testing.T) {
	var alloc VarAlloc
	plan := buildSmallPlan(&alloc)
	if got := CountOps(plan); got != 4 {
		t.Errorf("CountOps = %d, want 4", got)
	}
	if got := CountKind(plan, OpSelect); got != 1 {
		t.Errorf("CountKind(select) = %d", got)
	}
	asg := plan.Inputs[0]
	sch := asg.Schema()
	if len(sch) != 3 {
		t.Errorf("schema = %v", sch)
	}
}

func TestPlanCopyRemapsVars(t *testing.T) {
	var alloc VarAlloc
	plan := buildSmallPlan(&alloc)
	cp, m := Copy(plan, &alloc)
	if cp == plan {
		t.Fatal("copy should be a new tree")
	}
	if CountOps(cp) != CountOps(plan) {
		t.Error("copy changed op count")
	}
	// Every defined var must be remapped to a fresh var.
	for oldV, newV := range m {
		if oldV == newV {
			t.Errorf("var %v not remapped", oldV)
		}
	}
	// The copy's expressions must not reference any original var.
	orig := map[Var]bool{}
	Walk(plan, func(o *Op) {
		for _, v := range o.DefinedVars() {
			orig[v] = true
		}
	})
	Walk(cp, func(o *Op) {
		used := o.ListedVars()
		for _, e := range o.UsedExprs() {
			used = UsedVars(e, used)
		}
		for _, v := range used {
			if orig[v] {
				t.Errorf("copy references original var %v", v)
			}
		}
	})
}

func TestPlanCopyPreservesSharing(t *testing.T) {
	var alloc VarAlloc
	scan := NewOp(OpScan)
	scan.Dataverse, scan.Dataset = "dv", "ds"
	scan.PKVar, scan.RecVar = alloc.New(), alloc.New()
	join := NewOp(OpJoin, scan, scan) // shared input
	join.Cond = C(adm.NewBool(true))
	w := NewOp(OpWrite, join)
	w.Var = scan.RecVar
	cp, _ := Copy(w, &alloc)
	j := cp.Inputs[0]
	if j.Inputs[0] != j.Inputs[1] {
		t.Error("sharing lost in copy")
	}
	if CountOps(cp) != 3 {
		t.Errorf("CountOps of shared plan copy = %d, want 3", CountOps(cp))
	}
}

func TestPrintPlan(t *testing.T) {
	var alloc VarAlloc
	plan := buildSmallPlan(&alloc)
	s := Print(plan)
	for _, want := range []string{"distribute-result", "assign", "select", "data-scan dv.ds"} {
		if !strings.Contains(s, want) {
			t.Errorf("Print missing %q:\n%s", want, s)
		}
	}
}

// TestBindCopyReachesEveryTaggedConstant: BindCopy binds a tagged
// constant in every expression an operator holds and in its key range,
// keeps the plan's variables and shares nothing with the original, and
// TaggedSlots sees exactly the constants it binds.
func TestBindCopyReachesEveryTaggedConstant(t *testing.T) {
	slot := 0
	tagged := func() Expr {
		slot++
		return Const{Val: adm.NewInt(int64(slot)), Slot: slot}
	}
	comp := Comprehension{Clauses: []CompClause{{Kind: "for", V: "x", E: F("list", tagged())}}, Ret: tagged()}
	op := NewOp(OpSelect, NewOp(OpEmpty))
	op.Cond = F("and", tagged(), comp)
	op.Expr, op.KeyExpr, op.TExpr, op.PKExpr = tagged(), tagged(), tagged(), tagged()
	op.AssignVars, op.AssignExprs = []Var{1}, []Expr{tagged()}
	op.FusedAssignVars, op.FusedAssignExprs = []Var{2}, []Expr{tagged()}
	op.JoinLeftKeys, op.JoinRightKeys = []Expr{tagged()}, []Expr{tagged()}
	op.Keys = []KeyDef{{V: 3, E: tagged()}}
	op.Aggs = []AggDef{{V: 4, E: tagged()}}
	op.Orders = []OrderSpec{{E: tagged()}}
	lo, hi := tagged().(Const), tagged().(Const)
	op.Range = &KeyRange{Lo: &lo, Hi: &hi, LoIncl: true}
	untagged := C(adm.NewString("kept"))
	op.Cond = F("and", op.Cond, untagged)

	vals := make([]adm.Value, slot)
	for i := range vals {
		vals[i] = adm.NewInt(int64(100 + i + 1))
	}
	bound := BindCopy(op, vals)
	var seen SlotSet
	n := 0
	check := func(c Const) {
		switch {
		case c.Slot == 0 && c.Val.Str() != "kept":
			t.Errorf("untagged constant changed to %v", c.Val)
		case c.Slot != 0 && c.Val.Int() != int64(100+c.Slot):
			t.Errorf("slot %d bound to %v, want %d", c.Slot, c.Val, 100+c.Slot)
		case c.Slot != 0:
			seen.Add(c.Slot)
			n++
		}
	}
	for _, p := range bound.ExprSlots() {
		WalkConsts(*p, check)
	}
	check(*bound.Range.Lo)
	check(*bound.Range.Hi)
	if n != slot {
		t.Errorf("bound %d tagged constants, the plan has %d", n, slot)
	}
	if got := TaggedSlots(op); !got.Contains(seen) || !seen.Contains(got) {
		t.Errorf("TaggedSlots %v, bound slots %v", got, seen)
	}
	if op.Range.Lo.Val.Int() != 15 || bound.AssignVars[0] != 1 || &bound.AssignExprs[0] == &op.AssignExprs[0] {
		t.Error("BindCopy changed the original, renamed a variable or shared a slice")
	}
}
