package aqlp

import (
	"fmt"
	"strconv"

	"simdb/internal/adm"
	"simdb/internal/algebra"
)

// Catalog resolves dataset metadata during translation.
type Catalog interface {
	// ResolveDataset returns the primary-key field of a dataset.
	ResolveDataset(dataverse, name string) (pkField string, ok bool)
}

// FuncDef is a stored AQL UDF; bodies are inlined (beta-reduced) at
// call sites during translation, which is how AsterixDB's AQL functions
// behave for our purposes.
type FuncDef struct {
	Params []string
	Body   Node
}

// MetaBinding binds an AQL+ ##meta clause to a subplan. RecVar is the
// variable a "for $v in ##X" clause binds.
type MetaBinding struct {
	Plan   *algebra.Op
	RecVar algebra.Var
}

// Translator turns ASTs into algebra plans.
type Translator struct {
	Catalog          Catalog
	Alloc            *algebra.VarAlloc
	DefaultDataverse string
	SimFunction      string // "jaccard" (default) or "edit-distance"
	SimThreshold     string
	Funcs            map[string]FuncDef
	// ValueKeyed, when non-nil, has the translator tag each constant it
	// builds from a request literal with the literal's slot
	// (algebra.Const.Slot) and add to the set every slot whose value the
	// translation itself reads (a limit's count): a plan cached by shape
	// is keyed on those values.
	ValueKeyed *algebra.SlotSet
	// AQL+ environment, set by the optimizer during template expansion.
	Meta     map[string]MetaBinding
	MetaVars map[string]algebra.Var
}

// simSettings returns the effective similarity function and threshold
// for the ~= operator.
func (tr *Translator) simSettings() (string, string) {
	fn := tr.SimFunction
	if fn == "" {
		fn = "jaccard"
	}
	th := tr.SimThreshold
	if th == "" {
		if fn == "jaccard" {
			th = "0.5"
		} else {
			th = "1"
		}
	}
	return fn, th
}

// TranslateQuery translates a query body into a full plan rooted at a
// distribute-result (Write) operator and returns it.
func (tr *Translator) TranslateQuery(body Node) (*algebra.Op, error) {
	op, retVar, err := tr.translateBranch(body)
	if err != nil {
		return nil, err
	}
	w := algebra.NewOp(algebra.OpWrite, op)
	w.Var = retVar
	return w, nil
}

// TranslateFragment translates a FLWOR without a return clause and
// yields the final operator — the AQL+ path, run with Meta/MetaVars
// bound (paper Figure 16's "AQL+ Parser and Translator" box).
func (tr *Translator) TranslateFragment(fl FLWORNode) (*algebra.Op, error) {
	if fl.Ret != nil {
		return nil, fmt.Errorf("aql+: fragment must not have a return clause")
	}
	c := tr.newCtx()
	for _, cl := range fl.Clauses {
		if err := c.applyClause(cl); err != nil {
			return nil, err
		}
	}
	return c.cur, nil
}

// TranslateBranch translates a self-contained expression (FLWOR or
// scalar) into a plan producing one column; the AQL+ rules use it to
// build registered subplans such as the shared global token order.
func (tr *Translator) TranslateBranch(body Node) (*algebra.Op, algebra.Var, error) {
	return tr.translateBranch(body)
}

// translateBranch translates a self-contained expression (FLWOR or
// scalar) into a plan producing one column.
func (tr *Translator) translateBranch(body Node) (*algebra.Op, algebra.Var, error) {
	c := tr.newCtx()
	if fl, ok := body.(FLWORNode); ok {
		if fl.Ret == nil {
			return nil, 0, fmt.Errorf("aql: query body FLWOR needs a return clause")
		}
		for _, cl := range fl.Clauses {
			if err := c.applyClause(cl); err != nil {
				return nil, 0, err
			}
		}
		e, err := c.translateExpr(fl.Ret)
		if err != nil {
			return nil, 0, err
		}
		v := tr.Alloc.New()
		asg := algebra.NewOp(algebra.OpAssign, c.cur)
		asg.AssignVars = []algebra.Var{v}
		asg.AssignExprs = []algebra.Expr{e}
		return asg, v, nil
	}
	e, err := c.translateExpr(body)
	if err != nil {
		return nil, 0, err
	}
	v := tr.Alloc.New()
	asg := algebra.NewOp(algebra.OpAssign, c.cur)
	asg.AssignVars = []algebra.Var{v}
	asg.AssignExprs = []algebra.Expr{e}
	return asg, v, nil
}

// tctx is the translation state for one FLWOR pipeline.
type tctx struct {
	tr    *Translator
	cur   *algebra.Op
	scope map[string]algebra.Var
	// compNames are names bound by an enclosing comprehension; they
	// shadow plan variables.
	compNames map[string]bool
	depth     int // UDF inlining depth guard
}

func (tr *Translator) newCtx() *tctx {
	return &tctx{tr: tr, cur: algebra.NewOp(algebra.OpEmpty), scope: map[string]algebra.Var{}}
}

func (c *tctx) bind(name string, v algebra.Var) { c.scope[name] = v }

// joinIn crosses a branch into the current pipeline.
func (c *tctx) joinIn(branch *algebra.Op) {
	if c.cur.Kind == algebra.OpEmpty {
		c.cur = branch
		return
	}
	j := algebra.NewOp(algebra.OpJoin, c.cur, branch)
	j.Cond = algebra.C(adm.NewBool(true))
	c.cur = j
}

func (c *tctx) applyClause(cl Clause) error {
	switch x := cl.(type) {
	case ForClause:
		return c.applyFor(x)
	case JoinClause:
		return c.applyJoin(x)
	case LetClause:
		e, err := c.translateExpr(x.E)
		if err != nil {
			return err
		}
		v := c.tr.Alloc.New()
		asg := algebra.NewOp(algebra.OpAssign, c.cur)
		asg.AssignVars = []algebra.Var{v}
		asg.AssignExprs = []algebra.Expr{e}
		c.cur = asg
		c.bind(x.V, v)
		return nil
	case WhereClause:
		e, err := c.translateExpr(x.E)
		if err != nil {
			return err
		}
		sel := algebra.NewOp(algebra.OpSelect, c.cur)
		sel.Cond = e
		c.cur = sel
		return nil
	case GroupClause:
		return c.applyGroup(x)
	case OrderClause:
		ord := algebra.NewOp(algebra.OpOrder, c.cur)
		for _, item := range x.Items {
			e, err := c.translateExpr(item.E)
			if err != nil {
				return err
			}
			ord.Orders = append(ord.Orders, algebra.OrderSpec{E: e, Desc: item.Desc})
		}
		c.cur = ord
		return nil
	case LimitClause:
		lit, ok := x.E.(LitNode)
		if !ok || lit.Val.Kind() != adm.KindInt {
			return fmt.Errorf("aql: limit must be an integer literal")
		}
		lim := algebra.NewOp(algebra.OpLimit, c.cur)
		lim.Count = lit.Val.Int()
		if c.tr.ValueKeyed != nil && lit.Slot != 0 {
			c.tr.ValueKeyed.Add(lit.Slot)
		}
		c.cur = lim
		return nil
	}
	return fmt.Errorf("aql: unsupported clause %T", cl)
}

func (c *tctx) applyFor(fc ForClause) error {
	switch in := fc.In.(type) {
	case DatasetNode:
		scan, err := c.tr.scanOf(in.Name)
		if err != nil {
			return err
		}
		if fc.Pos != "" {
			return fmt.Errorf("aql: positional variable over a dataset is unsupported")
		}
		c.joinIn(scan)
		c.bind(fc.V, scan.RecVar)
		return nil
	case MetaClauseNode:
		b, ok := c.tr.Meta[in.Name]
		if !ok {
			return fmt.Errorf("aql+: unknown meta clause ##%s", in.Name)
		}
		if fc.Pos != "" {
			return fmt.Errorf("aql+: positional variable over a meta clause is unsupported")
		}
		c.joinIn(b.Plan)
		c.bind(fc.V, b.RecVar)
		return nil
	case UnionNode:
		op, outVar, err := c.tr.translateUnion(in)
		if err != nil {
			return err
		}
		if fc.Pos != "" {
			return fmt.Errorf("aql+: positional variable over a union is unsupported")
		}
		c.joinIn(op)
		c.bind(fc.V, outVar)
		return nil
	case FLWORNode:
		if c.tr.isBranchable(in, c.scope) {
			bop, bret, err := c.tr.translateBranchFLWOR(in)
			if err != nil {
				return err
			}
			if fc.Pos != "" {
				rank := algebra.NewOp(algebra.OpRank, bop)
				rank.PosVar = c.tr.Alloc.New()
				bop = rank
				c.bind(fc.Pos, rank.PosVar)
			}
			c.joinIn(bop)
			c.bind(fc.V, bret)
			return nil
		}
	}
	// In-memory collection: unnest the expression's value.
	e, err := c.translateExpr(fc.In)
	if err != nil {
		return err
	}
	un := algebra.NewOp(algebra.OpUnnest, c.cur)
	un.UnnestVar = c.tr.Alloc.New()
	un.Expr = e
	if fc.Pos != "" {
		un.PosVar = c.tr.Alloc.New()
		c.bind(fc.Pos, un.PosVar)
	}
	c.cur = un
	c.bind(fc.V, un.UnnestVar)
	return nil
}

func (c *tctx) applyJoin(jc JoinClause) error {
	var branch *algebra.Op
	var recVar algebra.Var
	switch in := jc.In.(type) {
	case DatasetNode:
		scan, err := c.tr.scanOf(in.Name)
		if err != nil {
			return err
		}
		branch, recVar = scan, scan.RecVar
	case MetaClauseNode:
		b, ok := c.tr.Meta[in.Name]
		if !ok {
			return fmt.Errorf("aql+: unknown meta clause ##%s", in.Name)
		}
		branch, recVar = b.Plan, b.RecVar
	case FLWORNode:
		if !c.tr.isBranchable(in, c.scope) {
			return fmt.Errorf("aql+: join input must be an independent branch")
		}
		bop, bret, err := c.tr.translateBranchFLWOR(in)
		if err != nil {
			return err
		}
		branch, recVar = bop, bret
	default:
		return fmt.Errorf("aql+: join input must be a dataset, meta clause, or FLWOR")
	}
	c.bind(jc.V, recVar)
	cond, err := c.translateExpr(jc.On)
	if err != nil {
		return err
	}
	j := algebra.NewOp(algebra.OpJoin, c.cur, branch)
	j.Cond = cond
	c.cur = j
	return nil
}

func (c *tctx) applyGroup(gc GroupClause) error {
	g := algebra.NewOp(algebra.OpGroupBy, c.cur)
	g.HashHint = gc.Hint == "hash"
	newScope := map[string]algebra.Var{}
	for _, k := range gc.Keys {
		e, err := c.translateExpr(k.E)
		if err != nil {
			return err
		}
		v := c.tr.Alloc.New()
		g.Keys = append(g.Keys, algebra.KeyDef{V: v, E: e})
		newScope[k.V] = v
	}
	for _, w := range gc.With {
		src, ok := c.scope[w]
		if !ok {
			return fmt.Errorf("aql: group-by with unbound variable $%s", w)
		}
		v := c.tr.Alloc.New()
		g.Aggs = append(g.Aggs, algebra.AggDef{V: v, Kind: algebra.AggListify, E: algebra.V(src)})
		newScope[w] = v
	}
	c.cur = g
	c.scope = newScope
	return nil
}

// scanOf builds a dataset scan.
func (tr *Translator) scanOf(name string) (*algebra.Op, error) {
	dv := tr.DefaultDataverse
	if tr.Catalog == nil {
		return nil, fmt.Errorf("aql: no catalog to resolve dataset %q", name)
	}
	if _, ok := tr.Catalog.ResolveDataset(dv, name); !ok {
		return nil, fmt.Errorf("aql: unknown dataset %q in dataverse %q", name, dv)
	}
	scan := algebra.NewOp(algebra.OpScan)
	scan.Dataverse = dv
	scan.Dataset = name
	scan.PKVar = tr.Alloc.New()
	scan.RecVar = tr.Alloc.New()
	return scan, nil
}

// translateBranchFLWOR translates a closed FLWOR into its own pipeline.
func (tr *Translator) translateBranchFLWOR(fl FLWORNode) (*algebra.Op, algebra.Var, error) {
	return tr.translateBranch(fl)
}

func (tr *Translator) translateUnion(un UnionNode) (*algebra.Op, algebra.Var, error) {
	u := algebra.NewOp(algebra.OpUnion)
	out := tr.Alloc.New()
	u.OutVars = []algebra.Var{out}
	for _, b := range un.Branches {
		fl, ok := b.(FLWORNode)
		if !ok {
			return nil, 0, fmt.Errorf("aql+: union branches must be FLWOR expressions")
		}
		bop, bret, err := tr.translateBranchFLWOR(fl)
		if err != nil {
			return nil, 0, err
		}
		u.Inputs = append(u.Inputs, bop)
		u.InVars = append(u.InVars, []algebra.Var{bret})
	}
	return u, out, nil
}

// isBranchable reports whether a FLWOR can be translated as an
// independent plan branch: it reads a dataset (directly or via meta
// clauses) and references no variable bound in the surrounding scope.
func (tr *Translator) isBranchable(fl FLWORNode, scope map[string]algebra.Var) bool {
	if !hasDataset(fl) {
		return false
	}
	for name := range freeVars(fl) {
		if _, bound := scope[name]; bound {
			return false
		}
	}
	return true
}

// aggregateFns maps aggregate call names to algebra kinds for the
// count(FLWOR)-style direct aggregation path.
var aggregateFns = map[string]algebra.AggKind{
	"count": algebra.AggCount,
	"sum":   algebra.AggSum,
	"min":   algebra.AggMin,
	"max":   algebra.AggMax,
	"avg":   algebra.AggAvg,
}

// translateExpr translates an expression, lifting closed dataset
// subqueries into plan branches as needed.
func (c *tctx) translateExpr(n Node) (algebra.Expr, error) {
	switch x := n.(type) {
	case LitNode:
		if c.tr.ValueKeyed == nil {
			return algebra.C(x.Val), nil
		}
		return algebra.Const{Val: x.Val, Slot: x.Slot}, nil
	case VarNode:
		if c.compNames != nil && c.compNames[x.Name] {
			return algebra.NameRef{Name: x.Name}, nil
		}
		if v, ok := c.scope[x.Name]; ok {
			return algebra.V(v), nil
		}
		return nil, fmt.Errorf("aql: unbound variable $%s", x.Name)
	case MetaVarNode:
		if v, ok := c.tr.MetaVars[x.Name]; ok {
			return algebra.V(v), nil
		}
		return nil, fmt.Errorf("aql+: unknown meta variable $$%s", x.Name)
	case FieldNode:
		base, err := c.translateExpr(x.Base)
		if err != nil {
			return nil, err
		}
		return algebra.F("field-access", base, algebra.CStr(x.Field)), nil
	case IndexNode:
		base, err := c.translateExpr(x.Base)
		if err != nil {
			return nil, err
		}
		idx, err := c.translateExpr(x.Idx)
		if err != nil {
			return nil, err
		}
		return algebra.F("index-access", base, idx), nil
	case HintNode:
		inner, err := c.translateExpr(x.X)
		if err != nil {
			return nil, err
		}
		return algebra.F("hinted", algebra.CStr(x.Hint), inner), nil
	case UnaryNode:
		inner, err := c.translateExpr(x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			return algebra.F("neg", inner), nil
		case "not":
			return algebra.F("not", inner), nil
		}
		return nil, fmt.Errorf("aql: unknown unary operator %q", x.Op)
	case BinNode:
		return c.translateBin(x)
	case RecordNode:
		args := make([]algebra.Expr, 0, len(x.Keys)*2)
		for i := range x.Keys {
			v, err := c.translateExpr(x.Vals[i])
			if err != nil {
				return nil, err
			}
			args = append(args, algebra.CStr(x.Keys[i]), v)
		}
		return algebra.Call{Fn: "record", Args: args}, nil
	case ListNode:
		args := make([]algebra.Expr, len(x.Elems))
		for i, e := range x.Elems {
			v, err := c.translateExpr(e)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return algebra.Call{Fn: "list", Args: args}, nil
	case CallNode:
		return c.translateCall(x)
	case FLWORNode:
		if c.tr.isBranchable(x, c.scope) && c.compNames == nil {
			return c.liftBranch(x, algebra.AggListify)
		}
		return c.translateComprehension(x)
	case DatasetNode:
		return nil, fmt.Errorf("aql: dataset reference outside a for clause")
	case MetaClauseNode:
		return nil, fmt.Errorf("aql+: meta clause outside a for clause")
	case UnionNode:
		return nil, fmt.Errorf("aql+: union outside a for clause")
	}
	return nil, fmt.Errorf("aql: unsupported expression %T", n)
}

// liftBranch lifts a closed dataset FLWOR into a plan branch aggregated
// to a single value, cross-joined into the pipeline; the expression
// becomes a variable reference (Algebricks' subplan-to-join rewrite).
func (c *tctx) liftBranch(fl FLWORNode, kind algebra.AggKind) (algebra.Expr, error) {
	bop, bret, err := c.tr.translateBranchFLWOR(fl)
	if err != nil {
		return nil, err
	}
	agg := algebra.NewOp(algebra.OpAggregate, bop)
	out := c.tr.Alloc.New()
	agg.Aggs = []algebra.AggDef{{V: out, Kind: kind, E: algebra.V(bret)}}
	c.joinIn(agg)
	return algebra.V(out), nil
}

func (c *tctx) translateBin(x BinNode) (algebra.Expr, error) {
	if x.Op == "~=" {
		return c.translateSimOp(x)
	}
	l, err := c.translateExpr(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.translateExpr(x.R)
	if err != nil {
		return nil, err
	}
	fn, ok := map[string]string{
		"=": "eq", "!=": "neq", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
		"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
		"and": "and", "or": "or",
	}[x.Op]
	if !ok {
		return nil, fmt.Errorf("aql: unknown operator %q", x.Op)
	}
	return algebra.F(fn, l, r), nil
}

// translateSimOp expands the ~= similarity operator using the session's
// simfunction and simthreshold settings (paper Figure 4(a)).
func (c *tctx) translateSimOp(x BinNode) (algebra.Expr, error) {
	l, err := c.translateExpr(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.translateExpr(x.R)
	if err != nil {
		return nil, err
	}
	fn, th := c.tr.simSettings()
	switch fn {
	case "jaccard":
		d, err := strconv.ParseFloat(th, 64)
		if err != nil {
			return nil, fmt.Errorf("aql: bad simthreshold %q for jaccard", th)
		}
		return algebra.F("ge", algebra.F("similarity-jaccard", l, r), algebra.C(adm.NewDouble(d))), nil
	case "edit-distance":
		k, err := strconv.ParseInt(th, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("aql: bad simthreshold %q for edit-distance", th)
		}
		return algebra.F("le", algebra.F("edit-distance", l, r), algebra.C(adm.NewInt(k))), nil
	}
	return nil, fmt.Errorf("aql: unsupported simfunction %q", fn)
}

func (c *tctx) translateCall(x CallNode) (algebra.Expr, error) {
	// UDF inlining by AST substitution.
	if def, ok := c.tr.Funcs[x.Name]; ok {
		if c.depth > 32 {
			return nil, fmt.Errorf("aql: UDF %q expansion too deep (recursive?)", x.Name)
		}
		if len(x.Args) != len(def.Params) {
			return nil, fmt.Errorf("aql: %s expects %d arguments, got %d", x.Name, len(def.Params), len(x.Args))
		}
		subst := map[string]Node{}
		for i, p := range def.Params {
			subst[p] = x.Args[i]
		}
		inlined := substituteVars(def.Body, subst)
		c.depth++
		defer func() { c.depth-- }()
		return c.translateExpr(inlined)
	}
	// Aggregate over a closed dataset FLWOR compiles to a plan-level
	// Aggregate instead of listifying the whole result.
	if kind, isAgg := aggregateFns[x.Name]; isAgg && len(x.Args) == 1 && c.compNames == nil {
		if fl, ok := x.Args[0].(FLWORNode); ok && c.tr.isBranchable(fl, c.scope) {
			return c.liftBranch(fl, kind)
		}
	}
	if _, ok := algebra.LookupBuiltin(x.Name); !ok {
		return nil, fmt.Errorf("aql: unknown function %q", x.Name)
	}
	args := make([]algebra.Expr, len(x.Args))
	for i, a := range x.Args {
		v, err := c.translateExpr(a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return algebra.Call{Fn: x.Name, Args: args}, nil
}

// translateComprehension compiles a FLWOR over in-memory collections
// into an algebra Comprehension expression evaluated per tuple.
func (c *tctx) translateComprehension(fl FLWORNode) (algebra.Expr, error) {
	if fl.Ret == nil {
		return nil, fmt.Errorf("aql: nested FLWOR needs a return clause")
	}
	if hasDataset(fl) {
		return nil, fmt.Errorf("aql: correlated subquery over a dataset is unsupported; restructure with joins")
	}
	sub := &tctx{tr: c.tr, cur: c.cur, scope: c.scope, depth: c.depth}
	sub.compNames = map[string]bool{}
	if c.compNames != nil {
		for k := range c.compNames {
			sub.compNames[k] = true
		}
	}
	var comp algebra.Comprehension
	for _, cl := range fl.Clauses {
		switch x := cl.(type) {
		case ForClause:
			e, err := sub.translateExpr(x.In)
			if err != nil {
				return nil, err
			}
			comp.Clauses = append(comp.Clauses, algebra.CompClause{Kind: "for", V: x.V, PosV: x.Pos, E: e})
			sub.compNames[x.V] = true
			if x.Pos != "" {
				sub.compNames[x.Pos] = true
			}
		case LetClause:
			e, err := sub.translateExpr(x.E)
			if err != nil {
				return nil, err
			}
			comp.Clauses = append(comp.Clauses, algebra.CompClause{Kind: "let", V: x.V, E: e})
			sub.compNames[x.V] = true
		case WhereClause:
			e, err := sub.translateExpr(x.E)
			if err != nil {
				return nil, err
			}
			comp.Clauses = append(comp.Clauses, algebra.CompClause{Kind: "where", E: e})
		case OrderClause:
			for _, item := range x.Items {
				e, err := sub.translateExpr(item.E)
				if err != nil {
					return nil, err
				}
				comp.Clauses = append(comp.Clauses, algebra.CompClause{Kind: "order", E: e, Desc: item.Desc})
			}
		default:
			return nil, fmt.Errorf("aql: clause %T unsupported inside a nested collection query", cl)
		}
	}
	ret, err := sub.translateExpr(fl.Ret)
	if err != nil {
		return nil, err
	}
	comp.Ret = ret
	return comp, nil
}

// hasDataset reports whether the AST reads a dataset, meta clause, or
// union (all plan-level sources).
func hasDataset(n Node) bool {
	found := false
	walkAST(n, func(m Node) {
		switch m.(type) {
		case DatasetNode, MetaClauseNode, UnionNode:
			found = true
		}
	})
	return found
}

// freeVars returns the $names referenced but not bound within n.
func freeVars(n Node) map[string]bool {
	free := map[string]bool{}
	var rec func(m Node, bound map[string]bool)
	recClauses := func(fl FLWORNode, bound map[string]bool) {
		inner := map[string]bool{}
		for k := range bound {
			inner[k] = true
		}
		for _, cl := range fl.Clauses {
			switch x := cl.(type) {
			case ForClause:
				rec(x.In, inner)
				inner[x.V] = true
				if x.Pos != "" {
					inner[x.Pos] = true
				}
			case JoinClause:
				rec(x.In, inner)
				inner[x.V] = true
				rec(x.On, inner)
			case LetClause:
				rec(x.E, inner)
				inner[x.V] = true
			case WhereClause:
				rec(x.E, inner)
			case GroupClause:
				for _, k := range x.Keys {
					rec(k.E, inner)
				}
				next := map[string]bool{}
				for k := range bound {
					next[k] = true
				}
				for _, k := range x.Keys {
					next[k.V] = true
				}
				for _, w := range x.With {
					if !inner[w] {
						free[w] = true
					}
					next[w] = true
				}
				inner = next
			case OrderClause:
				for _, item := range x.Items {
					rec(item.E, inner)
				}
			case LimitClause:
				rec(x.E, inner)
			}
		}
		if fl.Ret != nil {
			rec(fl.Ret, inner)
		}
	}
	rec = func(m Node, bound map[string]bool) {
		switch x := m.(type) {
		case VarNode:
			if !bound[x.Name] {
				free[x.Name] = true
			}
		case FieldNode:
			rec(x.Base, bound)
		case IndexNode:
			rec(x.Base, bound)
			rec(x.Idx, bound)
		case CallNode:
			for _, a := range x.Args {
				rec(a, bound)
			}
		case BinNode:
			rec(x.L, bound)
			rec(x.R, bound)
		case UnaryNode:
			rec(x.X, bound)
		case HintNode:
			rec(x.X, bound)
		case RecordNode:
			for _, v := range x.Vals {
				rec(v, bound)
			}
		case ListNode:
			for _, e := range x.Elems {
				rec(e, bound)
			}
		case UnionNode:
			for _, b := range x.Branches {
				rec(b, bound)
			}
		case FLWORNode:
			recClauses(x, bound)
		}
	}
	rec(n, map[string]bool{})
	return free
}

// walkAST visits every node.
func walkAST(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	switch x := n.(type) {
	case FieldNode:
		walkAST(x.Base, fn)
	case IndexNode:
		walkAST(x.Base, fn)
		walkAST(x.Idx, fn)
	case CallNode:
		for _, a := range x.Args {
			walkAST(a, fn)
		}
	case BinNode:
		walkAST(x.L, fn)
		walkAST(x.R, fn)
	case UnaryNode:
		walkAST(x.X, fn)
	case HintNode:
		walkAST(x.X, fn)
	case RecordNode:
		for _, v := range x.Vals {
			walkAST(v, fn)
		}
	case ListNode:
		for _, e := range x.Elems {
			walkAST(e, fn)
		}
	case UnionNode:
		for _, b := range x.Branches {
			walkAST(b, fn)
		}
	case FLWORNode:
		for _, cl := range x.Clauses {
			switch y := cl.(type) {
			case ForClause:
				walkAST(y.In, fn)
			case JoinClause:
				walkAST(y.In, fn)
				walkAST(y.On, fn)
			case LetClause:
				walkAST(y.E, fn)
			case WhereClause:
				walkAST(y.E, fn)
			case GroupClause:
				for _, k := range y.Keys {
					walkAST(k.E, fn)
				}
			case OrderClause:
				for _, item := range y.Items {
					walkAST(item.E, fn)
				}
			case LimitClause:
				walkAST(y.E, fn)
			}
		}
		if x.Ret != nil {
			walkAST(x.Ret, fn)
		}
	}
}

// substituteVars beta-reduces $name references through the mapping.
// Bindings inside nested FLWORs shadow substitutions.
func substituteVars(n Node, subst map[string]Node) Node {
	if len(subst) == 0 {
		return n
	}
	switch x := n.(type) {
	case VarNode:
		if r, ok := subst[x.Name]; ok {
			return r
		}
		return x
	case FieldNode:
		return FieldNode{Base: substituteVars(x.Base, subst), Field: x.Field}
	case IndexNode:
		return IndexNode{Base: substituteVars(x.Base, subst), Idx: substituteVars(x.Idx, subst)}
	case CallNode:
		args := make([]Node, len(x.Args))
		for i, a := range x.Args {
			args[i] = substituteVars(a, subst)
		}
		return CallNode{Name: x.Name, Args: args}
	case BinNode:
		return BinNode{Op: x.Op, L: substituteVars(x.L, subst), R: substituteVars(x.R, subst)}
	case UnaryNode:
		return UnaryNode{Op: x.Op, X: substituteVars(x.X, subst)}
	case HintNode:
		return HintNode{Hint: x.Hint, X: substituteVars(x.X, subst)}
	case RecordNode:
		vals := make([]Node, len(x.Vals))
		for i, v := range x.Vals {
			vals[i] = substituteVars(v, subst)
		}
		return RecordNode{Keys: x.Keys, Vals: vals}
	case ListNode:
		elems := make([]Node, len(x.Elems))
		for i, e := range x.Elems {
			elems[i] = substituteVars(e, subst)
		}
		return ListNode{Elems: elems}
	case UnionNode:
		branches := make([]Node, len(x.Branches))
		for i, b := range x.Branches {
			branches[i] = substituteVars(b, subst)
		}
		return UnionNode{Branches: branches}
	case FLWORNode:
		// Narrow the substitution as clause bindings shadow names.
		cur := map[string]Node{}
		for k, v := range subst {
			cur[k] = v
		}
		out := FLWORNode{}
		for _, cl := range x.Clauses {
			switch y := cl.(type) {
			case ForClause:
				nc := ForClause{V: y.V, Pos: y.Pos, In: substituteVars(y.In, cur)}
				delete(cur, y.V)
				if y.Pos != "" {
					delete(cur, y.Pos)
				}
				out.Clauses = append(out.Clauses, nc)
			case JoinClause:
				nc := JoinClause{V: y.V, In: substituteVars(y.In, cur)}
				delete(cur, y.V)
				nc.On = substituteVars(y.On, cur)
				out.Clauses = append(out.Clauses, nc)
			case LetClause:
				nc := LetClause{V: y.V, E: substituteVars(y.E, cur)}
				delete(cur, y.V)
				out.Clauses = append(out.Clauses, nc)
			case WhereClause:
				out.Clauses = append(out.Clauses, WhereClause{E: substituteVars(y.E, cur)})
			case GroupClause:
				ng := GroupClause{Hint: y.Hint, With: y.With}
				for _, k := range y.Keys {
					ng.Keys = append(ng.Keys, GroupKey{V: k.V, E: substituteVars(k.E, cur)})
					delete(cur, k.V)
				}
				out.Clauses = append(out.Clauses, ng)
			case OrderClause:
				no := OrderClause{}
				for _, item := range y.Items {
					no.Items = append(no.Items, OrderItem{E: substituteVars(item.E, cur), Desc: item.Desc})
				}
				out.Clauses = append(out.Clauses, no)
			case LimitClause:
				out.Clauses = append(out.Clauses, LimitClause{E: substituteVars(y.E, cur)})
			}
		}
		if x.Ret != nil {
			out.Ret = substituteVars(x.Ret, cur)
		}
		return out
	}
	return n
}
