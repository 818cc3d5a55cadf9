package optimizer

import (
	"simdb/internal/adm"
	"simdb/internal/algebra"
)

// mergeSelects collapses Select(Select(x)) into one conjunction.
func mergeSelects(o *Optimizer, root *algebra.Op) (*algebra.Op, bool, error) {
	return rewriteEverywhere(root, func(op *algebra.Op) (*algebra.Op, bool, error) {
		if op.Kind != algebra.OpSelect || op.Inputs[0].Kind != algebra.OpSelect {
			return op, false, nil
		}
		child := op.Inputs[0]
		merged := algebra.NewOp(algebra.OpSelect, child.Inputs[0])
		merged.Cond = algebra.AndAll(append(algebra.Conjuncts(child.Cond), algebra.Conjuncts(op.Cond)...))
		return merged, true, nil
	})
}

// isTrueConst reports whether e is the literal true.
func (o *Optimizer) isTrueConst(e algebra.Expr) bool {
	c, ok := e.(algebra.Const)
	return ok && c.Val.Kind() == adm.KindBool && o.Value(c).Bool()
}

// extractJoinConditions turns Select over a cross join into a real join
// by moving conjuncts that reference both sides into the join
// condition, and single-side conjuncts below the join.
func extractJoinConditions(o *Optimizer, root *algebra.Op) (*algebra.Op, bool, error) {
	return rewriteEverywhere(root, func(op *algebra.Op) (*algebra.Op, bool, error) {
		if op.Kind != algebra.OpSelect {
			return op, false, nil
		}
		join := op.Inputs[0]
		if join.Kind != algebra.OpJoin || !o.isTrueConst(join.Cond) {
			return op, false, nil
		}
		leftSet := schemaSet(join.Inputs[0])
		rightSet := schemaSet(join.Inputs[1])
		var joinConds, leftConds, rightConds, rest []algebra.Expr
		for _, c := range algebra.Conjuncts(op.Cond) {
			usesL, usesR := usesAny(c, leftSet), usesAny(c, rightSet)
			switch {
			case usesL && usesR:
				joinConds = append(joinConds, c)
			case usesL:
				leftConds = append(leftConds, c)
			case usesR:
				rightConds = append(rightConds, c)
			default:
				rest = append(rest, c)
			}
		}
		if len(joinConds) == 0 && len(leftConds) == 0 && len(rightConds) == 0 {
			return op, false, nil
		}
		l, r := join.Inputs[0], join.Inputs[1]
		if len(leftConds) > 0 {
			s := algebra.NewOp(algebra.OpSelect, l)
			s.Cond = algebra.AndAll(leftConds)
			l = s
		}
		if len(rightConds) > 0 {
			s := algebra.NewOp(algebra.OpSelect, r)
			s.Cond = algebra.AndAll(rightConds)
			r = s
		}
		nj := algebra.NewOp(algebra.OpJoin, l, r)
		if len(joinConds) > 0 {
			nj.Cond = algebra.AndAll(joinConds)
		} else {
			nj.Cond = algebra.C(adm.NewBool(true))
		}
		var out *algebra.Op = nj
		if len(rest) > 0 {
			s := algebra.NewOp(algebra.OpSelect, nj)
			s.Cond = algebra.AndAll(rest)
			out = s
		}
		return out, true, nil
	})
}

// pushSelectsBelowJoin pushes single-side conjuncts of a Select above a
// *conditioned* join down into the corresponding branch (the cross-join
// case is handled by extractJoinConditions).
func pushSelectsBelowJoin(o *Optimizer, root *algebra.Op) (*algebra.Op, bool, error) {
	return rewriteEverywhere(root, func(op *algebra.Op) (*algebra.Op, bool, error) {
		if op.Kind != algebra.OpSelect || op.Inputs[0].Kind != algebra.OpJoin {
			return op, false, nil
		}
		join := op.Inputs[0]
		leftSet := schemaSet(join.Inputs[0])
		rightSet := schemaSet(join.Inputs[1])
		var keep, leftConds, rightConds []algebra.Expr
		for _, c := range algebra.Conjuncts(op.Cond) {
			usesL, usesR := usesAny(c, leftSet), usesAny(c, rightSet)
			switch {
			case usesL && !usesR:
				leftConds = append(leftConds, c)
			case usesR && !usesL:
				rightConds = append(rightConds, c)
			default:
				keep = append(keep, c)
			}
		}
		if len(leftConds) == 0 && len(rightConds) == 0 {
			return op, false, nil
		}
		if len(leftConds) > 0 {
			s := algebra.NewOp(algebra.OpSelect, join.Inputs[0])
			s.Cond = algebra.AndAll(leftConds)
			join.Inputs[0] = s
		}
		if len(rightConds) > 0 {
			s := algebra.NewOp(algebra.OpSelect, join.Inputs[1])
			s.Cond = algebra.AndAll(rightConds)
			join.Inputs[1] = s
		}
		if len(keep) == 0 {
			return join, true, nil
		}
		ns := algebra.NewOp(algebra.OpSelect, join)
		ns.Cond = algebra.AndAll(keep)
		return ns, true, nil
	})
}

// listifyToScalarAgg rewrites count($v)/sum($v)/... over a group-by
// listify variable into a dedicated scalar aggregate output, dropping
// the listify when it becomes unused — the aggregation pushdown the
// paper's stage-1 token counting depends on to avoid materializing
// per-token id lists.
func listifyToScalarAgg(o *Optimizer, root *algebra.Op) (*algebra.Op, bool, error) {
	aggOf := map[string]algebra.AggKind{
		"count": algebra.AggCount, "sum": algebra.AggSum,
		"min": algebra.AggMin, "max": algebra.AggMax, "avg": algebra.AggAvg,
	}
	// listifySource: listify output var -> its defining op (GroupBy or
	// Aggregate) and the agg index.
	type src struct {
		op  *algebra.Op
		idx int
	}
	listifies := map[algebra.Var]src{}
	algebra.Walk(root, func(op *algebra.Op) {
		if op.Kind != algebra.OpGroupBy && op.Kind != algebra.OpAggregate {
			return
		}
		for i, a := range op.Aggs {
			if a.Kind == algebra.AggListify {
				listifies[a.V] = src{op, i}
			}
		}
	})
	if len(listifies) == 0 {
		return root, false, nil
	}
	// Classify uses: aggregate-call uses (count($v)) vs any other use.
	// Top-down so the VarRef inside count($v) is not double-counted.
	otherUse := map[algebra.Var]bool{}
	aggUses := map[algebra.Var]map[algebra.AggKind]bool{}
	var scanExpr func(e algebra.Expr)
	scanExpr = func(e algebra.Expr) {
		switch x := e.(type) {
		case algebra.VarRef:
			if _, isL := listifies[x.V]; isL {
				otherUse[x.V] = true
			}
		case algebra.Call:
			if kind, isAgg := aggOf[x.Fn]; isAgg && len(x.Args) == 1 {
				if vr, ok := x.Args[0].(algebra.VarRef); ok {
					if _, isL := listifies[vr.V]; isL {
						if aggUses[vr.V] == nil {
							aggUses[vr.V] = map[algebra.AggKind]bool{}
						}
						aggUses[vr.V][kind] = true
						return
					}
				}
			}
			for _, a := range x.Args {
				scanExpr(a)
			}
		case algebra.Comprehension:
			for _, c := range x.Clauses {
				if c.E != nil {
					scanExpr(c.E)
				}
			}
			scanExpr(x.Ret)
		}
	}
	algebra.Walk(root, func(op *algebra.Op) {
		for _, e := range op.UsedExprs() {
			scanExpr(e)
		}
		if op.Kind == algebra.OpWrite {
			otherUse[op.Var] = true
		}
		if op.Kind == algebra.OpProject {
			for _, v := range op.Vars {
				otherUse[v] = true
			}
		}
		if op.Kind == algebra.OpUnion {
			for _, vs := range op.InVars {
				for _, v := range vs {
					otherUse[v] = true
				}
			}
		}
	})
	// For each listify var used in aggregate calls, add scalar agg
	// outputs and rewrite the calls.
	replMap := map[algebra.Var]map[algebra.AggKind]algebra.Var{}
	changed := false
	for v, kinds := range aggUses {
		s := listifies[v]
		replMap[v] = map[algebra.AggKind]algebra.Var{}
		for kind := range kinds {
			nv := o.Alloc.New()
			s.op.Aggs = append(s.op.Aggs, algebra.AggDef{V: nv, Kind: kind, E: s.op.Aggs[s.idx].E})
			replMap[v][kind] = nv
			changed = true
		}
	}
	if !changed {
		return root, false, nil
	}
	rewrite := func(e algebra.Expr) algebra.Expr {
		return algebra.ReplaceExpr(e, func(x algebra.Expr) algebra.Expr {
			c, ok := x.(algebra.Call)
			if !ok {
				return x
			}
			kind, isAgg := aggOf[c.Fn]
			if !isAgg || len(c.Args) != 1 {
				return x
			}
			vr, ok := c.Args[0].(algebra.VarRef)
			if !ok {
				return x
			}
			if m, isL := replMap[vr.V]; isL {
				if nv, ok := m[kind]; ok {
					return algebra.VarRef{V: nv}
				}
			}
			return x
		})
	}
	algebra.Walk(root, func(op *algebra.Op) { op.MapExprs(rewrite) })
	// Drop listifies that no longer have any use.
	algebra.Walk(root, func(op *algebra.Op) {
		if op.Kind != algebra.OpGroupBy && op.Kind != algebra.OpAggregate {
			return
		}
		kept := op.Aggs[:0]
		for _, a := range op.Aggs {
			if a.Kind == algebra.AggListify {
				if _, hadAggUse := aggUses[a.V]; hadAggUse && !otherUse[a.V] {
					continue
				}
			}
			kept = append(kept, a)
		}
		op.Aggs = kept
	})
	return root, true, nil
}

// chooseJoinAlgorithm picks hash vs nested-loop joins and the build
// side, honoring the /*+ bcast */ hint on one side of an equality. A
// hash join's key equalities leave its condition: the table compares
// keys exactly as eq() does, so Cond keeps only the residual the
// operator above the join has to evaluate.
func chooseJoinAlgorithm(o *Optimizer, root *algebra.Op) (*algebra.Op, bool, error) {
	return rewriteEverywhere(root, func(op *algebra.Op) (*algebra.Op, bool, error) {
		if op.Kind != algebra.OpJoin || op.Phys != algebra.JoinPhysUnset {
			return op, false, nil
		}
		leftSet := schemaSet(op.Inputs[0])
		rightSet := schemaSet(op.Inputs[1])
		var lKeys, rKeys, residual []algebra.Expr
		broadcast := -1
		for _, c := range algebra.Conjuncts(op.Cond) {
			call, ok := c.(algebra.Call)
			if !ok || call.Fn != "eq" || len(call.Args) != 2 {
				residual = append(residual, c)
				continue
			}
			a, b := call.Args[0], call.Args[1]
			// Peel a broadcast hint and remember which side it marks.
			peel := func(e algebra.Expr) (algebra.Expr, bool) {
				if h, ok := e.(algebra.Call); ok && h.Fn == "hinted" {
					if name, ok := h.Args[0].(algebra.Const); ok && name.Val.Kind() == adm.KindString && o.Value(name).Str() == "bcast" {
						return h.Args[1], true
					}
				}
				return e, false
			}
			a, ha := peel(a)
			b, hb := peel(b)
			switch {
			case varsIn(a, leftSet) && varsIn(b, rightSet):
				lKeys = append(lKeys, a)
				rKeys = append(rKeys, b)
				if ha {
					broadcast = 0
				}
				if hb {
					broadcast = 1
				}
			case varsIn(a, rightSet) && varsIn(b, leftSet):
				lKeys = append(lKeys, b)
				rKeys = append(rKeys, a)
				if ha {
					broadcast = 1
				}
				if hb {
					broadcast = 0
				}
			default:
				residual = append(residual, c)
			}
		}
		if len(lKeys) > 0 {
			if broadcast >= 0 {
				op.Phys = algebra.JoinPhysBroadcastHash
				op.BuildSide = broadcast
			} else {
				op.Phys = algebra.JoinPhysHash
				op.BuildSide = 0
			}
			op.JoinLeftKeys, op.JoinRightKeys = lKeys, rKeys
			op.Cond = algebra.AndAll(residual)
		} else {
			op.Phys = algebra.JoinPhysNestedLoop
			op.BuildSide = 0
		}
		return op, true, nil
	})
}

// normalizeKeys materializes join keys, group keys, aggregate inputs,
// and order keys as assigned variables so job generation can treat them
// as plain columns.
func normalizeKeys(o *Optimizer, root *algebra.Op) (*algebra.Op, bool, error) {
	isVar := func(e algebra.Expr) bool {
		_, ok := e.(algebra.VarRef)
		return ok
	}
	return rewriteEverywhere(root, func(op *algebra.Op) (*algebra.Op, bool, error) {
		changed := false
		// assignInput materializes exprs as vars on input slot i.
		assignInput := func(i int, exprs []algebra.Expr) []algebra.Expr {
			var vars []algebra.Var
			var toAssign []algebra.Expr
			out := make([]algebra.Expr, len(exprs))
			copy(out, exprs)
			for j, e := range exprs {
				if isVar(e) {
					continue
				}
				v := o.Alloc.New()
				vars = append(vars, v)
				toAssign = append(toAssign, e)
				out[j] = algebra.VarRef{V: v}
				changed = true
			}
			if len(vars) > 0 {
				asg := algebra.NewOp(algebra.OpAssign, op.Inputs[i])
				asg.AssignVars = vars
				asg.AssignExprs = toAssign
				op.Inputs[i] = asg
			}
			return out
		}
		switch op.Kind {
		case algebra.OpJoin:
			if len(op.JoinLeftKeys) > 0 {
				op.JoinLeftKeys = assignInput(0, op.JoinLeftKeys)
				op.JoinRightKeys = assignInput(1, op.JoinRightKeys)
			}
		case algebra.OpGroupBy:
			var exprs []algebra.Expr
			for _, k := range op.Keys {
				exprs = append(exprs, k.E)
			}
			for _, a := range op.Aggs {
				exprs = append(exprs, a.E)
			}
			norm := assignInput(0, exprs)
			for i := range op.Keys {
				op.Keys[i].E = norm[i]
			}
			for i := range op.Aggs {
				op.Aggs[i].E = norm[len(op.Keys)+i]
			}
		case algebra.OpAggregate:
			var exprs []algebra.Expr
			for _, a := range op.Aggs {
				exprs = append(exprs, a.E)
			}
			norm := assignInput(0, exprs)
			for i := range op.Aggs {
				op.Aggs[i].E = norm[i]
			}
		case algebra.OpOrder:
			var exprs []algebra.Expr
			for _, s := range op.Orders {
				exprs = append(exprs, s.E)
			}
			norm := assignInput(0, exprs)
			for i := range op.Orders {
				op.Orders[i].E = norm[i]
			}
		}
		return op, changed, nil
	})
}

// reuseScansRule unifies duplicate scans of the same dataset under one
// shared node, aliasing the duplicates' variables with Assigns (paper
// §5.4.2: materialize/reuse of identical subplans). Job generation
// inserts a materializing Replicate for the shared node. Only scans of
// one key range are the same subplan: a ranged scan is shared only with
// scans of an equal range.
func reuseScansRule(o *Optimizer, root *algebra.Op) (*algebra.Op, bool, error) {
	if !o.Opts.ReuseSubplans {
		return root, false, nil
	}
	first := map[string][]*algebra.Op{}
	changed := false
	nr, ch, err := rewriteEverywhere(root, func(op *algebra.Op) (*algebra.Op, bool, error) {
		if op.Kind != algebra.OpScan {
			return op, false, nil
		}
		key := op.Dataverse + "." + op.Dataset
		var prev *algebra.Op
		for _, s := range first[key] {
			if s.Range.Equal(op.Range, o.Value) {
				prev = s
				break
			}
		}
		if prev != nil && prev != op {
			alias := algebra.NewOp(algebra.OpAssign, prev)
			alias.AssignVars = []algebra.Var{op.PKVar, op.RecVar}
			alias.AssignExprs = []algebra.Expr{algebra.V(prev.PKVar), algebra.V(prev.RecVar)}
			// Project away the shared scan's own variables so plans
			// joining both streams never carry duplicate variable ids.
			proj := algebra.NewOp(algebra.OpProject, alias)
			proj.Vars = []algebra.Var{op.PKVar, op.RecVar}
			changed = true
			return proj, true, nil
		}
		if prev == nil {
			first[key] = append(first[key], op)
		}
		return op, false, nil
	})
	return nr, ch || changed, err
}
