package optimizer

import (
	"math"
	"strings"

	"simdb/internal/adm"
	"simdb/internal/algebra"
)

// sourceFilterRule annotates a record source — a dataset scan or a
// primary-index lookup — whose single parent is a select with the
// select's first similarity conjunct of one of the shapes
//
//	similarity-jaccard(word-tokens($rec.f), <const list>) >= d   (d > 0)
//	edit-distance($rec.f, <const string>) <= k
//
// on a top-level field f, in either argument order, with the strict
// comparisons folded in and variables resolved through the select's
// fused assigns. The source then checks the conjunct on the stored
// bytes before it decodes a record (algebra.RecordFilter); the select
// keeps its whole condition. A source shared by two parents gets no
// filter: its other readers see every row.
//
// Like projection pushdown, the rule recomputes every annotation each
// pass and reports a change only when one differs, so it settles with
// the plan shape (the select meets its source once specialization has
// fused the assign between them).
func sourceFilterRule(o *Optimizer, root *algebra.Op) (*algebra.Op, bool, error) {
	parents := parentsOf(root)
	changed := false
	algebra.Walk(root, func(src *algebra.Op) {
		if src.Kind != algebra.OpScan && src.Kind != algebra.OpPrimaryLookup {
			return
		}
		var want *algebra.RecordFilter
		if ps := parents[src]; len(ps) == 1 && ps[0].Kind == algebra.OpSelect {
			want = selectFilter(ps[0], src.RecVar)
		}
		if (want == nil) != (src.Filter == nil) || (want != nil && want.String() != src.Filter.String()) {
			src.Filter = want
			changed = true
		}
	})
	return root, changed, nil
}

// selectFilter returns the first conjunct of sel that restates as a
// filter on a field of rec, or nil. Rejecting a row at the source skips
// everything the select would have evaluated on it before reaching that
// conjunct — its fused assigns and the conjuncts in front — so those
// must be unable to raise: an error the query owes its client is not
// filtered away.
func selectFilter(sel *algebra.Op, rec algebra.Var) *algebra.RecordFilter {
	for _, conj := range algebra.Conjuncts(sel.Cond) {
		if f, candidate := conjunctFilter(sel, conj, rec); f != nil {
			for _, e := range sel.FusedAssignExprs {
				if !cannotRaise(e) && resolveFused(sel, e).String() != candidate.String() {
					return nil
				}
			}
			return f
		}
		if !cannotRaise(conj) {
			return nil
		}
	}
	return nil
}

// conjunctFilter restates one conjunct as a filter, returning it with
// the conjunct's per-record side (fused variables resolved).
func conjunctFilter(sel *algebra.Op, conj algebra.Expr, rec algebra.Var) (*algebra.RecordFilter, algebra.Expr) {
	sc, ok := parseSimCond(conj)
	if !ok {
		return nil, nil
	}
	variable, constant := resolveFused(sel, sc.Left), resolveFused(sel, sc.Right)
	if !constFoldable(constant) {
		variable, constant = constant, variable
	}
	if !constFoldable(constant) {
		return nil, nil
	}
	cval, err := evalConst(constant)
	if err != nil {
		return nil, nil
	}
	switch sc.Fn {
	case "jaccard":
		call, ok := variable.(algebra.Call)
		if !ok || call.Fn != "word-tokens" || len(call.Args) != 1 {
			return nil, nil
		}
		field, ok := topLevelField(call.Args[0], rec)
		tokens, isList := algebra.TokensOf(cval)
		if !ok || !isList || !(sc.Threshold > 0) {
			return nil, nil
		}
		return &algebra.RecordFilter{Field: field, Jaccard: true, Tokens: tokens, Delta: sc.Threshold}, variable
	case "edit-distance":
		field, ok := topLevelField(variable, rec)
		if !ok || cval.Kind() != adm.KindString || !(math.Abs(sc.Threshold) <= math.MaxInt32) {
			return nil, nil
		}
		return &algebra.RecordFilter{Field: field, Query: cval.Str(), K: int(sc.Threshold)}, variable
	}
	return nil, nil
}

// cannotRaise reports whether evaluating e never returns an error:
// constants, variables, field accesses (null on anything but a record)
// and comparisons, and the connectives over them.
func cannotRaise(e algebra.Expr) bool {
	switch x := e.(type) {
	case algebra.Const, algebra.VarRef:
		return true
	case algebra.Call:
		switch x.Fn {
		case "and", "or":
		case "eq", "neq", "lt", "le", "gt", "ge", "field-access":
			if len(x.Args) != 2 {
				return false
			}
		default:
			return false
		}
		for _, a := range x.Args {
			if !cannotRaise(a) {
				return false
			}
		}
		return true
	}
	return false
}

// resolveFused substitutes the select's fused-assign bindings into e,
// later bindings first, so a let-bound word-tokens($rec.f) is seen
// through its variable.
func resolveFused(sel *algebra.Op, e algebra.Expr) algebra.Expr {
	for i := len(sel.FusedAssignVars) - 1; i >= 0; i-- {
		v, def := sel.FusedAssignVars[i], sel.FusedAssignExprs[i]
		e = algebra.ReplaceExpr(e, func(sub algebra.Expr) algebra.Expr {
			if vr, ok := sub.(algebra.VarRef); ok && vr.V == v {
				return def
			}
			return sub
		})
	}
	return e
}

// topLevelField matches field-access($rec, "f"): one level, rooted at
// the source's record variable. (A top-level field whose own name has a
// dot reads as a path and gets no filter, which is safe.)
func topLevelField(e algebra.Expr, rec algebra.Var) (string, bool) {
	path, ok := fieldPathOf(e, rec)
	return path, ok && !strings.Contains(path, ".")
}
