package optimizer

import (
	"simdb/internal/algebra"
)

// specializeRule is the plan-specialization pass every plan gets: what
// can be decided once per plan is decided here, so the per-tuple
// evaluators job generation resolves never redo it. Two rewrites:
//
//  1. Constant folding over every operator expression: a variable-free
//     subtree (the constant side of a similarity predicate, its
//     word-tokens call, a prefix length, a T-occurrence bound)
//     evaluates once here and becomes a literal. Subtrees whose
//     evaluation errors are left in place — the error belongs at run
//     time, where short-circuiting may legitimately skip it.
//
//  2. Assign+Select fusion: a select over a single-parent assign
//     absorbs the assign's bindings, so one evaluator pass computes
//     the bindings and the condition per tuple instead of two
//     operators exchanging tuples.
func specializeRule(o *Optimizer, root *algebra.Op) (*algebra.Op, bool, error) {
	changed := false

	// 1. Fold variable-free subtrees in every expression position.
	foldExpr := func(e algebra.Expr) algebra.Expr {
		return algebra.ReplaceExpr(e, func(sub algebra.Expr) algebra.Expr {
			call, isCall := sub.(algebra.Call)
			if !isCall || !constFoldable(call) {
				return sub
			}
			v, err := o.evalConst(call)
			if err != nil {
				return sub
			}
			changed = true
			return algebra.C(v)
		})
	}
	algebra.Walk(root, func(op *algebra.Op) { op.MapExprs(foldExpr) })

	// 2. Fuse each select with the single-parent assign directly below
	// it. Chains of assigns fuse one per fixpoint iteration through the
	// surrounding rule loop.
	parents := parentsOf(root)
	algebra.Walk(root, func(op *algebra.Op) {
		if op.Kind != algebra.OpSelect || len(op.Inputs) != 1 {
			return
		}
		in := op.Inputs[0]
		if in.Kind != algebra.OpAssign || len(parents[in]) != 1 || len(in.AssignVars) == 0 {
			return
		}
		// The absorbed bindings evaluate before any previously fused
		// ones, mirroring the operator order being collapsed.
		op.FusedAssignVars = append(append([]algebra.Var(nil), in.AssignVars...), op.FusedAssignVars...)
		op.FusedAssignExprs = append(append([]algebra.Expr(nil), in.AssignExprs...), op.FusedAssignExprs...)
		op.Inputs[0] = in.Inputs[0]
		changed = true
	})

	return root, changed, nil
}
