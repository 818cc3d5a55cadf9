package optimizer

import (
	"sort"

	"simdb/internal/algebra"
)

// projectionPushdownRule annotates every record source — dataset scans
// and primary-index lookups alike — with the set of top-level record
// fields the rest of the plan reads from the source's record variable.
// The storage layer uses the annotation to decode only those fields —
// and, on columnar components, to read only their column blocks. The
// analysis is conservative: any use of the record variable that is not
// a field-access chain (the record escaping whole into an expression, a
// union rename, or the query result) leaves the annotation nil, meaning
// "fetch everything". An assign that merely copies the variable (the
// alias reuse-scans puts above a shared scan) is followed to the fields
// read through the alias.
//
// The rule recomputes the full set for every source each pass and
// reports a change only when an annotation differs, so it coexists with
// the other physical rules in the fixpoint loop: once the plan shape
// stabilizes, the deterministic recomputation stabilizes with it.
func projectionPushdownRule(o *Optimizer, root *algebra.Op) (*algebra.Op, bool, error) {
	if !o.Opts.ProjectionPushdown {
		return root, false, nil
	}
	var sources []*algebra.Op
	algebra.Walk(root, func(op *algebra.Op) {
		if op.Kind == algebra.OpScan || op.Kind == algebra.OpPrimaryLookup {
			sources = append(sources, op)
		}
	})
	changed := false
	for _, src := range sources {
		want := o.referencedFields(root, src.RecVar)
		if !sameFieldSet(src.ProjectFields, want) {
			src.ProjectFields = want
			changed = true
		}
	}
	return root, changed, nil
}

// referencedFields walks every operator in the plan and collects the
// top-level field names accessed on rec. It returns nil when any use is
// opaque (the whole record is needed), otherwise a sorted non-nil slice
// (possibly empty: the record is never read at all).
func (o *Optimizer) referencedFields(root *algebra.Op, rec algebra.Var) []string {
	fields := map[string]bool{}
	opaque := false
	algebra.Walk(root, func(op *algebra.Op) {
		if opaque {
			return
		}
		// Structural uses that forward the record under another name or
		// emit it whole: OpWrite returns it to the client; OpUnion
		// renames it to an OutVar whose uses we do not track. OpProject
		// merely keeps the variable in scope — its consumers are all
		// visited by this same walk, so it is not opaque by itself.
		if op.Kind == algebra.OpWrite && op.Var == rec {
			opaque = true
			return
		}
		if op.Kind == algebra.OpUnion {
			for _, vs := range op.InVars {
				for _, v := range vs {
					if v == rec {
						opaque = true
						return
					}
				}
			}
		}
		for i, e := range op.UsedExprs() {
			// A pure copy (an assign's used expressions are its AssignExprs,
			// in order): the alias's uses are the record's.
			if vr, ok := e.(algebra.VarRef); ok && vr.V == rec && op.Kind == algebra.OpAssign {
				through := o.referencedFields(root, op.AssignVars[i])
				if through == nil {
					opaque = true
					return
				}
				for _, f := range through {
					fields[f] = true
				}
			} else if !o.collectRecFields(e, rec, fields) {
				opaque = true
				return
			}
		}
	})
	if opaque {
		return nil
	}
	out := make([]string, 0, len(fields))
	for f := range fields {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// collectRecFields records the top-level field of every field-access
// chain rooted at rec into fields. It returns false when rec is used
// other than through a field access — the record escapes whole and
// projection must not narrow the scan.
func (o *Optimizer) collectRecFields(e algebra.Expr, rec algebra.Var, fields map[string]bool) bool {
	switch x := e.(type) {
	case algebra.VarRef:
		return x.V != rec
	case algebra.Call:
		if v, path, ok := o.fieldPath(x); ok && v == rec {
			fields[path[0]] = true
			return true
		}
		for _, a := range x.Args {
			if !o.collectRecFields(a, rec, fields) {
				return false
			}
		}
		return true
	case algebra.Comprehension:
		for _, c := range x.Clauses {
			if c.E != nil && !o.collectRecFields(c.E, rec, fields) {
				return false
			}
		}
		return o.collectRecFields(x.Ret, rec, fields)
	}
	return true
}

// sameFieldSet compares two annotations, distinguishing nil (opaque)
// from empty (no fields needed).
func sameFieldSet(a, b []string) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
