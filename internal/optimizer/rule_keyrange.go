package optimizer

import (
	"slices"
	"strings"

	"simdb/internal/adm"
	"simdb/internal/algebra"
)

// primaryKeyRangeRule annotates a dataset scan whose single parent is a
// select with the interval of primary keys the select's conjuncts
// allow (algebra.KeyRange), so storage reads only that key range — the
// primary-index range search AsterixDB's access-method rules make of a
// key range. It intersects the select's eq / ge / gt / le / lt
// conjuncts between the key and a scalar constant, in either argument
// order; the key is the scan's key variable or the record's key field.
// The select keeps its whole condition.
//
// Skipping a row skips everything the select would have evaluated on it
// first — the conjuncts in front of the one that rejects it — so a
// conjunct counts only if no conjunct ahead of it can raise
// (cannotRaise): an error the query owes its client is not skipped
// away. The rule runs before specialization fuses assigns into selects;
// a select that has fused assigns gets no range. Like source-filter, the
// rule recomputes every scan's range each pass and reports a change
// only when one differs.
func primaryKeyRangeRule(o *Optimizer, root *algebra.Op) (*algebra.Op, bool, error) {
	parents := parentsOf(root)
	changed := false
	algebra.Walk(root, func(scan *algebra.Op) {
		if scan.Kind != algebra.OpScan {
			return
		}
		var want *algebra.KeyRange
		if ps := parents[scan]; len(ps) == 1 && ps[0].Kind == algebra.OpSelect && len(ps[0].FusedAssignVars) == 0 {
			want = o.selectKeyRange(ps[0], scan)
		}
		if !want.Equal(scan.Range, o.Value) {
			scan.Range = want
			changed = true
		}
	})
	return root, changed, nil
}

// selectKeyRange intersects the key-range conjuncts of sel over scan,
// up to the first conjunct that can raise; nil if there are none.
func (o *Optimizer) selectKeyRange(sel, scan *algebra.Op) *algebra.KeyRange {
	pk, ok := o.Catalog.ResolveDataset(scan.Dataverse, scan.Dataset)
	if !ok {
		return nil
	}
	path := strings.Split(pk, ".")
	var r *algebra.KeyRange
	for _, conj := range algebra.Conjuncts(sel.Cond) {
		if cmp, bound, ok := o.keyBound(conj, scan, path); ok {
			r = o.intersect(r, cmp, bound)
			continue
		}
		if !cannotRaise(conj) {
			break
		}
	}
	return r
}

// keyBound matches cmp(key, c) or cmp(c, key) for a comparison cmp and a
// variable-free c that evaluates to a scalar, and returns the comparison
// oriented with the key on the left and c as a constant. A bare constant
// is returned as it is, slot and all, without a look at its value (its
// kind is the request shape's), so a cached plan's range follows the
// literal it came from; any other c is evaluated.
func (o *Optimizer) keyBound(conj algebra.Expr, scan *algebra.Op, path []string) (string, algebra.Const, bool) {
	call, ok := conj.(algebra.Call)
	if !ok || len(call.Args) != 2 {
		return "", algebra.Const{}, false
	}
	switch call.Fn {
	case "eq", "ge", "gt", "le", "lt":
	default:
		return "", algebra.Const{}, false
	}
	cmp, key, c := call.Fn, call.Args[0], call.Args[1]
	if !o.isPrimaryKey(key, scan, path) {
		cmp, key, c = flipCmp(cmp), c, key
	}
	if !o.isPrimaryKey(key, scan, path) || !constFoldable(c) {
		return "", algebra.Const{}, false
	}
	v, ok := c.(algebra.Const)
	if !ok {
		val, err := o.evalConst(c)
		if err != nil {
			return "", algebra.Const{}, false
		}
		v = algebra.Const{Val: val}
	}
	switch v.Val.Kind() {
	case adm.KindNull, adm.KindBool, adm.KindInt, adm.KindDouble, adm.KindString:
		return cmp, v, true
	}
	// A composite's ordered key follows Compare only within equal
	// lengths (adm.OrderedKey), so it bounds nothing.
	return "", algebra.Const{}, false
}

// isPrimaryKey reports whether e reads the scan's primary key: its key
// variable, or field-access($rec, …) along the key's path.
func (o *Optimizer) isPrimaryKey(e algebra.Expr, scan *algebra.Op, path []string) bool {
	if vr, ok := e.(algebra.VarRef); ok {
		return vr.V == scan.PKVar
	}
	v, p, ok := o.fieldPath(e)
	return ok && v == scan.RecVar && slices.Equal(p, path)
}

// intersect narrows r (nil: every key) by key cmp v. Of two ends that
// compare equal, the strict one wins.
func (o *Optimizer) intersect(r *algebra.KeyRange, cmp string, v algebra.Const) *algebra.KeyRange {
	out := algebra.KeyRange{}
	if r != nil {
		out = *r
	}
	if cmp == "eq" || cmp == "ge" || cmp == "gt" {
		out.Lo, out.LoIncl = o.tighter(out.Lo, out.LoIncl, v, cmp != "gt", 1)
	}
	if cmp == "eq" || cmp == "le" || cmp == "lt" {
		out.Hi, out.HiIncl = o.tighter(out.Hi, out.HiIncl, v, cmp != "lt", -1)
	}
	return &out
}

// tighter returns the tighter of an interval's end and a new end v: for
// a lower end (sign 1) the greater, for an upper end (sign -1) the
// lesser; nil is unbounded. Only two ends on one side are compared, so
// only then does the range depend on the bounds' values.
func (o *Optimizer) tighter(end *algebra.Const, incl bool, v algebra.Const, vIncl bool, sign int) (*algebra.Const, bool) {
	if end == nil {
		return &v, vIncl
	}
	switch c := adm.Compare(o.Value(v), o.Value(*end)) * sign; {
	case c > 0:
		return &v, vIncl
	case c == 0:
		return end, incl && vIncl
	}
	return end, incl
}
