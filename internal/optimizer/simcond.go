package optimizer

import (
	"math"
	"slices"
	"strings"

	"simdb/internal/adm"
	"simdb/internal/algebra"
)

// simCond is a recognized similarity conjunct.
type simCond struct {
	Fn        string // "jaccard" or "edit-distance"
	Left      algebra.Expr
	Right     algebra.Expr
	Threshold float64 // delta for jaccard, k for edit distance
	// OrigIdx is the conjunct's position within the condition it was
	// parsed from (expressions are not comparable, so rules filter the
	// remaining conjuncts by index).
	OrigIdx int
}

// parseSimCond recognizes similarity predicates in either comparison
// order:
//
//	similarity-jaccard(a, b) >= d      d <= similarity-jaccard(a, b)
//	edit-distance(a, b) <= k           k >= edit-distance(a, b)
//
// plus the strict variants (>, <), which fold into the threshold: the
// next double up for Jaccard, the next integer down for edit distance.
func (o *Optimizer) parseSimCond(e algebra.Expr) (simCond, bool) {
	call, ok := e.(algebra.Call)
	if !ok || len(call.Args) != 2 {
		return simCond{}, false
	}
	inner, cst, cmp := call.Args[0], call.Args[1], call.Fn
	if _, isConst := cst.(algebra.Const); !isConst {
		// Try the flipped orientation: const on the left.
		if _, leftConst := inner.(algebra.Const); !leftConst {
			return simCond{}, false
		}
		inner, cst = cst, inner
		cmp = flipCmp(cmp)
	}
	fcall, ok := inner.(algebra.Call)
	if !ok || len(fcall.Args) != 2 {
		return simCond{}, false
	}
	// The threshold's value is read only once the comparison is a
	// similarity predicate's: a plan reads no other comparison's constant.
	var fn string
	switch {
	case fcall.Fn == "similarity-jaccard" && (cmp == "ge" || cmp == "gt"):
		fn = "jaccard"
	case fcall.Fn == "edit-distance" && (cmp == "le" || cmp == "lt"):
		fn = "edit-distance"
	default:
		return simCond{}, false
	}
	th, okNum := o.Value(cst.(algebra.Const)).Num()
	if !okNum {
		return simCond{}, false
	}
	switch cmp {
	case "gt": // sim > d: the next double up
		th = math.Nextafter(th, 2)
	case "le": // a distance is an integer: d <= 1.5 is d <= 1, d < 1.5 too
		th = math.Floor(th)
	case "lt":
		th = math.Ceil(th) - 1
	}
	return simCond{Fn: fn, Left: fcall.Args[0], Right: fcall.Args[1], Threshold: th}, true
}

func flipCmp(fn string) string {
	switch fn {
	case "ge":
		return "le"
	case "le":
		return "ge"
	case "gt":
		return "lt"
	case "lt":
		return "gt"
	}
	return fn
}

// IndexCompatible is the paper's Figure 13 index–function compatibility
// table: which secondary index type serves which similarity function.
func IndexCompatible(simFn, indexType string) bool {
	switch simFn {
	case "edit-distance", "contains":
		return indexType == "ngram"
	case "jaccard":
		return indexType == "keyword"
	}
	return false
}

// fieldPath matches a chain of field accesses and returns the variable
// at its root and the field names from the root out:
// field-access(field-access($rec, "user"), "name") -> $rec, [user name].
func (o *Optimizer) fieldPath(e algebra.Expr) (algebra.Var, []string, bool) {
	var path []string
	for {
		call, ok := e.(algebra.Call)
		if !ok || call.Fn != "field-access" || len(call.Args) != 2 {
			break
		}
		name, ok := call.Args[1].(algebra.Const)
		if !ok || name.Val.Kind() != adm.KindString {
			return 0, nil, false
		}
		path = append(path, o.Value(name).Str())
		e = call.Args[0]
	}
	vr, ok := e.(algebra.VarRef)
	if !ok || len(path) == 0 {
		return 0, nil, false
	}
	slices.Reverse(path)
	return vr.V, path, true
}

// indexedField is the path of a field-access chain rooted at rec,
// dotted as the catalog names an indexed field.
func (o *Optimizer) indexedField(e algebra.Expr, rec algebra.Var) (string, bool) {
	v, path, ok := o.fieldPath(e)
	return strings.Join(path, "."), ok && v == rec
}

// indexedArg analyzes one argument of a similarity function against a
// scan's record variable and reports the field path it probes:
//   - jaccard: word-tokens(rec.path) or rec.path (pre-tokenized list)
//   - edit-distance: rec.path directly
func (o *Optimizer) indexedArg(e algebra.Expr, rec algebra.Var, simFn string) (string, bool) {
	if simFn == "jaccard" {
		if call, ok := e.(algebra.Call); ok && call.Fn == "word-tokens" && len(call.Args) == 1 {
			return o.indexedField(call.Args[0], rec)
		}
	}
	return o.indexedField(e, rec)
}

// constFoldable reports whether e references no variables (and so can
// be evaluated at compile time).
func constFoldable(e algebra.Expr) bool {
	return len(algebra.UsedVars(e, nil)) == 0
}

// evalConst evaluates a variable-free expression, reading the value of
// every constant in it.
func (o *Optimizer) evalConst(e algebra.Expr) (adm.Value, error) {
	o.readAll(e)
	return algebra.Eval(e, algebra.NewEnv(map[algebra.Var]int{}, nil))
}

// exprString renders e, reading the value of every constant in it: a
// rule that compares or keys expressions by their text decides on those
// values.
func (o *Optimizer) exprString(e algebra.Expr) string {
	o.readAll(e)
	return e.String()
}

// readAll reads the value of every constant in e.
func (o *Optimizer) readAll(e algebra.Expr) {
	algebra.WalkConsts(e, func(c algebra.Const) { o.Value(c) })
}

// findIndex returns the first index on the field compatible with the
// similarity function.
func findIndex(cat Catalog, dv, ds, field, simFn string) (IndexMeta, bool) {
	for _, ix := range cat.DatasetIndexes(dv, ds) {
		if ix.Field == field && IndexCompatible(simFn, ix.Type) {
			return ix, true
		}
	}
	return IndexMeta{}, false
}

// scanOfChain walks down a chain of Assign/Select ops and returns the
// Scan at its bottom, or nil.
func scanOfChain(op *algebra.Op) *algebra.Op {
	for op != nil {
		switch op.Kind {
		case algebra.OpScan:
			return op
		case algebra.OpAssign, algebra.OpSelect:
			op = op.Inputs[0]
		default:
			return nil
		}
	}
	return nil
}
