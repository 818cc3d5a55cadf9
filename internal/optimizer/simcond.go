package optimizer

import (
	"math"
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
func parseSimCond(e algebra.Expr) (simCond, bool) {
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
	thv := cst.(algebra.Const).Val
	th, okNum := thv.Num()
	if !okNum {
		return simCond{}, false
	}
	switch fcall.Fn {
	case "similarity-jaccard":
		// need sim >= d (or sim > d).
		switch cmp {
		case "ge":
		case "gt":
			th = math.Nextafter(th, 2)
		default:
			return simCond{}, false
		}
		return simCond{Fn: "jaccard", Left: fcall.Args[0], Right: fcall.Args[1], Threshold: th}, true
	case "edit-distance":
		// A distance is an integer: d <= 1.5 is d <= 1, d < 1.5 too.
		switch cmp {
		case "le":
			th = math.Floor(th)
		case "lt":
			th = math.Ceil(th) - 1
		default:
			return simCond{}, false
		}
		return simCond{Fn: "edit-distance", Left: fcall.Args[0], Right: fcall.Args[1], Threshold: th}, true
	}
	return simCond{}, false
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

// fieldPathOf matches a chain of field accesses rooted at the given
// record variable and returns its dotted path:
// field-access(field-access($rec, "user"), "name") -> "user.name".
func fieldPathOf(e algebra.Expr, rec algebra.Var) (string, bool) {
	var parts []string
	for {
		call, ok := e.(algebra.Call)
		if !ok || call.Fn != "field-access" || len(call.Args) != 2 {
			break
		}
		name, ok := call.Args[1].(algebra.Const)
		if !ok || name.Val.Kind() != adm.KindString {
			return "", false
		}
		parts = append([]string{name.Val.Str()}, parts...)
		e = call.Args[0]
	}
	if vr, ok := e.(algebra.VarRef); ok && vr.V == rec && len(parts) > 0 {
		return strings.Join(parts, "."), true
	}
	return "", false
}

// indexedArg analyzes one argument of a similarity function against a
// scan's record variable and reports the field path it probes:
//   - jaccard: word-tokens(rec.path) or rec.path (pre-tokenized list)
//   - edit-distance: rec.path directly
func indexedArg(e algebra.Expr, rec algebra.Var, simFn string) (string, bool) {
	if simFn == "jaccard" {
		if call, ok := e.(algebra.Call); ok && call.Fn == "word-tokens" && len(call.Args) == 1 {
			return fieldPathOf(call.Args[0], rec)
		}
	}
	return fieldPathOf(e, rec)
}

// constFoldable reports whether e references no variables (and so can
// be evaluated at compile time).
func constFoldable(e algebra.Expr) bool {
	return len(algebra.UsedVars(e, nil)) == 0
}

// evalConst evaluates a variable-free expression.
func evalConst(e algebra.Expr) (adm.Value, error) {
	return algebra.Eval(e, algebra.NewEnv(map[algebra.Var]int{}, nil))
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
