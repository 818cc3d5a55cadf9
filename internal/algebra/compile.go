package algebra

import (
	"fmt"
	"maps"

	"simdb/internal/adm"
)

// CompiledEval is a specialized evaluator: the expression tree has been
// translated into a closure over column slots, so running it is a chain
// of direct calls with no tree walk and no variable lookups (outside a
// comprehension, which the interpreter runs). A compiled evaluator is
// pure and carries no mutable state, so one closure is safely shared
// across operator instances and goroutines.
type CompiledEval func(row []adm.Value) (adm.Value, error)

// Compile translates e into a closure evaluating it over tuples whose
// layout is described by cols (plan variable → column index). Every
// expression compiles: the five Expr forms are closures, and a nil Expr
// raises Eval's "unknown expression" error when run. ok is always true;
// it stays in the signature for benchmark/harness, which reads it.
//
// The compiler performs:
//   - column-slot resolution: VarRef compiles to a direct row index,
//     resolved once here instead of a map lookup per tuple;
//   - constant folding: any variable-free subtree is evaluated once at
//     compile time and memoized as a value (or as an error that is
//     raised only if evaluation reaches it, preserving and/or
//     short-circuit semantics);
//   - fused forms: comparisons, int/double arithmetic, field access,
//     not/is-null compile to inlined closures that skip the registry
//     dispatch and per-call argument slice;
//   - comprehensions (and a name reference outside one) run Eval with a
//     fresh Env per call, over a copy of cols taken here: the binding
//     stack lives in that Env, so the closure stays pure like the rest.
//
// Semantics match Eval exactly — same values, same errors, same
// evaluation order — which the differential tests in compile_test.go
// and FuzzCompiledEval assert.
func Compile(e Expr, cols map[Var]int) (CompiledEval, bool) {
	fn, _ := compileExpr(e, cols)
	return fn, true
}

// compileExpr returns the closure and whether the subtree is
// variable-free (and therefore foldable).
func compileExpr(e Expr, cols map[Var]int) (CompiledEval, bool) {
	switch x := e.(type) {
	case Const:
		v := x.Val
		return func([]adm.Value) (adm.Value, error) { return v, nil }, true
	case VarRef:
		col, bound := cols[x.V]
		if !bound {
			err := fmt.Errorf("algebra: unbound variable %v", x.V)
			return func([]adm.Value) (adm.Value, error) { return adm.Null, err }, false
		}
		v := x.V
		return func(row []adm.Value) (adm.Value, error) {
			if col >= len(row) {
				return adm.Null, fmt.Errorf("algebra: variable %v column %d out of row", v, col)
			}
			return row[col], nil
		}, false
	case Call:
		return compileCall(x, cols)
	case Comprehension, NameRef:
		cols := maps.Clone(cols)
		fn := CompiledEval(func(row []adm.Value) (adm.Value, error) { return Eval(e, &Env{Cols: cols, Row: row}) })
		if len(UsedVars(e, nil)) == 0 {
			return foldConst(fn), true
		}
		return fn, false
	}
	err := fmt.Errorf("algebra: unknown expression %T", e)
	return func([]adm.Value) (adm.Value, error) { return adm.Null, err }, false
}

func compileCall(c Call, cols map[Var]int) (CompiledEval, bool) {
	args := make([]CompiledEval, len(c.Args))
	varFree := true
	for i, a := range c.Args {
		fn, vf := compileExpr(a, cols)
		args[i] = fn
		varFree = varFree && vf
	}

	fn := fuseCall(c.Fn, args)
	if fn == nil {
		fn = genericCall(c.Fn, args)
	}
	if varFree {
		return foldConst(fn), true
	}
	return fn, false
}

// foldConst evaluates a variable-free closure once at compile time and
// memoizes the outcome. Errors are memoized too, as a thunk raised only
// when evaluation actually reaches this subtree — folding must not turn
// `and(false, 1/0)` into a compile failure when the interpreter would
// short-circuit past the error.
func foldConst(fn CompiledEval) CompiledEval {
	v, err := fn(nil)
	if err != nil {
		return func([]adm.Value) (adm.Value, error) { return adm.Null, err }
	}
	return func([]adm.Value) (adm.Value, error) { return v, nil }
}

// fuseCall returns an inlined closure for the hot builtin forms, or nil
// when fn/arity has no fused shape. Every fused form replicates its
// registry twin's semantics exactly (null handling included); arities
// the builtin would reject fall through to the generic path so the
// argument-evaluation-then-arity-error ordering matches the
// interpreter.
func fuseCall(fn string, args []CompiledEval) CompiledEval {
	// Short-circuit connectives take any arity.
	switch fn {
	case "and":
		return func(row []adm.Value) (adm.Value, error) {
			for _, a := range args {
				v, err := a(row)
				if err != nil {
					return adm.Null, err
				}
				if !truthy(v) {
					return adm.NewBool(false), nil
				}
			}
			return adm.NewBool(true), nil
		}
	case "or":
		return func(row []adm.Value) (adm.Value, error) {
			for _, a := range args {
				v, err := a(row)
				if err != nil {
					return adm.Null, err
				}
				if truthy(v) {
					return adm.NewBool(true), nil
				}
			}
			return adm.NewBool(false), nil
		}
	}

	switch len(args) {
	case 1:
		a := args[0]
		switch fn {
		case "not":
			return func(row []adm.Value) (adm.Value, error) {
				v, err := a(row)
				if err != nil {
					return adm.Null, err
				}
				if v.IsNull() {
					return adm.Null, nil
				}
				if v.Kind() != adm.KindBool {
					return adm.Null, fmt.Errorf("not on %v", v.Kind())
				}
				return adm.NewBool(!v.Bool()), nil
			}
		case "is-null":
			return func(row []adm.Value) (adm.Value, error) {
				v, err := a(row)
				if err != nil {
					return adm.Null, err
				}
				return adm.NewBool(v.IsNull()), nil
			}
		}
	case 2:
		a, b := args[0], args[1]
		switch fn {
		case "eq", "neq", "lt", "le", "gt", "ge":
			ok := cmpPreds[fn]
			return func(row []adm.Value) (adm.Value, error) {
				av, err := a(row)
				if err != nil {
					return adm.Null, err
				}
				bv, err := b(row)
				if err != nil {
					return adm.Null, err
				}
				if av.IsNull() || bv.IsNull() {
					return adm.Null, nil
				}
				return adm.NewBool(ok(adm.Compare(av, bv))), nil
			}
		case "add", "sub", "mul":
			fi, ff := arithOps[fn].i, arithOps[fn].f
			return func(row []adm.Value) (adm.Value, error) {
				av, err := a(row)
				if err != nil {
					return adm.Null, err
				}
				bv, err := b(row)
				if err != nil {
					return adm.Null, err
				}
				if av.IsNull() || bv.IsNull() {
					return adm.Null, nil
				}
				if av.Kind() == adm.KindInt && bv.Kind() == adm.KindInt {
					return adm.NewInt(fi(av.Int(), bv.Int())), nil
				}
				fa, ok1 := av.Num()
				fb, ok2 := bv.Num()
				if !ok1 || !ok2 {
					return adm.Null, fmt.Errorf("arithmetic on non-numeric %v, %v", av.Kind(), bv.Kind())
				}
				return adm.NewDouble(ff(fa, fb)), nil
			}
		case "field-access":
			return func(row []adm.Value) (adm.Value, error) {
				rec, err := a(row)
				if err != nil {
					return adm.Null, err
				}
				name, err := b(row)
				if err != nil {
					return adm.Null, err
				}
				if rec.Kind() != adm.KindRecord || name.Kind() != adm.KindString {
					return adm.Null, nil
				}
				v, _ := rec.Rec().Get(name.Str())
				return v, nil
			}
		}
	}
	return nil
}

var cmpPreds = map[string]func(int) bool{
	"eq":  func(c int) bool { return c == 0 },
	"neq": func(c int) bool { return c != 0 },
	"lt":  func(c int) bool { return c < 0 },
	"le":  func(c int) bool { return c <= 0 },
	"gt":  func(c int) bool { return c > 0 },
	"ge":  func(c int) bool { return c >= 0 },
}

var arithOps = map[string]struct {
	i func(a, b int64) int64
	f func(a, b float64) float64
}{
	"add": {func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b }},
	"sub": {func(a, b int64) int64 { return a - b }, func(a, b float64) float64 { return a - b }},
	"mul": {func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b }},
}

// genericCall compiles the registry-dispatch path: arguments evaluate
// strictly left to right into a fresh slice (per invocation — the
// closure is shared across goroutines), then the builtin runs. An
// unknown function is an error only after its arguments evaluate,
// matching evalCall.
func genericCall(name string, args []CompiledEval) CompiledEval {
	fn, known := builtins[name]
	if !known {
		err := fmt.Errorf("algebra: unknown function %q", name)
		return func(row []adm.Value) (adm.Value, error) {
			for _, a := range args {
				if _, aerr := a(row); aerr != nil {
					return adm.Null, aerr
				}
			}
			return adm.Null, err
		}
	}
	return func(row []adm.Value) (adm.Value, error) {
		vals := make([]adm.Value, len(args))
		for i, a := range args {
			v, err := a(row)
			if err != nil {
				return adm.Null, err
			}
			vals[i] = v
		}
		return fn(vals)
	}
}
