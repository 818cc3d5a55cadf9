package cluster

import (
	"simdb/internal/adm"
	"simdb/internal/algebra"
	"simdb/internal/hyracks"
	"simdb/internal/obs"
)

// tupleEval evaluates one scalar expression over a tuple.
type tupleEval func(t hyracks.Tuple) (adm.Value, error)

// evaluatorCompiles counts expressions resolved to compiled closures at
// job-generation time.
var evaluatorCompiles = obs.C("cluster.evaluator.compiles")

// evalFactory resolves an expression into a per-operator-instance
// evaluator factory at job-generation time. It is the one place that
// picks an evaluator.
//
// The expression compiles once here into a pure closure (column slots
// resolved, constants folded, hot forms fused) that every instance
// shares. When the compiler declines (comprehensions and their name
// references), compiled is false and each instance gets the tree
// interpreter with one Env allocated up front and reset per tuple:
// operator closures are shared across partitions, so the mutable Env
// must be per-instance state, but it need not be per-tuple.
func evalFactory(e algebra.Expr, cols map[algebra.Var]int) (newEval func() tupleEval, compiled bool) {
	if fn, ok := algebra.Compile(e, cols); ok {
		evaluatorCompiles.Inc()
		shared := tupleEval(func(t hyracks.Tuple) (adm.Value, error) { return fn(t) })
		return func() tupleEval { return shared }, true
	}
	return func() tupleEval {
		env := algebra.NewEnv(cols, nil)
		return func(t hyracks.Tuple) (adm.Value, error) {
			env.Reset(t)
			return algebra.Eval(e, env)
		}
	}, false
}

// evalFactories resolves a list of expressions over one column layout;
// compiled reports whether all of them compiled.
func evalFactories(es []algebra.Expr, cols map[algebra.Var]int) (newEvals []func() tupleEval, compiled bool) {
	newEvals = make([]func() tupleEval, len(es))
	compiled = true
	for i, e := range es {
		var ok bool
		newEvals[i], ok = evalFactory(e, cols)
		compiled = compiled && ok
	}
	return newEvals, compiled
}

// instantiate builds one operator instance's evaluators.
func instantiate(newEvals []func() tupleEval) []tupleEval {
	evals := make([]tupleEval, len(newEvals))
	for i, ne := range newEvals {
		evals[i] = ne()
	}
	return evals
}

// interpretedMark suffixes the physical operator name of an operator
// with an expression the compiler declined, so EXPLAIN ANALYZE's
// operator table shows the exceptions that run the interpreter.
func interpretedMark(name string, compiled bool) string {
	if compiled {
		return name
	}
	return name + "[interpreted]"
}
