package cluster

import (
	"fmt"

	"simdb/internal/algebra"
	"simdb/internal/obs"
)

// evaluatorCompiles counts expressions resolved to compiled closures at
// job-generation time.
var evaluatorCompiles = obs.C("cluster.evaluator.compiles")

// compileEvals resolves expressions over one column layout into their
// evaluators at job-generation time. It is the one place that picks an
// evaluator: each expression compiles once here into a pure closure
// (column slots resolved, constants folded, hot forms fused) that every
// operator instance shares.
func compileEvals(cols map[algebra.Var]int, es ...algebra.Expr) ([]algebra.CompiledEval, error) {
	evals := make([]algebra.CompiledEval, len(es))
	for i, e := range es {
		fn, ok := algebra.Compile(e, cols)
		if !ok {
			return nil, fmt.Errorf("jobgen: expression %T does not compile", e)
		}
		evaluatorCompiles.Inc()
		evals[i] = fn
	}
	return evals, nil
}
