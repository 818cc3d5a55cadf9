// Package optimizer is SimDB's rule-based query optimizer, modeled on
// the Algebricks rewriting the paper describes (§5): sequential rule
// sets applied to fixpoint, an index-based selection rewrite with
// compile-time corner-case detection, an index-nested-loop similarity
// join rewrite with the runtime corner-case path and surrogate
// optimization, and the AQL+ framework that re-translates similarity
// joins into three-stage plans.
package optimizer

import (
	"fmt"

	"simdb/internal/algebra"
	"simdb/internal/aqlp"
	"simdb/internal/obs"
)

// IndexMeta describes a secondary index for rule matching.
type IndexMeta struct {
	Name    string
	Field   string // dotted path on the record
	Type    string // "btree", "keyword", "ngram"
	GramLen int
}

// Catalog gives the optimizer access to dataset and index metadata.
type Catalog interface {
	aqlp.Catalog
	// DatasetIndexes lists the secondary indexes of a dataset.
	DatasetIndexes(dataverse, dataset string) []IndexMeta
}

// Options toggles individual optimizations — the ablation knobs of
// DESIGN.md.
type Options struct {
	// UseIndexes enables the index-based selection and join rewrites.
	UseIndexes bool
	// UseThreeStageJoin enables the AQL+ three-stage similarity join.
	UseThreeStageJoin bool
	// SurrogateINLJ projects the outer side of an index-nested-loop
	// join down to (surrogate, key) before broadcasting (paper §5.4.1).
	SurrogateINLJ bool
	// ReuseSubplans unifies duplicate dataset scans under a shared
	// (replicated) node (paper §5.4.2).
	ReuseSubplans bool
	// ProjectionPushdown annotates each dataset scan with the set of
	// top-level record fields the plan actually reads, so the scan can
	// skip decoding (and, on columnar components, skip reading) the
	// rest.
	ProjectionPushdown bool
	// MemoryBudgetBytes is the per-query operator memory budget the plan
	// will execute under (0 = unlimited). Physical rules consult it: a
	// very tight budget demotes hash-hinted group-bys to the sort-based
	// path, whose streaming aggregation never needs the whole table.
	MemoryBudgetBytes int64
}

// DefaultOptions enables everything, like stock AsterixDB.
func DefaultOptions() Options {
	return Options{
		UseIndexes: true, UseThreeStageJoin: true, SurrogateINLJ: true,
		ReuseSubplans: true, ProjectionPushdown: true,
	}
}

// CompileStats counts notable compile-time decisions of one
// optimization run.
type CompileStats struct {
	// CornerCaseFallbacks counts similarity predicates that could have
	// used an index but kept the scan plan because of a compile-time
	// corner case (edit-distance T <= 0, non-string constant, substring
	// shorter than the gram length) — paper §5.1.1.
	CornerCaseFallbacks int
	// IndexRewrites counts access paths rewritten to use an index.
	IndexRewrites int
}

// Optimizer rewrites logical plans.
type Optimizer struct {
	Catalog Catalog
	Alloc   *algebra.VarAlloc
	Opts    Options
	// Trace collects one line per applied rule when non-nil.
	Trace *[]string
	// Stats, when non-nil, collects compile-time decision counts.
	Stats *CompileStats
}

// noteCornerCase records one compile-time corner-case fallback.
func (o *Optimizer) noteCornerCase() {
	if o.Stats != nil {
		o.Stats.CornerCaseFallbacks++
	}
	cornerCaseCounter.Inc()
}

// noteIndexRewrite records one access path rewritten to an index plan.
func (o *Optimizer) noteIndexRewrite() {
	if o.Stats != nil {
		o.Stats.IndexRewrites++
	}
	indexRewriteCounter.Inc()
}

// Process-wide compile counters (cheap: one atomic add per event).
var (
	cornerCaseCounter   = obs.C("optimizer.corner_case_fallbacks")
	indexRewriteCounter = obs.C("optimizer.index_rewrites")
)

// rule attempts one rewrite anywhere in the plan; it returns the
// (possibly new) root and whether anything changed.
type rule struct {
	name  string
	apply func(o *Optimizer, root *algebra.Op) (*algebra.Op, bool, error)
}

// Optimize runs the rule sets in order and returns the rewritten plan.
// Rule sets mirror the paper's pipeline: logical normalization first,
// then the similarity rule set (AQL+), then index rewrites and physical
// choices.
func (o *Optimizer) Optimize(root *algebra.Op) (*algebra.Op, error) {
	ruleSets := [][]rule{
		// Normalization: turn cross products + selects into joins.
		{
			{"merge-selects", mergeSelects},
			{"extract-join-conditions", extractJoinConditions},
			{"push-selects-below-join", pushSelectsBelowJoin},
			{"listify-to-scalar-agg", listifyToScalarAgg},
		},
		// Similarity join rule set: AQL+ three-stage rewrite (which
		// re-enters the normalization rules on the new subplan), then
		// index-nested-loop similarity joins.
		{
			{"similarity-join", similarityJoinRule},
			{"merge-selects", mergeSelects},
			{"extract-join-conditions", extractJoinConditions},
			{"push-selects-below-join", pushSelectsBelowJoin},
			{"listify-to-scalar-agg", listifyToScalarAgg},
		},
		// Index access paths.
		{
			{"index-join", indexJoinRule},
			{"index-selection", indexSelectionRule},
		},
		// Subplan reuse and physical preparation.
		{
			{"reuse-scans", reuseScansRule},
			{"choose-join-algorithm", chooseJoinAlgorithm},
			{"group-by-hash-to-sort", hashGroupBudgetRule},
			{"normalize-keys", normalizeKeys},
			{"projection-pushdown", projectionPushdownRule},
			{"specialize-plan", specializeRule},
			{"source-filter", sourceFilterRule},
		},
	}
	for _, rs := range ruleSets {
		for iter := 0; ; iter++ {
			if iter > 200 {
				return nil, fmt.Errorf("optimizer: rule set did not converge")
			}
			changed := false
			for _, r := range rs {
				nr, ch, err := r.apply(o, root)
				if err != nil {
					return nil, fmt.Errorf("optimizer: rule %s: %w", r.name, err)
				}
				if ch {
					changed = true
					root = nr
					if o.Trace != nil {
						*o.Trace = append(*o.Trace, r.name)
					}
					if obs.Log().Enabled(obs.LevelDebug) {
						obs.Log().Debug("optimizer rule applied", "rule", r.name)
					}
				}
			}
			if !changed {
				break
			}
		}
	}
	return root, nil
}

// rewriteEverywhere applies fn to each node (inputs first); fn returns
// a replacement op (or the same op) and whether it changed anything.
// The plan DAG is preserved: shared nodes are rewritten once.
func rewriteEverywhere(root *algebra.Op, fn func(*algebra.Op) (*algebra.Op, bool, error)) (*algebra.Op, bool, error) {
	seen := map[*algebra.Op]*algebra.Op{}
	changed := false
	var rec func(*algebra.Op) (*algebra.Op, error)
	rec = func(op *algebra.Op) (*algebra.Op, error) {
		if op == nil {
			return nil, nil
		}
		if r, ok := seen[op]; ok {
			return r, nil
		}
		for i, in := range op.Inputs {
			ni, err := rec(in)
			if err != nil {
				return nil, err
			}
			if ni != in {
				op.Inputs[i] = ni
			}
		}
		nop, ch, err := fn(op)
		if err != nil {
			return nil, err
		}
		if ch {
			changed = true
		}
		seen[op] = nop
		return nop, nil
	}
	nr, err := rec(root)
	return nr, changed, err
}

// parentsOf builds a parent index for DAG analysis.
func parentsOf(root *algebra.Op) map[*algebra.Op][]*algebra.Op {
	parents := map[*algebra.Op][]*algebra.Op{}
	algebra.Walk(root, func(op *algebra.Op) {
		for _, in := range op.Inputs {
			parents[in] = append(parents[in], op)
		}
	})
	return parents
}

// schemaSet returns the output schema of op as a set.
func schemaSet(op *algebra.Op) map[algebra.Var]bool {
	out := map[algebra.Var]bool{}
	for _, v := range op.Schema() {
		out[v] = true
	}
	return out
}

// varsIn reports whether every used variable of e is in the set.
func varsIn(e algebra.Expr, set map[algebra.Var]bool) bool {
	for _, v := range algebra.UsedVars(e, nil) {
		if !set[v] {
			return false
		}
	}
	return true
}

// usesAny reports whether e references any variable of the set.
func usesAny(e algebra.Expr, set map[algebra.Var]bool) bool {
	for _, v := range algebra.UsedVars(e, nil) {
		if set[v] {
			return true
		}
	}
	return false
}
