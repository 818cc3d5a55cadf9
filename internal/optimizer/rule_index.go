package optimizer

import (
	"simdb/internal/adm"
	"simdb/internal/algebra"
	"simdb/internal/sim"
	"simdb/internal/tokenizer"
)

// indexSelectionRule rewrites a similarity selection over a dataset
// scan into the secondary-to-primary index plan of the paper's Figure 7
// when a compatible index exists and (for edit distance) the
// compile-time corner-case check T > 0 passes.
func indexSelectionRule(o *Optimizer, root *algebra.Op) (*algebra.Op, bool, error) {
	if !o.Opts.UseIndexes {
		return root, false, nil
	}
	return rewriteEverywhere(root, func(op *algebra.Op) (*algebra.Op, bool, error) {
		if op.Kind != algebra.OpSelect {
			return op, false, nil
		}
		scan := scanOfChain(op.Inputs[0])
		if scan == nil {
			return op, false, nil
		}
		for _, conj := range algebra.Conjuncts(op.Cond) {
			// Exact-match selections use a B+-tree index when present
			// (the baseline path of the paper's Figures 22 and 24).
			if done, err := o.tryBTreeSelection(op, scan, conj); err != nil {
				return nil, false, err
			} else if done {
				return op, true, nil
			}
			// contains() probes an n-gram index (Figure 13 row 1).
			if done, err := o.tryContainsSelection(op, scan, conj); err != nil {
				return nil, false, err
			} else if done {
				return op, true, nil
			}
			sc, ok := o.parseSimCond(conj)
			if !ok {
				continue
			}
			// One side constant, the other a field of the scanned record.
			variable, constant := sc.Left, sc.Right
			if !constFoldable(constant) {
				variable, constant = sc.Right, sc.Left
				if !constFoldable(constant) {
					continue
				}
			}
			field, ok := o.indexedArg(variable, scan.RecVar, sc.Fn)
			if !ok {
				continue
			}
			ix, ok := findIndex(o.Catalog, scan.Dataverse, scan.Dataset, field, sc.Fn)
			if !ok {
				continue
			}
			cval, err := o.evalConst(constant)
			if err != nil {
				return nil, false, err
			}
			tokens, t, ok := compileTimeTokens(sc, cval, ix)
			if !ok {
				// Edit-distance corner case (T <= 0): the optimizer
				// "simply stops rewriting the plan" (paper §5.1.1).
				o.noteCornerCase()
				continue
			}
			// Build: Empty -> SecondarySearch -> Order(pk) -> PrimaryLookup.
			search := algebra.NewOp(algebra.OpSecondarySearch, algebra.NewOp(algebra.OpEmpty))
			search.Dataverse, search.Dataset = scan.Dataverse, scan.Dataset
			search.IndexName = ix.Name
			search.KeyExpr = algebra.C(adm.NewStringList(tokens))
			search.TExpr = algebra.CInt(int64(t))
			search.Bound = algebra.SearchBound{Measure: sc.Fn, Threshold: sc.Threshold, GramLen: ix.GramLen}
			search.OutVar = o.Alloc.New()

			sort := algebra.NewOp(algebra.OpOrder, search)
			sort.Orders = []algebra.OrderSpec{{E: algebra.V(search.OutVar)}}

			lookup := algebra.NewOp(algebra.OpPrimaryLookup, sort)
			lookup.Dataverse, lookup.Dataset = scan.Dataverse, scan.Dataset
			lookup.PKExpr = algebra.V(search.OutVar)
			lookup.RawPK = true
			lookup.PKVar, lookup.RecVar = scan.PKVar, scan.RecVar

			replaceInput(op.Inputs[0], scan, lookup)
			if op.Inputs[0] == scan {
				op.Inputs[0] = lookup
			}
			o.noteIndexRewrite()
			return op, true, nil
		}
		return op, false, nil
	})
}

// tryBTreeSelection rewrites eq(rec.field, const) over a scan into a
// B+-tree-style secondary lookup: the index stores one entry per
// (encoded value, pk), so an equality is a T=1 probe of that single key.
func (o *Optimizer) tryBTreeSelection(sel, scan *algebra.Op, conj algebra.Expr) (bool, error) {
	call, ok := conj.(algebra.Call)
	if !ok || call.Fn != "eq" || len(call.Args) != 2 {
		return false, nil
	}
	fieldE, constE := call.Args[0], call.Args[1]
	if !constFoldable(constE) {
		fieldE, constE = constE, fieldE
		if !constFoldable(constE) {
			return false, nil
		}
	}
	field, ok := o.indexedField(fieldE, scan.RecVar)
	if !ok {
		return false, nil
	}
	var ix IndexMeta
	found := false
	for _, cand := range o.Catalog.DatasetIndexes(scan.Dataverse, scan.Dataset) {
		if cand.Field == field && cand.Type == "btree" {
			ix, found = cand, true
			break
		}
	}
	if !found {
		return false, nil
	}
	cval, err := o.evalConst(constE)
	if err != nil {
		return false, err
	}
	search := algebra.NewOp(algebra.OpSecondarySearch, algebra.NewOp(algebra.OpEmpty))
	search.Dataverse, search.Dataset = scan.Dataverse, scan.Dataset
	search.IndexName = ix.Name
	search.KeyExpr = algebra.C(adm.NewStringList([]string{string(adm.OrderedKey(cval))}))
	search.TExpr = algebra.CInt(1)
	search.OutVar = o.Alloc.New()

	sort := algebra.NewOp(algebra.OpOrder, search)
	sort.Orders = []algebra.OrderSpec{{E: algebra.V(search.OutVar)}}

	lookup := algebra.NewOp(algebra.OpPrimaryLookup, sort)
	lookup.Dataverse, lookup.Dataset = scan.Dataverse, scan.Dataset
	lookup.PKExpr = algebra.V(search.OutVar)
	lookup.RawPK = true
	lookup.PKVar, lookup.RecVar = scan.PKVar, scan.RecVar

	replaceInput(sel.Inputs[0], scan, lookup)
	if sel.Inputs[0] == scan {
		sel.Inputs[0] = lookup
	}
	o.noteIndexRewrite()
	return true, nil
}

// tryContainsSelection rewrites contains(rec.field, 'substr') over a
// scan into an n-gram index probe: if the field contains the substring
// it must contain every (interior, unpadded) n-gram of the substring,
// so candidates are the records holding all of them (T = gram count).
// Substrings shorter than the gram length are the corner case and keep
// the scan plan.
func (o *Optimizer) tryContainsSelection(sel, scan *algebra.Op, conj algebra.Expr) (bool, error) {
	call, ok := conj.(algebra.Call)
	if !ok || call.Fn != "contains" || len(call.Args) != 2 {
		return false, nil
	}
	field, ok := o.indexedField(call.Args[0], scan.RecVar)
	if !ok || !constFoldable(call.Args[1]) {
		return false, nil
	}
	var ix IndexMeta
	found := false
	for _, cand := range o.Catalog.DatasetIndexes(scan.Dataverse, scan.Dataset) {
		if cand.Field == field && cand.Type == "ngram" {
			ix, found = cand, true
			break
		}
	}
	if !found {
		return false, nil
	}
	cval, err := o.evalConst(call.Args[1])
	if err != nil {
		return false, err
	}
	if cval.Kind() != adm.KindString {
		return false, nil
	}
	grams := tokenizer.GramTokens(cval.Str(), ix.GramLen, false)
	if len(grams) == 0 {
		o.noteCornerCase() // substring shorter than a gram: keep the scan
		return false, nil
	}
	tokens := tokenizer.CountedStrings(grams)
	search := algebra.NewOp(algebra.OpSecondarySearch, algebra.NewOp(algebra.OpEmpty))
	search.Dataverse, search.Dataset = scan.Dataverse, scan.Dataset
	search.IndexName = ix.Name
	search.KeyExpr = algebra.C(adm.NewStringList(tokens))
	search.TExpr = algebra.CInt(int64(len(tokens)))
	search.OutVar = o.Alloc.New()

	sort := algebra.NewOp(algebra.OpOrder, search)
	sort.Orders = []algebra.OrderSpec{{E: algebra.V(search.OutVar)}}

	lookup := algebra.NewOp(algebra.OpPrimaryLookup, sort)
	lookup.Dataverse, lookup.Dataset = scan.Dataverse, scan.Dataset
	lookup.PKExpr = algebra.V(search.OutVar)
	lookup.RawPK = true
	lookup.PKVar, lookup.RecVar = scan.PKVar, scan.RecVar

	replaceInput(sel.Inputs[0], scan, lookup)
	if sel.Inputs[0] == scan {
		sel.Inputs[0] = lookup
	}
	o.noteIndexRewrite()
	return true, nil
}

// compileTimeTokens computes the probe tokens and occurrence threshold
// for a constant search key; ok=false signals the corner case.
func compileTimeTokens(sc simCond, cval adm.Value, ix IndexMeta) (tokens []string, t int, ok bool) {
	switch sc.Fn {
	case "jaccard":
		if !(sc.Threshold > 0) {
			// Every record qualifies, sharing a token or not: no T prunes.
			return nil, 0, false
		}
		switch cval.Kind() {
		case adm.KindList, adm.KindBag:
			// The coercion the index applied to the indexed field.
			tokens, _ = algebra.TokensOf(cval)
		case adm.KindString:
			tokens = tokenizer.WordTokens(cval.Str())
		default:
			return nil, 0, false
		}
		// Counted form matches the index contents (multiset-safe).
		return tokenizer.CountedStrings(tokens), sim.TOccurrenceJaccard(len(tokens), sc.Threshold), true
	case "edit-distance":
		if cval.Kind() != adm.KindString {
			return nil, 0, false
		}
		n := ix.GramLen
		tokens = tokenizer.GramTokens(cval.Str(), n, true)
		t = sim.TOccurrenceEditDistance(len(tokens), int(sc.Threshold), n)
		if t <= 0 {
			return nil, 0, false // corner case
		}
		return tokenizer.CountedStrings(tokens), t, true
	}
	return nil, 0, false
}

// replaceInput substitutes `from` with `to` anywhere in the subtree.
func replaceInput(op *algebra.Op, from, to *algebra.Op) {
	seen := map[*algebra.Op]bool{}
	var rec func(*algebra.Op)
	rec = func(cur *algebra.Op) {
		if cur == nil || seen[cur] {
			return
		}
		seen[cur] = true
		for i, in := range cur.Inputs {
			if in == from {
				cur.Inputs[i] = to
			} else {
				rec(in)
			}
		}
	}
	rec(op)
}

// indexJoinRule rewrites a similarity join whose inner branch is a
// dataset scan with a compatible index into the index-nested-loop plan
// of Figure 10; edit-distance joins get the runtime corner-case path of
// Figure 14, and Jaccard joins the surrogate optimization of Figure 19
// when enabled.
func indexJoinRule(o *Optimizer, root *algebra.Op) (*algebra.Op, bool, error) {
	if !o.Opts.UseIndexes {
		return root, false, nil
	}
	return rewriteEverywhere(root, func(op *algebra.Op) (*algebra.Op, bool, error) {
		if op.Kind != algebra.OpJoin || op.Phys != algebra.JoinPhysUnset {
			return op, false, nil
		}
		inner := op.Inputs[1]
		if inner.Kind != algebra.OpScan {
			return op, false, nil
		}
		outer := op.Inputs[0]
		outerSet := schemaSet(outer)
		conjs := algebra.Conjuncts(op.Cond)
		for ci, conj := range conjs {
			sc, ok := o.parseSimCond(conj)
			if !ok {
				continue
			}
			sc.OrigIdx = ci
			outerArg, innerArg := sc.Left, sc.Right
			field, ok := o.indexedArg(innerArg, inner.RecVar, sc.Fn)
			if !ok || !varsIn(outerArg, outerSet) {
				outerArg, innerArg = sc.Right, sc.Left
				field, ok = o.indexedArg(innerArg, inner.RecVar, sc.Fn)
				if !ok || !varsIn(outerArg, outerSet) {
					continue
				}
			}
			ix, ok := findIndex(o.Catalog, inner.Dataverse, inner.Dataset, field, sc.Fn)
			if !ok {
				continue
			}
			switch sc.Fn {
			case "jaccard":
				if !(sc.Threshold > 0) {
					// As in compileTimeTokens: no T prunes, and a search
					// with any T loses the pairs sharing no token.
					o.noteCornerCase()
					continue
				}
				nop, ch, err := o.buildJaccardINLJ(op, outer, inner, outerArg, sc, ix, conjs)
				if ch {
					o.noteIndexRewrite()
				}
				return nop, ch, err
			case "edit-distance":
				nop, ch, err := o.buildEditDistanceINLJ(op, outer, inner, outerArg, sc, ix, conjs)
				if ch {
					o.noteIndexRewrite()
				}
				return nop, ch, err
			}
		}
		return op, false, nil
	})
}

// buildJaccardINLJ assembles outer -> (broadcast) secondary search ->
// sort -> primary lookup -> verify. With SurrogateINLJ, only
// (outer PK, token key) is broadcast and a top-level hash join restores
// the outer records (paper Figure 19).
func (o *Optimizer) buildJaccardINLJ(join, outer, inner *algebra.Op, outerArg algebra.Expr, sc simCond, ix IndexMeta, conjs []algebra.Expr) (*algebra.Op, bool, error) {
	outerPK := scanOfChain(outer)
	if o.Opts.SurrogateINLJ && outerPK != nil {
		return o.buildSurrogateINLJ(join, outer, inner, outerArg, sc, ix, conjs, outerPK.PKVar)
	}
	keyVar := o.Alloc.New()
	keyAssign := algebra.NewOp(algebra.OpAssign, outer)
	keyAssign.AssignVars = []algebra.Var{keyVar}
	keyAssign.AssignExprs = []algebra.Expr{outerArg}

	search := algebra.NewOp(algebra.OpSecondarySearch, keyAssign)
	search.Dataverse, search.Dataset = inner.Dataverse, inner.Dataset
	search.IndexName = ix.Name
	search.KeyExpr = algebra.F("counted-tokens", algebra.V(keyVar))
	search.TExpr = algebra.F("t-occurrence-jaccard", algebra.F("len", algebra.V(keyVar)), algebra.C(adm.NewDouble(sc.Threshold)))
	search.Bound = algebra.SearchBound{Measure: sc.Fn, Threshold: sc.Threshold}
	search.OutVar = o.Alloc.New()

	sort := algebra.NewOp(algebra.OpOrder, search)
	sort.Orders = []algebra.OrderSpec{{E: algebra.V(search.OutVar)}}

	lookup := algebra.NewOp(algebra.OpPrimaryLookup, sort)
	lookup.Dataverse, lookup.Dataset = inner.Dataverse, inner.Dataset
	lookup.PKExpr = algebra.V(search.OutVar)
	lookup.RawPK = true
	lookup.PKVar, lookup.RecVar = inner.PKVar, inner.RecVar

	verify := algebra.NewOp(algebra.OpSelect, lookup)
	verify.Cond = algebra.AndAll(conjs)
	return verify, true, nil
}

// buildSurrogateINLJ is the Figure 19 variant: a copy of the outer
// subtree is projected to (surrogate PK, search key) and fed to the
// index; the surviving candidates re-join the full outer stream on the
// surrogate with an equi-join.
func (o *Optimizer) buildSurrogateINLJ(join, outer, inner *algebra.Op, outerArg algebra.Expr, sc simCond, ix IndexMeta, conjs []algebra.Expr, outerPKVar algebra.Var) (*algebra.Op, bool, error) {
	outerCopy, varMap := algebra.Copy(outer, o.Alloc)
	keyVar := o.Alloc.New()
	keyAssign := algebra.NewOp(algebra.OpAssign, outerCopy)
	keyAssign.AssignVars = []algebra.Var{keyVar}
	keyAssign.AssignExprs = []algebra.Expr{algebra.SubstVars(outerArg, varMap)}
	surrogate := varMap[outerPKVar]
	if surrogate == 0 {
		surrogate = outerPKVar
	}
	proj := algebra.NewOp(algebra.OpProject, keyAssign)
	proj.Vars = []algebra.Var{surrogate, keyVar}

	search := algebra.NewOp(algebra.OpSecondarySearch, proj)
	search.Dataverse, search.Dataset = inner.Dataverse, inner.Dataset
	search.IndexName = ix.Name
	search.KeyExpr = algebra.F("counted-tokens", algebra.V(keyVar))
	search.TExpr = algebra.F("t-occurrence-jaccard", algebra.F("len", algebra.V(keyVar)), algebra.C(adm.NewDouble(sc.Threshold)))
	search.Bound = algebra.SearchBound{Measure: sc.Fn, Threshold: sc.Threshold}
	search.OutVar = o.Alloc.New()

	sort := algebra.NewOp(algebra.OpOrder, search)
	sort.Orders = []algebra.OrderSpec{{E: algebra.V(search.OutVar)}}

	lookup := algebra.NewOp(algebra.OpPrimaryLookup, sort)
	lookup.Dataverse, lookup.Dataset = inner.Dataverse, inner.Dataset
	lookup.PKExpr = algebra.V(search.OutVar)
	lookup.RawPK = true
	lookup.PKVar, lookup.RecVar = inner.PKVar, inner.RecVar

	// Verify the similarity on the projected key (no other outer fields
	// are available on this stream).
	innerArgExpr := sc.Right
	if !varsIn(sc.Right, schemaSet(inner)) {
		innerArgExpr = sc.Left
	}
	verify := algebra.NewOp(algebra.OpSelect, lookup)
	verify.Cond = simCondExpr(sc.Fn, algebra.V(keyVar), innerArgExpr, sc.Threshold)

	// Resolve surrogates: hash join back to the full outer stream.
	top := algebra.NewOp(algebra.OpJoin, outer, verify)
	top.Cond = algebra.F("eq", algebra.V(outerPKVar), algebra.V(surrogate))
	// Remaining conjuncts (beyond the similarity predicate) apply on top,
	// where the full outer record is available again.
	var rest []algebra.Expr
	for i, c := range conjs {
		if i != sc.OrigIdx {
			rest = append(rest, c)
		}
	}
	if len(rest) == 0 {
		return top, true, nil
	}
	sel := algebra.NewOp(algebra.OpSelect, top)
	sel.Cond = algebra.AndAll(rest)
	return sel, true, nil
}

// simCondExpr rebuilds a similarity predicate expression.
func simCondExpr(fn string, l, r algebra.Expr, th float64) algebra.Expr {
	if fn == "jaccard" {
		return algebra.F("ge", algebra.F("similarity-jaccard", l, r), algebra.C(adm.NewDouble(th)))
	}
	return algebra.F("le", algebra.F("edit-distance", l, r), algebra.C(adm.NewInt(int64(th))))
}

// buildEditDistanceINLJ assembles the Figure 14 plan: the outer stream
// is split at run time on T > 0; non-corner records take the index
// path, corner records a scan-based nested-loop join, and the results
// are unioned.
func (o *Optimizer) buildEditDistanceINLJ(join, outer, inner *algebra.Op, outerArg algebra.Expr, sc simCond, ix IndexMeta, conjs []algebra.Expr) (*algebra.Op, bool, error) {
	k := int64(sc.Threshold)
	n := int64(ix.GramLen)
	keyVar, tVar := o.Alloc.New(), o.Alloc.New()
	tAssign := algebra.NewOp(algebra.OpAssign, outer)
	tAssign.AssignVars = []algebra.Var{keyVar, tVar}
	tAssign.AssignExprs = []algebra.Expr{
		algebra.F("gram-tokens", outerArg, algebra.CInt(n), algebra.C(adm.NewBool(true))),
		algebra.F("t-occurrence-edit-distance",
			algebra.F("len", algebra.F("gram-tokens", outerArg, algebra.CInt(n), algebra.C(adm.NewBool(true)))),
			algebra.CInt(k), algebra.CInt(n)),
	}

	// Non-corner path: T > 0 through the index.
	selNC := algebra.NewOp(algebra.OpSelect, tAssign)
	selNC.Cond = algebra.F("gt", algebra.V(tVar), algebra.CInt(0))

	search := algebra.NewOp(algebra.OpSecondarySearch, selNC)
	search.Dataverse, search.Dataset = inner.Dataverse, inner.Dataset
	search.IndexName = ix.Name
	search.KeyExpr = algebra.F("counted-tokens", algebra.V(keyVar))
	search.TExpr = algebra.V(tVar)
	search.Bound = algebra.SearchBound{Measure: sc.Fn, Threshold: sc.Threshold, GramLen: ix.GramLen}
	search.OutVar = o.Alloc.New()

	sort := algebra.NewOp(algebra.OpOrder, search)
	sort.Orders = []algebra.OrderSpec{{E: algebra.V(search.OutVar)}}

	pk1, rec1 := o.Alloc.New(), o.Alloc.New()
	lookup := algebra.NewOp(algebra.OpPrimaryLookup, sort)
	lookup.Dataverse, lookup.Dataset = inner.Dataverse, inner.Dataset
	lookup.PKExpr = algebra.V(search.OutVar)
	lookup.RawPK = true
	lookup.PKVar, lookup.RecVar = pk1, rec1

	subst1 := map[algebra.Var]algebra.Var{inner.PKVar: pk1, inner.RecVar: rec1}
	verify := algebra.NewOp(algebra.OpSelect, lookup)
	verify.Cond = algebra.SubstVars(algebra.AndAll(conjs), subst1)

	// Corner path: T <= 0 joins against a fresh scan with a nested loop.
	selC := algebra.NewOp(algebra.OpSelect, tAssign)
	selC.Cond = algebra.F("le", algebra.V(tVar), algebra.CInt(0))

	scan2 := algebra.NewOp(algebra.OpScan)
	scan2.Dataverse, scan2.Dataset = inner.Dataverse, inner.Dataset
	scan2.PKVar, scan2.RecVar = o.Alloc.New(), o.Alloc.New()
	subst2 := map[algebra.Var]algebra.Var{inner.PKVar: scan2.PKVar, inner.RecVar: scan2.RecVar}
	nl := algebra.NewOp(algebra.OpJoin, selC, scan2)
	nl.Cond = algebra.SubstVars(algebra.AndAll(conjs), subst2)
	nl.Phys = algebra.JoinPhysNestedLoop
	nl.BuildSide = 0

	// Union the two paths back into the original join's schema.
	outerSchema := outer.Schema()
	union := algebra.NewOp(algebra.OpUnion, verify, nl)
	in1 := append(append([]algebra.Var(nil), outerSchema...), pk1, rec1)
	in2 := append(append([]algebra.Var(nil), outerSchema...), scan2.PKVar, scan2.RecVar)
	out := append(append([]algebra.Var(nil), outerSchema...), inner.PKVar, inner.RecVar)
	union.InVars = [][]algebra.Var{in1, in2}
	union.OutVars = out
	return union, true, nil
}
