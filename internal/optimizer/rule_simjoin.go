package optimizer

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"simdb/internal/algebra"
	"simdb/internal/aqlp"
)

// The AQL+ framework (paper §5.2). A similarity join with no applicable
// index is rewritten into the three-stage set-similarity join of
// Vernica et al. — not by hand-building its ~77 operators, but by
// instantiating an AQL+ template: the rule binds the join's input
// subplans to ##meta clauses (fresh deep copies for stages 1 and 2, the
// originals for stage 3), fills the THRESHOLD placeholder, re-parses the
// template with the AQL+ parser, re-translates it, and splices the
// resulting plan over the join operator. The surrounding plan and the
// remaining rule sets then re-optimize the new subplan, exactly as
// Figure 16 describes. Two clean-ups follow the template: a conjunct
// that compares the two primary keys moves into stage 2, and stage 3 is
// left out when nothing above the join reads more of its inputs than
// their primary keys.

// ridPairTemplate is stage 2's AQL+ fragment for the general
// (two-input) case: the prefix-filtered, verified and deduplicated rid
// pairs. Stage 1 (the shared ##RANKED clause) is registered separately
// so both sides share one global token order. @RIDPAIR_ON@ adds the
// join's conjuncts over the two primary keys, if any, to the prefix
// join's condition, so they filter the candidate pairs before the
// similarity check.
const ridPairTemplate = `
for $left in ##LEFT_2
for $ltok in $$LEFTTOKS_2
for $rt1 in ##RANKEDL
where $ltok = /*+ bcast */ $rt1
let $i := $$RANKL
group by $lid := $$LEFTPK_2 with $i
let $ltokens := sorted($i)
for $ptl in subset-collection($ltokens, 0, prefix-len-jaccard(len($ltokens), @THRESHOLD@))
join $rpair in (
    for $right in ##RIGHT_2
    for $rtok in $$RIGHTTOKS_2
    for $rt2 in ##RANKEDR
    where $rtok = /*+ bcast */ $rt2
    let $j := $$RANKR
    group by $rid := $$RIGHTPK_2 with $j
    let $rtokens := sorted($j)
    for $ptr in subset-collection($rtokens, 0, prefix-len-jaccard(len($rtokens), @THRESHOLD@))
    return { 'rid': $rid, 'rtokens': $rtokens, 'pt': $ptr }
) on $ptl = $rpair.pt@RIDPAIR_ON@
let $sim := similarity-jaccard-check($ltokens, $rpair.rtokens, @THRESHOLD@)
where not(is-null($sim))
group by $idl := $lid, $idr := $rpair.rid with $sim
return { 'l': $idl, 'r': $idr }
`

// stage3Template is stage 3: it re-joins the rid pairs (ridPairTemplate
// fills the %s) with the original inputs.
const stage3Template = `
for $ridpair in (%s)
for $ll in ##LEFT_3
for $rr in ##RIGHT_3
where $ridpair.l = $$LEFTPK_3 and $ridpair.r = $$RIGHTPK_3
`

// stage1UnionTemplate builds the global token order from both inputs
// (general joins); stage1SingleTemplate reads one input: the bare scan
// of a join whose inputs both read one dataset (see tokenSource).
const stage1UnionTemplate = `
for $t in union(
    (for $l1 in ##LEFT_1 for $tk1 in $$LEFTTOKS_1 return $tk1),
    (for $r1 in ##RIGHT_1 for $tk2 in $$RIGHTTOKS_1 return $tk2))
/*+ hash */ group by $tokenGrouped := $t with $t
order by count($t), $tokenGrouped
return $tokenGrouped
`

const stage1SingleTemplate = `
for $l1 in ##LEFT_1
for $tk1 in $$LEFTTOKS_1
/*+ hash */ group by $tokenGrouped := $tk1 with $tk1
order by count($tk1), $tokenGrouped
return $tokenGrouped
`

// similarityJoinRule fires on a Jaccard join with no usable index and
// replaces it with the instantiated three-stage plan.
func similarityJoinRule(o *Optimizer, root *algebra.Op) (*algebra.Op, bool, error) {
	if !o.Opts.UseThreeStageJoin {
		return root, false, nil
	}
	return rewriteEverywhere(root, func(op *algebra.Op) (*algebra.Op, bool, error) {
		if op.Kind != algebra.OpJoin || op.Phys != algebra.JoinPhysUnset {
			return op, false, nil
		}
		left, right := op.Inputs[0], op.Inputs[1]
		leftSet, rightSet := schemaSet(left), schemaSet(right)
		conjs := algebra.Conjuncts(op.Cond)
		for ci, conj := range conjs {
			sc, ok := o.parseSimCond(conj)
			if !ok || sc.Fn != "jaccard" {
				continue
			}
			sc.OrigIdx = ci
			lArg, rArg := sc.Left, sc.Right
			if !varsIn(lArg, leftSet) || !varsIn(rArg, rightSet) {
				lArg, rArg = sc.Right, sc.Left
				if !varsIn(lArg, leftSet) || !varsIn(rArg, rightSet) {
					continue
				}
			}
			// Prefer an index-nested-loop plan when an index applies
			// (paper §6.4.1: the three-stage join is the no-index plan).
			if innerScan := op.Inputs[1]; o.Opts.UseIndexes && innerScan.Kind == algebra.OpScan {
				if field, ok := o.indexedArg(rArg, innerScan.RecVar, "jaccard"); ok {
					if _, has := findIndex(o.Catalog, innerScan.Dataverse, innerScan.Dataset, field, "jaccard"); has {
						continue
					}
				}
			}
			if !(sc.Threshold > 0) {
				// Every pair qualifies, sharing a token or not, and the
				// prefix filter of stage 2 finds only pairs that share one:
				// keep the nested-loop join and its predicate.
				o.noteCornerCase()
				continue
			}
			// Both inputs must expose a record identifier for the
			// RID-pair stages. A plain scan provides its primary key;
			// a composite branch (e.g. the output of an earlier
			// similarity join, the multi-way case of Figure 18) gets a
			// synthetic RID built from every live primary key.
			left2, lPK, ok := o.branchKey(left)
			if !ok {
				continue
			}
			right2, rPK, ok := o.branchKey(right)
			if !ok {
				continue
			}
			newOp, err := o.instantiateThreeStage(root, op, left2, right2, lArg, rArg, sc, conjs, lPK, rPK)
			if err != nil {
				return nil, false, err
			}
			return newOp, true, nil
		}
		return op, false, nil
	})
}

// branchKey returns a plan (possibly extended with an Assign) exposing
// a unique record identifier for the branch: a chain scan's primary
// key directly, or a synthetic composite RID record built from every
// live scan/lookup primary key.
func (o *Optimizer) branchKey(branch *algebra.Op) (*algebra.Op, algebra.Var, bool) {
	if scan := scanOfChain(branch); scan != nil {
		return branch, scan.PKVar, true
	}
	live := schemaSet(branch)
	var pks []algebra.Var
	algebra.Walk(branch, func(op *algebra.Op) {
		if (op.Kind == algebra.OpScan || op.Kind == algebra.OpPrimaryLookup) && live[op.PKVar] {
			pks = append(pks, op.PKVar)
		}
	})
	if len(pks) == 0 {
		return nil, 0, false
	}
	if len(pks) == 1 {
		return branch, pks[0], true
	}
	args := make([]algebra.Expr, 0, len(pks)*2)
	for i, pk := range pks {
		args = append(args, algebra.CStr(fmt.Sprintf("k%d", i)), algebra.V(pk))
	}
	rid := o.Alloc.New()
	asg := algebra.NewOp(algebra.OpAssign, branch)
	asg.AssignVars = []algebra.Var{rid}
	asg.AssignExprs = []algebra.Expr{algebra.Call{Fn: "record", Args: args}}
	return asg, rid, true
}

// tokensBranch deep-copies a join input and tops it with an Assign
// computing the token list, exposing (plan, record var, pk var, tokens
// var) for a meta binding.
func (o *Optimizer) tokensBranch(input *algebra.Op, arg algebra.Expr, pkVar algebra.Var) (plan *algebra.Op, rec, pk, toks algebra.Var) {
	cp, m := algebra.Copy(input, o.Alloc)
	toksVar := o.Alloc.New()
	asg := algebra.NewOp(algebra.OpAssign, cp)
	asg.AssignVars = []algebra.Var{toksVar}
	asg.AssignExprs = []algebra.Expr{algebra.SubstVars(arg, m)}
	newPK := m[pkVar]
	if newPK == 0 {
		newPK = pkVar
	}
	// The record var is incidental — any var works for "for $v in ##X".
	return asg, toksVar, newPK, toksVar
}

// tokenSource is the input stage 1 reads by itself when one suffices:
// both join inputs are chains over scans of one dataset, one of them is
// the bare scan, and both compute the same token expression of their
// scan's record alone. Every token either side can produce is then a
// token of some stored record, so an order over the bare scan's tokens
// ranks all of them, and it depends on the stored data only — not on the
// query's constants. scan is the bare side's scan (bareLeft tells which
// side it is); expr is the token expression over record variable $0, the
// part of the memo keys that names the tokenizer.
type tokenSource struct {
	scan     *algebra.Op
	bareLeft bool
	expr     string
}

// singleTokenSource reports the tokenSource of a join, if it has one.
// The right input is preferred when both are bare scans.
func (o *Optimizer) singleTokenSource(left, right *algebra.Op, lArg, rArg algebra.Expr) (tokenSource, bool) {
	ls, rs := scanOfChain(left), scanOfChain(right)
	if ls == nil || rs == nil || ls.Dataverse != rs.Dataverse || ls.Dataset != rs.Dataset {
		return tokenSource{}, false
	}
	le, lok := o.recordExpr(lArg, ls)
	re, rok := o.recordExpr(rArg, rs)
	if !lok || !rok || le != re {
		return tokenSource{}, false
	}
	switch {
	case right == rs:
		return tokenSource{scan: rs, expr: re}, true
	case left == ls:
		return tokenSource{scan: ls, bareLeft: true, expr: le}, true
	}
	return tokenSource{}, false
}

// recordExpr renders arg with scan's record variable as $0, if that is
// the only variable it reads.
func (o *Optimizer) recordExpr(arg algebra.Expr, scan *algebra.Op) (string, bool) {
	if !varsIn(arg, map[algebra.Var]bool{scan.RecVar: true}) {
		return "", false
	}
	return o.exprString(algebra.SubstVars(arg, map[algebra.Var]algebra.Var{scan.RecVar: 0})), true
}

// newMemo wraps in with a memo operator keyed kind(dataverse.dataset,
// token expression, params...) that outputs vars.
func newMemo(in *algebra.Op, kind string, src tokenSource, vars []algebra.Var, params ...string) *algebra.Op {
	m := algebra.NewOp(algebra.OpMemo, in)
	m.Dataverse, m.Dataset = src.scan.Dataverse, src.scan.Dataset
	m.MemoKey = fmt.Sprintf("%s(%s)", kind, strings.Join(append([]string{m.Dataverse + "." + m.Dataset, src.expr}, params...), ", "))
	m.Vars = vars
	return m
}

// memoPrefixSide puts a ranked memo over the inner side of the prefix
// join of an instantiated template: the side's prefix tuples, each a
// record of the bare side's key, its ranked tokens and one prefix token
// pt, found above the group-by on the side's primary key pk. The memo
// outputs the record and pt, which the join becomes keyed on, so the
// join can build its table on the memo and a later query with the same
// threshold can probe that table. The key carries the threshold th,
// which sets the prefix lengths.
func memoPrefixSide(o *Optimizer, frag *algebra.Op, pk algebra.Var, src tokenSource, th string) error {
	parents := parentsOf(frag)
	only := func(op *algebra.Op, kind algebra.OpKind) *algebra.Op {
		if ps := parents[op]; len(ps) == 1 && ps[0].Kind == kind {
			return ps[0]
		}
		return nil
	}
	var rec, join *algebra.Op
	algebra.Walk(frag, func(op *algebra.Op) {
		if op.Kind != algebra.OpGroupBy || len(op.Keys) != 1 {
			return
		}
		if key, ok := op.Keys[0].E.(algebra.VarRef); !ok || key.V != pk {
			return
		}
		sortedAsg := only(op, algebra.OpAssign)
		if sortedAsg == nil {
			return
		}
		if prefix := only(sortedAsg, algebra.OpUnnest); prefix != nil {
			if rec = only(prefix, algebra.OpAssign); rec != nil {
				join = only(rec, algebra.OpJoin)
			}
		}
	})
	if join == nil || join.Inputs[1] != rec || len(rec.AssignVars) != 1 {
		return fmt.Errorf("aql+: no prefix join over the stage-2 group-by on %v", pk)
	}
	recVar, pt := rec.AssignVars[0], o.Alloc.New()
	asg := algebra.NewOp(algebra.OpAssign, rec)
	asg.AssignVars = []algebra.Var{pt}
	asg.AssignExprs = []algebra.Expr{algebra.F("field-access", algebra.V(recVar), algebra.CStr("pt"))}
	join.Inputs[1] = newMemo(asg, "ranked", src, []algebra.Var{recVar, pt}, th)
	join.Cond = algebra.ReplaceExpr(join.Cond, func(e algebra.Expr) algebra.Expr {
		if v, path, ok := o.fieldPath(e); ok && v == recVar && slices.Equal(path, []string{"pt"}) {
			return algebra.V(pt)
		}
		return e
	})
	return nil
}

// keySide is a join input keyed by its scan's primary key: the scan,
// the path of its top-level key field, and the input's other variables.
type keySide struct {
	o     *Optimizer
	scan  *algebra.Op
	path  []string
	other map[algebra.Var]bool
}

// keySideOf returns the keySide of a join input whose key is pk, if the
// input is a chain over a scan whose primary key pk is.
func (o *Optimizer) keySideOf(input *algebra.Op, pk algebra.Var) (keySide, bool) {
	scan := scanOfChain(input)
	if scan == nil || scan.PKVar != pk {
		return keySide{}, false
	}
	field, ok := o.Catalog.ResolveDataset(scan.Dataverse, scan.Dataset)
	if !ok || strings.Contains(field, ".") {
		return keySide{}, false
	}
	other := schemaSet(input)
	delete(other, pk)
	return keySide{o: o, scan: scan, path: []string{field}, other: other}, true
}

// isKey reports whether e is the side's primary key: its variable, or
// the key field of its record, which the scan read the key from.
func (s keySide) isKey(e algebra.Expr) bool {
	return s.o.isPrimaryKey(e, s.scan, s.path)
}

// keysOnly rewrites e's references to either side's primary key into
// the key variables, and reports whether e then reads nothing else of
// the two sides.
func keysOnly(e algebra.Expr, sides [2]keySide) (algebra.Expr, bool) {
	e = algebra.ReplaceExpr(e, func(x algebra.Expr) algebra.Expr {
		for _, s := range sides {
			if s.isKey(x) {
				return algebra.V(s.scan.PKVar)
			}
		}
		return x
	})
	for _, v := range algebra.UsedVars(e, nil) {
		if sides[0].other[v] || sides[1].other[v] {
			return e, false
		}
	}
	return e, true
}

// ridPairOps renders the comparisons the prefix join condition accepts.
var ridPairOps = map[string]string{"eq": "=", "neq": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

// ridPairPredicate renders a join conjunct that compares the two
// primary keys as the prefix join's condition reads it, over $lid and
// $rpair.rid.
func ridPairPredicate(c algebra.Expr, sides [2]keySide) (string, bool) {
	call, ok := c.(algebra.Call)
	if !ok || len(call.Args) != 2 || ridPairOps[call.Fn] == "" {
		return "", false
	}
	names := [2]string{"$lid", "$rpair.rid"}
	var args [2]string
	seen := [2]bool{}
	for i, a := range call.Args {
		for k, s := range sides {
			if s.isKey(a) && !seen[k] {
				args[i], seen[k] = names[k], true
				break
			}
		}
	}
	if !seen[0] || !seen[1] {
		return "", false
	}
	return args[0] + " " + ridPairOps[call.Fn] + " " + args[1], true
}

// keysOnlyAbove reports whether the plan outside join's subtree, and the
// conjuncts rest that will sit above it, read nothing of the join's
// output but the two primary keys — then the rid pairs are all stage 3
// would hand on — and if so rewrites those reads into the key
// variables.
func keysOnlyAbove(root, join *algebra.Op, sides [2]keySide, rest []algebra.Expr) bool {
	below := map[*algebra.Op]bool{}
	algebra.Walk(join, func(op *algebra.Op) { below[op] = true })
	var slots []*algebra.Expr
	for i := range rest {
		slots = append(slots, &rest[i])
	}
	ok := true
	algebra.Walk(root, func(op *algebra.Op) {
		if below[op] {
			return
		}
		slots = append(slots, op.ExprSlots()...)
		for _, v := range op.ListedVars() {
			ok = ok && !sides[0].other[v] && !sides[1].other[v]
		}
	})
	rewritten := make([]algebra.Expr, len(slots))
	for i, p := range slots {
		var keys bool
		rewritten[i], keys = keysOnly(*p, sides)
		ok = ok && keys
	}
	if ok {
		for i, p := range slots {
			*p = rewritten[i]
		}
	}
	return ok
}

// instantiateThreeStage runs the AQL+ two-step rewrite.
func (o *Optimizer) instantiateThreeStage(root, join, left, right *algebra.Op, lArg, rArg algebra.Expr, sc simCond, conjs []algebra.Expr, lPK, rPK algebra.Var) (*algebra.Op, error) {
	th := strconv.FormatFloat(sc.Threshold, 'g', -1, 64)

	tr := &aqlp.Translator{
		Catalog:  o.Catalog,
		Alloc:    o.Alloc,
		Meta:     map[string]aqlp.MetaBinding{},
		MetaVars: map[string]algebra.Var{},
	}

	// With one token source the bare side is the template's right side,
	// whose prefix tuples the memo keeps. The pairs, and every variable
	// the plan above reads, are the same either way round.
	ts, single := o.singleTokenSource(left, right, lArg, rArg)
	if single && ts.bareLeft {
		left, right, lArg, rArg, lPK, rPK = right, left, rArg, lArg, rPK, lPK
	}

	// Stage-1 bindings (fresh copies): the bare scan alone when one
	// input is a bare scan the other filters, else both inputs.
	stage1Src := stage1SingleTemplate
	if single {
		l1, l1rec, _, l1toks := o.tokensBranch(right, rArg, ts.scan.PKVar)
		tr.Meta["LEFT_1"] = aqlp.MetaBinding{Plan: l1, RecVar: l1rec}
		tr.MetaVars["LEFTTOKS_1"] = l1toks
	} else {
		l1, l1rec, _, l1toks := o.tokensBranch(left, lArg, lPK)
		r1, r1rec, _, r1toks := o.tokensBranch(right, rArg, rPK)
		tr.Meta["LEFT_1"] = aqlp.MetaBinding{Plan: l1, RecVar: l1rec}
		tr.MetaVars["LEFTTOKS_1"] = l1toks
		tr.Meta["RIGHT_1"] = aqlp.MetaBinding{Plan: r1, RecVar: r1rec}
		tr.MetaVars["RIGHTTOKS_1"] = r1toks
		stage1Src = stage1UnionTemplate
	}

	// Translate stage 1 and rank it; both stage-2 sides share the node.
	s1q, err := aqlp.Parse(strings.ReplaceAll(stage1Src, "@THRESHOLD@", th))
	if err != nil {
		return nil, fmt.Errorf("aql+: stage-1 template: %w", err)
	}
	s1plan, s1ret, err := tr.TranslateBranch(s1q.Body)
	if err != nil {
		return nil, fmt.Errorf("aql+: stage-1 translation: %w", err)
	}
	rank := algebra.NewOp(algebra.OpRank, s1plan)
	rank.PosVar = o.Alloc.New()
	ranked := rank
	if single {
		ranked = newMemo(rank, "order", ts, []algebra.Var{s1ret, rank.PosVar})
	}
	tr.Meta["RANKEDL"] = aqlp.MetaBinding{Plan: ranked, RecVar: s1ret}
	tr.MetaVars["RANKL"] = rank.PosVar
	tr.Meta["RANKEDR"] = aqlp.MetaBinding{Plan: ranked, RecVar: s1ret}
	tr.MetaVars["RANKR"] = rank.PosVar

	// Stage-2 bindings (fresh copies) and stage-3 bindings (originals).
	l2, l2rec, l2pk, l2toks := o.tokensBranch(left, lArg, lPK)
	r2, r2rec, r2pk, r2toks := o.tokensBranch(right, rArg, rPK)
	tr.Meta["LEFT_2"] = aqlp.MetaBinding{Plan: l2, RecVar: l2rec}
	tr.Meta["RIGHT_2"] = aqlp.MetaBinding{Plan: r2, RecVar: r2rec}
	tr.MetaVars["LEFTPK_2"], tr.MetaVars["RIGHTPK_2"] = l2pk, r2pk
	tr.MetaVars["LEFTTOKS_2"], tr.MetaVars["RIGHTTOKS_2"] = l2toks, r2toks

	tr.Meta["LEFT_3"] = aqlp.MetaBinding{Plan: left, RecVar: 0}
	tr.Meta["RIGHT_3"] = aqlp.MetaBinding{Plan: right, RecVar: 0}
	tr.MetaVars["LEFTPK_3"], tr.MetaVars["RIGHTPK_3"] = lPK, rPK

	// The other join conjuncts: those comparing the two primary keys
	// filter the candidate pairs of stage 2, the rest go into a select
	// above the fragment, over the original input variables.
	var rest []algebra.Expr
	var on []string
	ls, lok := o.keySideOf(left, lPK)
	rs, rok := o.keySideOf(right, rPK)
	sides, keyed := [2]keySide{ls, rs}, lok && rok
	for i, c := range conjs {
		if i == sc.OrigIdx {
			continue
		}
		if w, ok := ridPairPredicate(c, sides); keyed && ok {
			on = append(on, " and "+w)
			continue
		}
		rest = append(rest, c)
	}
	ridSrc := strings.ReplaceAll(ridPairTemplate, "@THRESHOLD@", th)
	ridSrc = strings.Replace(ridSrc, "@RIDPAIR_ON@", strings.Join(on, ""), 1)

	// Stage 3 re-reads both inputs for what the plan above reads of them;
	// when that is their primary keys alone, the rid pairs are the keys.
	var frag *algebra.Op
	if keyed && keysOnlyAbove(root, join, sides, rest) {
		q, err := aqlp.Parse(ridSrc)
		if err != nil {
			return nil, fmt.Errorf("aql+: rid-pair template: %w", err)
		}
		pairs, pair, err := tr.TranslateBranch(q.Body)
		if err != nil {
			return nil, fmt.Errorf("aql+: template translation: %w", err)
		}
		frag = algebra.NewOp(algebra.OpAssign, pairs)
		frag.AssignVars = []algebra.Var{lPK, rPK}
		frag.AssignExprs = []algebra.Expr{
			algebra.F("field-access", algebra.V(pair), algebra.CStr("l")),
			algebra.F("field-access", algebra.V(pair), algebra.CStr("r")),
		}
	} else {
		// The rid-pair conjuncts are stage 2's; stage 3 joins on the
		// keys they compare, so they hold of its output too.
		q, err := aqlp.Parse(fmt.Sprintf(stage3Template, ridSrc))
		if err != nil {
			return nil, fmt.Errorf("aql+: three-stage template: %w", err)
		}
		fl, ok := q.Body.(aqlp.FLWORNode)
		if !ok {
			return nil, fmt.Errorf("aql+: template body is %T", q.Body)
		}
		if frag, err = tr.TranslateFragment(fl); err != nil {
			return nil, fmt.Errorf("aql+: template translation: %w", err)
		}
	}
	if single {
		if err := memoPrefixSide(o, frag, r2pk, ts, th); err != nil {
			return nil, err
		}
	}
	if len(rest) == 0 {
		return frag, nil
	}
	sel := algebra.NewOp(algebra.OpSelect, frag)
	sel.Cond = algebra.AndAll(rest)
	return sel, nil
}
