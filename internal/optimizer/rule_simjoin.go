package optimizer

import (
	"fmt"
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
// Figure 16 describes.

// threeStageTemplate is the AQL+ fragment for the general (two-input)
// case. Stage 1 (the shared ##RANKED clause) is registered separately so
// both stage-2 sides share one global token order. The trailing clauses
// are stage 3: re-joining rid pairs with the original inputs.
const threeStageTemplate = `
for $ridpair in (
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
    ) on $ptl = $rpair.pt
    let $sim := similarity-jaccard-check($ltokens, $rpair.rtokens, @THRESHOLD@)
    where not(is-null($sim))
    group by $idl := $lid, $idr := $rpair.rid with $sim
    return { 'l': $idl, 'r': $idr }
)
for $ll in ##LEFT_3
for $rr in ##RIGHT_3
where $ridpair.l = $$LEFTPK_3 and $ridpair.r = $$RIGHTPK_3
`

// stage1UnionTemplate builds the global token order from both inputs
// (general joins); stage1SingleTemplate reads one input (self joins).
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
			sc, ok := parseSimCond(conj)
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
				if field, ok := indexedArg(rArg, innerScan.RecVar, "jaccard"); ok {
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
			newOp, err := o.instantiateThreeStage(op, left2, right2, lArg, rArg, sc, conjs, lPK, rPK)
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
		if op.Kind == algebra.OpScan || op.Kind == algebra.OpPrimaryLookup {
			if live[op.PKVar] {
				pks = append(pks, op.PKVar)
			}
		}
		if op.Kind == algebra.OpUnion {
			// A union re-defines variables; PKs below it may not
			// uniquely identify rows. Conservatively include its
			// out-vars if they carry a PK... they do not in general,
			// so rely on the scan/lookup vars above.
			_ = op
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

// isSelfJoin reports whether both inputs are plain scans of the same
// dataset (the common case of the paper's experiments), enabling the
// single-source stage-1 template.
func isSelfJoin(l, r *algebra.Op) bool {
	return l.Kind == algebra.OpScan && r.Kind == algebra.OpScan &&
		l.Dataverse == r.Dataverse && l.Dataset == r.Dataset
}

// instantiateThreeStage runs the AQL+ two-step rewrite.
func (o *Optimizer) instantiateThreeStage(join, left, right *algebra.Op, lArg, rArg algebra.Expr, sc simCond, conjs []algebra.Expr, lPK, rPK algebra.Var) (*algebra.Op, error) {
	th := strconv.FormatFloat(sc.Threshold, 'g', -1, 64)

	tr := &aqlp.Translator{
		Catalog:  o.Catalog,
		Alloc:    o.Alloc,
		Meta:     map[string]aqlp.MetaBinding{},
		MetaVars: map[string]algebra.Var{},
	}

	// Stage-1 bindings (fresh copies).
	l1, l1rec, _, l1toks := o.tokensBranch(left, lArg, lPK)
	tr.Meta["LEFT_1"] = aqlp.MetaBinding{Plan: l1, RecVar: l1rec}
	tr.MetaVars["LEFTTOKS_1"] = l1toks
	stage1Src := stage1SingleTemplate
	if !isSelfJoin(left, right) {
		r1, r1rec, _, r1toks := o.tokensBranch(right, rArg, rPK)
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
	tr.Meta["RANKEDL"] = aqlp.MetaBinding{Plan: rank, RecVar: s1ret}
	tr.MetaVars["RANKL"] = rank.PosVar
	tr.Meta["RANKEDR"] = aqlp.MetaBinding{Plan: rank, RecVar: s1ret}
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

	src := strings.ReplaceAll(threeStageTemplate, "@THRESHOLD@", th)
	q, err := aqlp.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("aql+: three-stage template: %w", err)
	}
	fl, ok := q.Body.(aqlp.FLWORNode)
	if !ok {
		return nil, fmt.Errorf("aql+: template body is %T", q.Body)
	}
	frag, err := tr.TranslateFragment(fl)
	if err != nil {
		return nil, fmt.Errorf("aql+: template translation: %w", err)
	}

	// Any extra join conjuncts (beyond the similarity predicate) go into
	// a Select above the fragment, over the original input variables.
	var rest []algebra.Expr
	for i, c := range conjs {
		if i != sc.OrigIdx {
			rest = append(rest, c)
		}
	}
	if len(rest) == 0 {
		return frag, nil
	}
	sel := algebra.NewOp(algebra.OpSelect, frag)
	sel.Cond = algebra.AndAll(rest)
	return sel, nil
}
