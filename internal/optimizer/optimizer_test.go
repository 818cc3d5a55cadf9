package optimizer

import (
	"strings"
	"testing"

	"simdb/internal/algebra"
	"simdb/internal/aqlp"
)

type testCatalog struct {
	datasets map[string]string      // name -> pk field
	indexes  map[string][]IndexMeta // name -> indexes
}

func (c *testCatalog) ResolveDataset(dv, name string) (string, bool) {
	pk, ok := c.datasets[name]
	return pk, ok
}

func (c *testCatalog) DatasetIndexes(dv, name string) []IndexMeta {
	return c.indexes[name]
}

func newTestCatalog() *testCatalog {
	return &testCatalog{
		datasets: map[string]string{"ARevs": "id", "Users": "uid"},
		indexes: map[string][]IndexMeta{
			"ARevs": {
				{Name: "smix", Field: "summary", Type: "keyword"},
				{Name: "nix", Field: "reviewerName", Type: "ngram", GramLen: 2},
			},
		},
	}
}

// compile parses, translates, and optimizes a query.
func compile(t *testing.T, cat Catalog, opts Options, src string) *algebra.Op {
	t.Helper()
	plan, err := compileErr(cat, opts, src)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func compileErr(cat Catalog, opts Options, src string) (*algebra.Op, error) {
	q, err := aqlp.Parse(src)
	if err != nil {
		return nil, err
	}
	alloc := &algebra.VarAlloc{}
	tr := &aqlp.Translator{Catalog: cat, Alloc: alloc, Funcs: map[string]aqlp.FuncDef{}}
	for _, s := range q.Stmts {
		if x, ok := s.(aqlp.SetStmt); ok {
			if x.Key == "simfunction" {
				tr.SimFunction = x.Val
			}
			if x.Key == "simthreshold" {
				tr.SimThreshold = x.Val
			}
		}
	}
	plan, err := tr.TranslateQuery(q.Body)
	if err != nil {
		return nil, err
	}
	o := &Optimizer{Catalog: cat, Alloc: alloc, Opts: opts}
	return o.Optimize(plan)
}

func TestIndexCompatibleTable(t *testing.T) {
	// Paper Figure 13.
	cases := []struct {
		fn, idx string
		want    bool
	}{
		{"edit-distance", "ngram", true},
		{"contains", "ngram", true},
		{"jaccard", "keyword", true},
		{"edit-distance", "keyword", false},
		{"jaccard", "ngram", false},
		{"jaccard", "btree", false},
	}
	for _, c := range cases {
		if got := IndexCompatible(c.fn, c.idx); got != c.want {
			t.Errorf("IndexCompatible(%s, %s) = %v", c.fn, c.idx, got)
		}
	}
}

func TestExtractJoinConditions(t *testing.T) {
	cat := newTestCatalog()
	plan := compile(t, cat, Options{}, `
		for $a in dataset ARevs
		for $b in dataset Users
		where $a.uid = $b.uid and $a.x > 1 and $b.y < 2
		return { 'a': $a.id }
	`)
	var join *algebra.Op
	algebra.Walk(plan, func(op *algebra.Op) {
		if op.Kind == algebra.OpJoin {
			join = op
		}
	})
	if join == nil {
		t.Fatal("no join")
	}
	// The equality is the hash join's key, and leaves nothing over.
	if len(join.JoinLeftKeys) != 1 || !(&Optimizer{}).isTrueConst(join.Cond) {
		t.Errorf("join keys %v, residual condition %v: want the extracted equality as the one key and no residual", join.JoinLeftKeys, join.Cond)
	}
	if join.Phys != algebra.JoinPhysHash {
		t.Errorf("join phys = %v, want hash", join.Phys)
	}
	// Single-side conjuncts must be pushed below the join.
	for _, in := range join.Inputs {
		foundSel := false
		algebra.Walk(in, func(op *algebra.Op) {
			if op.Kind == algebra.OpSelect {
				foundSel = true
			}
		})
		if !foundSel {
			t.Error("side conjunct not pushed below join")
		}
	}
}

func TestIndexSelectionJaccard(t *testing.T) {
	cat := newTestCatalog()
	plan := compile(t, cat, DefaultOptions(), `
		for $t in dataset ARevs
		where similarity-jaccard(word-tokens($t.summary), word-tokens('great product works fine')) >= 0.5
		return $t.id
	`)
	if algebra.CountKind(plan, algebra.OpSecondarySearch) != 1 {
		t.Fatalf("expected secondary search:\n%s", algebra.Print(plan))
	}
	if algebra.CountKind(plan, algebra.OpPrimaryLookup) != 1 {
		t.Error("expected primary lookup")
	}
	if algebra.CountKind(plan, algebra.OpScan) != 0 {
		t.Error("scan should be replaced")
	}
	// A verification select must remain.
	if algebra.CountKind(plan, algebra.OpSelect) == 0 {
		t.Error("false-positive select missing")
	}
}

func TestIndexSelectionDisabled(t *testing.T) {
	cat := newTestCatalog()
	plan := compile(t, cat, Options{}, `
		for $t in dataset ARevs
		where similarity-jaccard(word-tokens($t.summary), word-tokens('great product')) >= 0.5
		return $t.id
	`)
	if algebra.CountKind(plan, algebra.OpSecondarySearch) != 0 {
		t.Error("index rewrite should be disabled")
	}
	if algebra.CountKind(plan, algebra.OpScan) != 1 {
		t.Error("scan plan expected")
	}
}

func TestIndexSelectionEditDistance(t *testing.T) {
	cat := newTestCatalog()
	plan := compile(t, cat, DefaultOptions(), `
		for $t in dataset ARevs
		where edit-distance($t.reviewerName, 'johnson') <= 1
		return $t.id
	`)
	if algebra.CountKind(plan, algebra.OpSecondarySearch) != 1 {
		t.Fatalf("expected index plan:\n%s", algebra.Print(plan))
	}
}

func TestIndexSelectionEditDistanceCornerCase(t *testing.T) {
	cat := newTestCatalog()
	// "ab" with 2-grams padded has 3 grams; k=3 gives T = 3-6 <= 0:
	// the optimizer must keep the scan plan (compile-time corner case).
	plan := compile(t, cat, DefaultOptions(), `
		for $t in dataset ARevs
		where edit-distance($t.reviewerName, 'ab') <= 3
		return $t.id
	`)
	if algebra.CountKind(plan, algebra.OpSecondarySearch) != 0 {
		t.Errorf("corner case must not use the index:\n%s", algebra.Print(plan))
	}
	if algebra.CountKind(plan, algebra.OpScan) != 1 {
		t.Error("scan plan expected for corner case")
	}
}

func TestIndexSelectionNoMatchingIndex(t *testing.T) {
	cat := newTestCatalog()
	// Jaccard on reviewerName: only an ngram index exists there.
	plan := compile(t, cat, DefaultOptions(), `
		for $t in dataset ARevs
		where similarity-jaccard(word-tokens($t.reviewerName), word-tokens('foo bar')) >= 0.5
		return $t.id
	`)
	if algebra.CountKind(plan, algebra.OpSecondarySearch) != 0 {
		t.Error("incompatible index must not be used")
	}
}

func TestIndexJoinJaccardSurrogate(t *testing.T) {
	cat := newTestCatalog()
	plan := compile(t, cat, DefaultOptions(), `
		set simfunction 'jaccard';
		set simthreshold '0.8';
		for $o in dataset Users
		for $i in dataset ARevs
		where word-tokens($o.name) ~= word-tokens($i.summary)
		return { 'o': $o.uid, 'i': $i.id }
	`)
	if algebra.CountKind(plan, algebra.OpSecondarySearch) != 1 {
		t.Fatalf("expected index join:\n%s", algebra.Print(plan))
	}
	// Surrogate plan: a Project before the search and a top-level hash
	// join resolving surrogates.
	if algebra.CountKind(plan, algebra.OpProject) == 0 {
		t.Error("surrogate projection missing")
	}
	hashJoins := 0
	algebra.Walk(plan, func(op *algebra.Op) {
		if op.Kind == algebra.OpJoin && (op.Phys == algebra.JoinPhysHash || op.Phys == algebra.JoinPhysBroadcastHash) {
			hashJoins++
		}
	})
	if hashJoins == 0 {
		t.Error("surrogate-resolving hash join missing")
	}
}

func TestIndexJoinJaccardPlainINLJ(t *testing.T) {
	cat := newTestCatalog()
	opts := DefaultOptions()
	opts.SurrogateINLJ = false
	plan := compile(t, cat, opts, `
		set simfunction 'jaccard';
		set simthreshold '0.8';
		for $o in dataset Users
		for $i in dataset ARevs
		where word-tokens($o.name) ~= word-tokens($i.summary)
		return { 'o': $o.uid, 'i': $i.id }
	`)
	if algebra.CountKind(plan, algebra.OpSecondarySearch) != 1 {
		t.Fatalf("expected index join:\n%s", algebra.Print(plan))
	}
	if algebra.CountKind(plan, algebra.OpProject) != 0 {
		t.Error("plain INLJ should not project surrogates")
	}
}

func TestIndexJoinEditDistanceCornerPath(t *testing.T) {
	cat := newTestCatalog()
	plan := compile(t, cat, DefaultOptions(), `
		set simfunction 'edit-distance';
		set simthreshold '1';
		for $o in dataset Users
		for $i in dataset ARevs
		where $o.name ~= $i.reviewerName
		return { 'o': $o.uid, 'i': $i.id }
	`)
	// Figure 14: union of the index path and the corner-case NL path.
	if algebra.CountKind(plan, algebra.OpUnion) != 1 {
		t.Fatalf("corner-case union missing:\n%s", algebra.Print(plan))
	}
	if algebra.CountKind(plan, algebra.OpSecondarySearch) != 1 {
		t.Error("index path missing")
	}
	nlJoins := 0
	algebra.Walk(plan, func(op *algebra.Op) {
		if op.Kind == algebra.OpJoin && op.Phys == algebra.JoinPhysNestedLoop {
			nlJoins++
		}
	})
	if nlJoins != 1 {
		t.Errorf("corner-case NL join count = %d", nlJoins)
	}
	// The T-assign node must be shared by both selects (replicate).
	parents := parentsOf(plan)
	sharedFound := false
	for op, ps := range parents {
		if op.Kind == algebra.OpAssign && len(ps) > 1 {
			sharedFound = true
		}
	}
	if !sharedFound {
		t.Error("T-assign should be shared between the two paths")
	}
}

func TestThreeStageSimilarityJoin(t *testing.T) {
	cat := newTestCatalog()
	// Join on a field with NO keyword index -> three-stage plan. The
	// result reads a field besides the keys, so stage 3 stays.
	plan := compile(t, cat, DefaultOptions(), `
		set simfunction 'jaccard';
		set simthreshold '0.5';
		for $t1 in dataset ARevs
		for $t2 in dataset ARevs
		where word-tokens($t1.title) ~= word-tokens($t2.title)
		return { 'a': $t1.id, 'b': $t2.id, 't': $t2.title }
	`)
	if algebra.CountKind(plan, algebra.OpGroupBy) < 3 {
		t.Fatalf("three-stage plan should have >= 3 group-bys:\n%s", algebra.Print(plan))
	}
	if algebra.CountKind(plan, algebra.OpRank) != 1 {
		t.Error("global token order rank missing")
	}
	joins := algebra.CountKind(plan, algebra.OpJoin)
	if joins < 4 {
		t.Errorf("three-stage plan should have >= 4 joins, has %d", joins)
	}
	// Figure 15: the three-stage plan is an order of magnitude larger
	// than the nested-loop plan (77 vs 15 operators in the paper).
	n := algebra.CountOps(plan)
	if n < 30 {
		t.Errorf("plan has %d ops; expected a large three-stage plan", n)
	}
	// Self-join with subplan reuse: exactly one physical scan remains.
	if scans := algebra.CountKind(plan, algebra.OpScan); scans != 1 {
		t.Errorf("reuse rule should leave 1 scan, found %d", scans)
	}
}

// TestThreeStageKeyOnlyResultElidesStage3 is the AQL+ clean-up of a
// join whose result reads the two primary keys alone: the conjunct over
// the keys filters stage 2's candidate pairs, and stage 3's two joins
// back to the records are left out, the rid pairs assigned to the key
// variables the result reads.
func TestThreeStageKeyOnlyResultElidesStage3(t *testing.T) {
	cat := newTestCatalog()
	plan := compile(t, cat, DefaultOptions(), `
		for $t1 in dataset ARevs
		for $t2 in dataset ARevs
		where similarity-jaccard(word-tokens($t1.title), word-tokens($t2.title)) >= 0.5 and $t1.id < $t2.id
		return { 'a': $t1.id, 'b': $t2.id }
	`)
	text := algebra.Print(plan)
	if joins := algebra.CountKind(plan, algebra.OpJoin); joins != 3 {
		t.Errorf("%d joins, want the two rank joins and the prefix join:\n%s", joins, text)
	}
	var prefix *algebra.Op
	algebra.Walk(plan, func(op *algebra.Op) {
		if op.Kind == algebra.OpJoin && op.Phys == algebra.JoinPhysHash {
			prefix = op
		}
	})
	if prefix == nil || prefix.Inputs[1].Kind != algebra.OpMemo {
		t.Fatalf("the prefix join does not read the ranked memo directly:\n%s", text)
	}
	if c, ok := prefix.Cond.(algebra.Call); !ok || c.Fn != "lt" {
		t.Errorf("the prefix join's residual is %v, want the key comparison:\n%s", prefix.Cond, text)
	}
	if strings.Contains(text, `field-access($2, "id")`) || !strings.Contains(text, `field-access($`) {
		t.Errorf("the result still reads a record's key field:\n%s", text)
	}
}

func TestThreeStageDisabledFallsBackToNL(t *testing.T) {
	cat := newTestCatalog()
	opts := DefaultOptions()
	opts.UseThreeStageJoin = false
	opts.ReuseSubplans = false
	plan := compile(t, cat, opts, `
		set simfunction 'jaccard';
		set simthreshold '0.5';
		for $t1 in dataset ARevs
		for $t2 in dataset ARevs
		where word-tokens($t1.title) ~= word-tokens($t2.title)
		return { 'a': $t1.id, 'b': $t2.id }
	`)
	var join *algebra.Op
	algebra.Walk(plan, func(op *algebra.Op) {
		if op.Kind == algebra.OpJoin {
			join = op
		}
	})
	if join == nil || join.Phys != algebra.JoinPhysNestedLoop {
		t.Errorf("expected NL fallback:\n%s", algebra.Print(plan))
	}
}

func TestThreeStagePrefersIndexWhenAvailable(t *testing.T) {
	cat := newTestCatalog()
	// summary HAS a keyword index: INLJ must win over three-stage.
	plan := compile(t, cat, DefaultOptions(), `
		set simfunction 'jaccard';
		set simthreshold '0.5';
		for $t1 in dataset Users
		for $t2 in dataset ARevs
		where word-tokens($t1.name) ~= word-tokens($t2.summary)
		return { 'a': $t1.uid, 'b': $t2.id }
	`)
	if algebra.CountKind(plan, algebra.OpSecondarySearch) != 1 {
		t.Errorf("index join should win over three-stage:\n%s", algebra.Print(plan))
	}
	if algebra.CountKind(plan, algebra.OpRank) != 0 {
		t.Error("three-stage artifacts present")
	}
}

func TestListifyToScalarAgg(t *testing.T) {
	cat := newTestCatalog()
	plan := compile(t, cat, Options{}, `
		for $t in dataset ARevs
		for $tok in word-tokens($t.summary)
		group by $g := $tok with $t
		order by count($t)
		return $g
	`)
	var group *algebra.Op
	algebra.Walk(plan, func(op *algebra.Op) {
		if op.Kind == algebra.OpGroupBy {
			group = op
		}
	})
	if group == nil {
		t.Fatal("no group")
	}
	hasCount, hasListify := false, false
	for _, a := range group.Aggs {
		if a.Kind == algebra.AggCount {
			hasCount = true
		}
		if a.Kind == algebra.AggListify {
			hasListify = true
		}
	}
	if !hasCount {
		t.Error("count aggregate not pushed into group-by")
	}
	if hasListify {
		t.Errorf("unused listify not dropped:\n%s", algebra.Print(plan))
	}
}

func TestFig15OperatorCounts(t *testing.T) {
	cat := newTestCatalog()
	src := `
		set simfunction 'jaccard';
		set simthreshold '0.5';
		for $t1 in dataset ARevs
		for $t2 in dataset ARevs
		where word-tokens($t1.title) ~= word-tokens($t2.title)
		return { 'a': $t1.id, 'b': $t2.id }
	`
	opts := DefaultOptions()
	opts.UseThreeStageJoin = false
	opts.ReuseSubplans = false
	nl := compile(t, cat, opts, src)
	three := compile(t, cat, DefaultOptions(), src)
	nlOps, threeOps := algebra.CountOps(nl), algebra.CountOps(three)
	if threeOps <= 2*nlOps {
		t.Errorf("three-stage (%d ops) should dwarf nested-loop (%d ops)", threeOps, nlOps)
	}
	t.Logf("Figure 15 reproduction: nested-loop plan %d ops, three-stage plan %d ops", nlOps, threeOps)
}

func TestOptimizerTrace(t *testing.T) {
	cat := newTestCatalog()
	q, _ := aqlp.Parse(`for $t in dataset ARevs where $t.x = 1 return $t.id`)
	alloc := &algebra.VarAlloc{}
	tr := &aqlp.Translator{Catalog: cat, Alloc: alloc}
	plan, err := tr.TranslateQuery(q.Body)
	if err != nil {
		t.Fatal(err)
	}
	var trace []string
	o := &Optimizer{Catalog: cat, Alloc: alloc, Opts: DefaultOptions(), Trace: &trace}
	if _, err := o.Optimize(plan); err != nil {
		t.Fatal(err)
	}
	_ = strings.Join(trace, ",")
}

// TestSpecializationIsUnconditional pins that every plan gets the
// specialization pass, whatever the ablation switches say: the constant
// side of the predicate folds to a token list and the let's assign fuses
// into the select above it — which is what lets the source filter see
// through the let to the scan.
func TestSpecializationIsUnconditional(t *testing.T) {
	src := `
		for $t in dataset ARevs
		let $toks := word-tokens($t.summary)
		where similarity-jaccard($toks, word-tokens('great product')) >= 0.5
		return $t.id
	`
	for _, tc := range []struct {
		name string
		opts Options
	}{{"all off", Options{}}, {"defaults", DefaultOptions()}} {
		plan := algebra.Print(compile(t, newTestCatalog(), tc.opts, src))
		if strings.Contains(plan, `word-tokens("great product")`) || !strings.Contains(plan, `["great", "product"]`) {
			t.Errorf("%s: constant query side not folded:\n%s", tc.name, plan)
		}
		if !strings.Contains(plan, "[fused-assign $") {
			t.Errorf("%s: assign not fused into its select:\n%s", tc.name, plan)
		}
		if !strings.Contains(plan, `filter:[similarity-jaccard(word-tokens(summary), ["great", "product"]) >= 0.5]`) {
			t.Errorf("%s: scan carries no filter:\n%s", tc.name, plan)
		}
	}
}
