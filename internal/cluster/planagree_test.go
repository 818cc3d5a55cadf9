package cluster

import (
	"fmt"
	"strings"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/datagen"
	"simdb/internal/optimizer"
	"simdb/internal/sim"
	"simdb/internal/tokenizer"
)

// loadSynthetic populates a dataset from the datagen generators and
// returns the records it inserted.
func loadSynthetic(t *testing.T, c *Cluster, sess *Session, name string, kind datagen.Kind, n int) []adm.Value {
	t.Helper()
	exec(t, c, sess, fmt.Sprintf(`create dataset %s primary key id;`, name))
	var recs []adm.Value
	err := datagen.Generate(kind, n, datagen.Options{Seed: 33}, func(v adm.Value) error {
		recs = append(recs, v)
		return c.Insert("Default", name, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestJoinPlansAgreeOnSyntheticData is the paper's core correctness
// invariant at a non-trivial scale: the nested-loop join, the
// three-stage similarity join, and the index-nested-loop join (both
// with and without the surrogate optimization) must return identical
// answers on realistic Zipf-skewed data with duplicate tokens.
func TestJoinPlansAgreeOnSyntheticData(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	loadSynthetic(t, c, sess, "ARevs", datagen.Amazon, 600)
	query := `
		set simfunction 'jaccard';
		set simthreshold '0.8';
		for $a in dataset ARevs
		for $b in dataset ARevs
		where word-tokens($a.summary) ~= word-tokens($b.summary) and $a.id < $b.id
		return { 'l': $a.id, 'r': $b.id }
	`
	plans := map[string]*Session{
		"nested-loop": sessionOpts(func(o *optimizer.Options) {
			o.UseIndexes, o.UseThreeStageJoin, o.ReuseSubplans = false, false, false
		}),
		"three-stage": sessionOpts(func(o *optimizer.Options) { o.UseIndexes = false }),
	}
	results := map[string]int{}
	var reference string
	for name, s := range plans {
		res := exec(t, c, s, query)
		results[name] = len(res.Rows)
		key := pairKey(res)
		if reference == "" {
			reference = key
		} else if key != reference {
			t.Errorf("%s differs from reference", name)
		}
	}
	// Now with the keyword index: plain INLJ and surrogate INLJ.
	exec(t, c, sess, `create index agx on ARevs(summary) type keyword;`)
	plans = map[string]*Session{
		"inlj-surrogate": sessionOpts(nil),
		"inlj-plain":     sessionOpts(func(o *optimizer.Options) { o.SurrogateINLJ = false }),
	}
	for name, s := range plans {
		res := exec(t, c, s, query)
		results[name] = len(res.Rows)
		if pairKey(res) != reference {
			t.Errorf("%s differs from reference (%d rows vs %d)", name, len(res.Rows), results["nested-loop"])
		}
	}
	if results["nested-loop"] == 0 {
		t.Error("workload produced no similar pairs; test is vacuous")
	}
	t.Logf("all four join plans agree: %d pairs", results["nested-loop"])
}

// TestEditDistanceJoinPlansAgreeOnSyntheticData does the same for
// edit-distance joins, exercising the runtime corner-case path with
// typo-injected names.
func TestEditDistanceJoinPlansAgreeOnSyntheticData(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	loadSynthetic(t, c, sess, "ARevs", datagen.Amazon, 400)
	query := `
		set simfunction 'edit-distance';
		set simthreshold '2';
		for $a in dataset ARevs
		for $b in dataset ARevs
		where $a.id < 40 and $a.reviewerName ~= $b.reviewerName and $a.id < $b.id
		return { 'l': $a.id, 'r': $b.id }
	`
	noIdx := sessionOpts(func(o *optimizer.Options) { o.UseIndexes = false })
	ref := exec(t, c, noIdx, query)
	exec(t, c, sess, `create index agn on ARevs(reviewerName) type ngram(2);`)
	idx := exec(t, c, sessionOpts(nil), query)
	if pairKey(ref) != pairKey(idx) {
		t.Errorf("ED index join differs: %d vs %d rows", len(idx.Rows), len(ref.Rows))
	}
	if len(ref.Rows) == 0 {
		t.Error("no ED-similar pairs; test is vacuous")
	}
	t.Logf("ED join plans agree: %d pairs", len(ref.Rows))
}

// TestSelectionPlansAgreeOnSyntheticData checks scan vs index selection
// across thresholds on skewed data.
func TestSelectionPlansAgreeOnSyntheticData(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	loadSynthetic(t, c, sess, "ARevs", datagen.Amazon, 500)
	queries := []string{}
	for _, th := range []string{"0.2", "0.5", "0.8"} {
		queries = append(queries, fmt.Sprintf(`
			for $r in dataset ARevs
			where similarity-jaccard(word-tokens($r.summary), word-tokens('the great product of love')) >= %s
			return $r.id`, th))
	}
	for _, k := range []string{"1", "2", "3"} {
		queries = append(queries, fmt.Sprintf(`
			for $r in dataset ARevs
			where edit-distance($r.reviewerName, 'Mogo Bani') <= %s
			return $r.id`, k))
	}
	noIdx := sessionOpts(func(o *optimizer.Options) { o.UseIndexes = false })
	var refs []string
	for _, q := range queries {
		refs = append(refs, fmt.Sprint(rowInts(t, exec(t, c, noIdx, q).Rows)))
	}
	exec(t, c, sess, `create index sgx on ARevs(summary) type keyword;`)
	exec(t, c, sess, `create index sgn on ARevs(reviewerName) type ngram(2);`)
	for i, q := range queries {
		got := fmt.Sprint(rowInts(t, exec(t, c, sessionOpts(nil), q).Rows))
		if got != refs[i] {
			t.Errorf("query %d: index path %s != scan path %s", i, got, refs[i])
		}
	}
}

// loadWide populates dataset Wide with Amazon-shaped records made wide:
// a long reviewText, seventy filler fields — more than a columnar row
// group keeps as columns, so the rarest fields live in the group's
// overflow block — and, on every ninth record only, a nested open field
// extra.tag, which is therefore one of those. The last few records are
// inserted after the flush and stay in the memtable. It returns the
// first record's reviewerName, a constant edit-distance selections find
// typo variants of.
func loadWide(t *testing.T, c *Cluster, sess *Session, n int) (name string) {
	t.Helper()
	exec(t, c, sess, `create dataset Wide primary key id;`)
	i := 0
	err := datagen.Generate(datagen.Amazon, n, datagen.Options{Seed: 33}, func(v adm.Value) error {
		rec := v.Rec()
		if i == 0 {
			nm, _ := rec.Get("reviewerName")
			name = nm.Str()
		}
		rec.Set("reviewText", adm.NewString(strings.Repeat("lorem ipsum dolor sit amet ", 12)))
		for f := 0; f < 70; f++ {
			rec.Set(fmt.Sprintf("f%02d", f), adm.NewInt(int64(f)))
		}
		if i%9 == 0 {
			extra := adm.EmptyRecord(2)
			extra.Set("tag", adm.NewString(fmt.Sprintf("tag-%d", i)))
			extra.Set("n", adm.NewInt(int64(i)))
			rec.Set("extra", adm.NewRecord(extra))
		}
		if i == n-5 {
			if err := c.FlushAll(); err != nil {
				return err
			}
		}
		i++
		return c.Insert("Default", "Wide", v)
	})
	if err != nil {
		t.Fatal(err)
	}
	return name
}

// TestProjectedLookupPlansAgree checks index plan ≡ scan plan on wide
// records with the primary lookup projected: the CANON selections
// (three fields kept out of eighty), a selection whose returned field
// lives in the columnar overflow block, and a `return $r` query, for
// which the lookup must keep fetching whole records. Each index plan is
// also compared with itself under ProjectionPushdown off. Last, a
// self-join that reads Wide through one reused scan: the projection
// reaches the scan through the aliases of its branches, and the pairs
// agree with the unprojected and the unshared plans.
func TestProjectedLookupPlansAgree(t *testing.T) {
	const jaccard = `for $r in dataset Wide
		where similarity-jaccard(word-tokens($r.summary), word-tokens('the great product of love')) >= 0.2`
	const canonRet = ` return {'id': $r.id, 'summary': $r.summary, 'reviewerName': $r.reviewerName}`
	type query struct {
		name, q string
		project string // the lookup's annotation; "" = none (whole records)
	}
	const selfJoin = `for $a in dataset Wide for $b in dataset Wide
		where similarity-jaccard(word-tokens($a.summary), word-tokens($b.summary)) >= 0.8 and $a.id < $b.id
		return {'a': $a.id, 'b': $b.id, 'name': $b.reviewerName}`
	// Primary components have one layout; the subtest names it.
	t.Run("columnar", func(t *testing.T) {
		c := newTestCluster(t, 2, 1)
		name := loadWide(t, c, NewSession(), 400)
		queries := []query{
			{"canon-jaccard", jaccard + canonRet, "project:[id, reviewerName, summary]"},
			{"canon-edit-distance", fmt.Sprintf(`for $r in dataset Wide where edit-distance($r.reviewerName, '%s') <= 2`, name) + canonRet,
				"project:[id, reviewerName, summary]"},
			{"overflow-field", jaccard + ` return {'id': $r.id, 'tag': $r.extra.tag}`, "project:[extra, id, summary]"},
			{"whole-record", jaccard + ` return $r`, ""},
		}
		exec(t, c, NewSession(), `create index wkw on Wide(summary) type keyword;`)
		exec(t, c, NewSession(), `create index wng on Wide(reviewerName) type ngram(2);`)
		scan := sessionOpts(func(o *optimizer.Options) { o.UseIndexes = false })
		noProj := sessionOpts(func(o *optimizer.Options) { o.ProjectionPushdown = false })
		for _, q := range queries {
			want := exec(t, c, scan, q.q)
			if len(want.Rows) == 0 || want.Stats.IndexSearches != 0 {
				t.Fatalf("%s: scan reference has %d rows, %d index searches", q.name, len(want.Rows), want.Stats.IndexSearches)
			}
			got := exec(t, c, sessionOpts(nil), q.q)
			if got.Stats.IndexSearches == 0 {
				t.Errorf("%s: did not use the index:\n%s", q.name, got.Stats.LogicalPlan)
			}
			lookup := planLine(got.Stats.LogicalPlan, "primary-index-lookup")
			if q.project == "" && strings.Contains(lookup, "project:[") {
				t.Errorf("%s: whole-record lookup got a projection: %s", q.name, lookup)
			}
			if q.project != "" && !strings.Contains(lookup, q.project+" filter:[") {
				t.Errorf("%s: lookup is %q, want %q and a filter", q.name, lookup, q.project)
			}
			if resultKey(got) != resultKey(want) {
				t.Errorf("%s: index plan with projected lookup differs from the scan plan (%d vs %d rows)",
					q.name, len(got.Rows), len(want.Rows))
			}
			if wide := exec(t, c, noProj, q.q); resultKey(wide) != resultKey(want) {
				t.Errorf("%s: index plan without pushdown differs from the scan plan", q.name)
			}
		}
		// The whole-record rows really are whole, and the overflow field
		// came back from the records that have it.
		whole := exec(t, c, sessionOpts(nil), queries[3].q)
		for _, r := range whole.Rows {
			if _, ok := r.Rec().Get("reviewText"); !ok || r.Rec().Len() < 78 {
				t.Fatalf("whole-record lookup returned a partial record with %d fields", r.Rec().Len())
			}
		}
		tags := 0
		for _, r := range exec(t, c, sessionOpts(nil), queries[2].q).Rows {
			if tag, ok := r.Rec().Get("tag"); ok && tag.Kind() == adm.KindString {
				tags++
			}
		}
		if tags == 0 {
			t.Error("no row carried extra.tag; the overflow case is vacuous")
		}

		reused := exec(t, c, scan, selfJoin)
		plan := reused.Stats.LogicalPlan
		if got := planLine(plan, "data-scan"); !strings.Contains(plan, "^shared(") || !strings.HasSuffix(got, " project:[id, reviewerName, summary]") {
			t.Errorf("self-join: want one shared scan projected to three fields, scan is %q in:\n%s", got, plan)
		}
		if len(reused.Rows) == 0 {
			t.Error("self-join found no pairs; the reused-scan case is vacuous")
		}
		for what, mod := range map[string]func(*optimizer.Options){
			"without pushdown": func(o *optimizer.Options) { o.UseIndexes, o.ProjectionPushdown = false, false },
			"without reuse":    func(o *optimizer.Options) { o.UseIndexes, o.ReuseSubplans = false, false },
		} {
			if other := exec(t, c, sessionOpts(mod), selfJoin); resultKey(other) != resultKey(reused) {
				t.Errorf("self-join %s differs from the projected reused scan (%d vs %d rows)", what, len(other.Rows), len(reused.Rows))
			}
		}
	})
}

// planLine returns the first line of plan naming op, trimmed.
func planLine(plan, op string) string {
	for _, line := range strings.Split(plan, "\n") {
		if strings.Contains(line, " "+op+" ") {
			return strings.TrimSpace(line)
		}
	}
	return ""
}

// TestExplainShowsLookupProjection pins the explain text of the CANON
// index selection: the projection annotation sits on the primary-index
// lookup, naming the three fields the plan reads from the record, and
// the filter annotation restates the select's similarity conjunct.
func TestExplainShowsLookupProjection(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadSynthetic(t, c, sess, "ARevs", datagen.Amazon, 200)
	exec(t, c, sess, `create index xkw on ARevs(summary) type keyword;`)
	got := rowsText(exec(t, c, sess, `explain for $r in dataset ARevs
		where similarity-jaccard(word-tokens($r.summary), word-tokens('the great product of love')) >= 0.5
		return {'id': $r.id, 'summary': $r.summary, 'reviewerName': $r.reviewerName}`))
	const golden = `#0 distribute-result $3
  #1 assign $3 := record("id", field-access($2, "id"), "summary", field-access($2, "summary"), "reviewerName", field-access($2, "reviewerName"))
    #2 select (ge(similarity-jaccard(word-tokens(field-access($2, "summary")), ["the", "great", "product", "of", "love"]), 0.5))
      #3 primary-index-lookup Default.ARevs pk=$4 -> $1,$2 project:[id, reviewerName, summary] filter:[similarity-jaccard(word-tokens(summary), ["the", "great", "product", "of", "love"]) >= 0.5]
        #4 order $4 asc
          #5 secondary-index-search Default.ARevs.xkw keys=["the#1", "great#1", "product#1", "of#1", "love#1"] T=3 -> $4
            #6 empty-tuple-source
`
	if strings.TrimRight(got, "\n") != strings.TrimRight(golden, "\n") {
		t.Errorf("explain:\n%s\nwant:\n%s", got, golden)
	}
}

// TestEngineAgreesWithNaiveReference checks the engine's answers
// against a reference computed right here from the generated records
// with internal/sim and internal/tokenizer — nested loops, no
// optimizer, no index, no evaluator. Two index-backed selections and a
// Jaccard 0.8 self-join; TestComprehensionShapesAgreeWithNaiveReference
// does the same for comprehensions.
func TestEngineAgreesWithNaiveReference(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	recs := loadSynthetic(t, c, sess, "ARevs", datagen.Amazon, 400)
	exec(t, c, sess, `create index spx on ARevs(summary) type keyword;`)

	type row struct {
		id      int64
		name    string
		summary []string
	}
	rows := make([]row, len(recs))
	for i, r := range recs {
		id, _ := r.Rec().Get("id")
		name, _ := r.Rec().Get("reviewerName")
		summary, _ := r.Rec().Get("summary")
		rows[i] = row{id.Int(), name.Str(), tokenizer.WordTokens(summary.Str())}
	}
	selectIDs := func(keep func(row) bool) []int64 {
		var ids []int64
		for _, r := range rows {
			if keep(r) {
				ids = append(ids, r.id)
			}
		}
		return ids
	}

	query := tokenizer.WordTokens("the great product of love")
	// The edit-distance constant is a name from the data, so the typo
	// variants the generator injected are what the selection finds.
	name := rows[0].name
	selections := []struct {
		name, q string
		keep    func(row) bool
	}{
		{"jaccard", `for $r in dataset ARevs
			 where similarity-jaccard(word-tokens($r.summary), word-tokens('the great product of love')) >= 0.5
			 return $r.id`,
			func(r row) bool { return sim.Jaccard(r.summary, query) >= 0.5 }},
		{"edit-distance", fmt.Sprintf(`for $r in dataset ARevs
			 where edit-distance($r.reviewerName, '%s') <= 2
			 return $r.id`, name),
			func(r row) bool { return sim.EditDistance(r.name, name) <= 2 }},
	}
	for _, sel := range selections {
		res := exec(t, c, NewSession(), sel.q)
		want := selectIDs(sel.keep)
		if len(want) == 0 {
			t.Errorf("%s: reference is empty; test is vacuous", sel.name)
		}
		if got := rowInts(t, res.Rows); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: engine %v != reference %v", sel.name, got, want)
		}
	}

	join := exec(t, c, NewSession(), `
		set simfunction 'jaccard';
		set simthreshold '0.8';
		for $a in dataset ARevs
		for $b in dataset ARevs
		where word-tokens($a.summary) ~= word-tokens($b.summary) and $a.id < $b.id
		return { 'l': $a.id, 'r': $b.id }
	`)
	var want []string
	for _, a := range rows {
		for _, b := range rows {
			if a.id < b.id && sim.Jaccard(a.summary, b.summary) >= 0.8 {
				want = append(want, fmt.Sprintf("%d-%d", a.id, b.id))
			}
		}
	}
	if len(want) == 0 {
		t.Error("join reference is empty; test is vacuous")
	}
	sortStrings(want)
	if got := pairKey(join); got != fmt.Sprint(want) {
		t.Errorf("join: engine has %d pairs, reference %d", len(join.Rows), len(want))
	}
}

func sessionOpts(mod func(*optimizer.Options)) *Session {
	s := NewSession()
	opts := optimizer.DefaultOptions()
	if mod != nil {
		mod(&opts)
	}
	s.Opts = &opts
	return s
}

func pairKey(res *Result) string {
	keys := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		l, _ := r.Rec().Get("l")
		rr, _ := r.Rec().Get("r")
		keys = append(keys, fmt.Sprintf("%d-%d", l.Int(), rr.Int()))
	}
	sortStrings(keys)
	return fmt.Sprint(keys)
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestContainsSelectionUsesNgramIndex checks the contains() row of the
// paper's Figure 13 compatibility table: substring selections probe the
// n-gram index and agree with the scan plan.
func TestContainsSelectionUsesNgramIndex(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadSynthetic(t, c, sess, "ARevs", datagen.Amazon, 300)
	query := `
		for $r in dataset ARevs
		where contains($r.summary, 'produc')
		return $r.id
	`
	noIdx := sessionOpts(func(o *optimizer.Options) { o.UseIndexes = false })
	ref := exec(t, c, noIdx, query)
	exec(t, c, sess, `create index cgx on ARevs(summary) type ngram(2);`)
	idx := exec(t, c, sessionOpts(nil), query)
	if fmt.Sprint(rowInts(t, ref.Rows)) != fmt.Sprint(rowInts(t, idx.Rows)) {
		t.Errorf("contains(): index %v != scan %v", rowInts(t, idx.Rows), rowInts(t, ref.Rows))
	}
	if len(ref.Rows) == 0 {
		t.Error("no substring matches; test vacuous")
	}
	if idx.Stats.IndexSearches == 0 {
		t.Errorf("contains() did not use the n-gram index:\n%s", idx.Stats.LogicalPlan)
	}
	// Substring shorter than the gram length: corner case -> scan.
	short := exec(t, c, sessionOpts(nil), `
		for $r in dataset ARevs
		where contains($r.summary, 'p')
		return $r.id
	`)
	if short.Stats.IndexSearches != 0 {
		t.Error("sub-gram substring must not use the index")
	}
}

// TestMultiwayThreeStageJoin runs two Jaccard similarity joins in one
// query with no indexes at all: both must expand through the AQL+
// three-stage rewrite (the second over a composite-RID branch, the
// paper's Figure 18 multi-way case) and agree with nested-loop ground
// truth.
func TestMultiwayThreeStageJoin(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadSynthetic(t, c, sess, "A", datagen.Amazon, 150)
	loadSynthetic(t, c, sess, "B", datagen.Twitter, 150)
	query := `
		for $a in dataset A
		for $b in dataset A
		for $t in dataset B
		where similarity-jaccard(word-tokens($a.summary), word-tokens($b.summary)) >= 0.8
		  and $a.id < $b.id
		  and similarity-jaccard(word-tokens($b.summary), word-tokens($t.text)) >= 0.6
		return { 'l': $a.id, 'r': $t.id }
	`
	nl := sessionOpts(func(o *optimizer.Options) {
		o.UseIndexes, o.UseThreeStageJoin, o.ReuseSubplans = false, false, false
	})
	ref := exec(t, c, nl, query)
	three := sessionOpts(func(o *optimizer.Options) { o.UseIndexes = false })
	got := exec(t, c, three, query)
	// The plan must contain two Rank ops (one global token order per
	// similarity join).
	if n := countInPlan(got.Stats.LogicalPlan, "rank"); n < 2 {
		t.Errorf("expected >= 2 three-stage expansions, plan has %d rank ops", n)
	}
	if pairKey(ref) != pairKey(got) {
		t.Errorf("multi-way three-stage differs: %d rows vs %d", len(got.Rows), len(ref.Rows))
	}
	if len(ref.Rows) == 0 {
		t.Skip("workload produced no matches at these thresholds")
	}
	t.Logf("multi-way three-stage agrees with NL: %d rows", len(ref.Rows))
}

func countInPlan(plan, op string) int {
	n := 0
	for _, line := range strings.Split(plan, "\n") {
		if strings.Contains(line, " "+op) && !strings.Contains(line, "^shared") {
			n++
		}
	}
	return n
}

// TestJaccardJoinNonPositiveThreshold: with δ <= 0 every pair qualifies,
// sharing a token or not, so neither the T-occurrence search of an
// index-nested-loop join nor the prefix filter of the three-stage join
// may be used: both find only pairs that share a token. The join is a
// compile-time corner case (the nested-loop plan keeps the predicate),
// checked against a reference computed here, with indexes and the
// three-stage rewrite each on and off.
func TestJaccardJoinNonPositiveThreshold(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	recs := loadSynthetic(t, c, sess, "ARevs", datagen.Amazon, 60)
	exec(t, c, sess, `create index agx on ARevs(summary) type keyword;`)
	for _, delta := range []float64{0, -0.5} {
		var want []string
		disjoint := 0
		for _, a := range recs {
			for _, b := range recs {
				ai, _ := a.Rec().Get("id")
				bi, _ := b.Rec().Get("id")
				as, _ := a.Rec().Get("summary")
				bs, _ := b.Rec().Get("summary")
				j := sim.Jaccard(tokenizer.WordTokens(as.Str()), tokenizer.WordTokens(bs.Str()))
				if ai.Int() < bi.Int() && j >= delta {
					want = append(want, fmt.Sprintf("%d-%d", ai.Int(), bi.Int()))
					if j == 0 {
						disjoint++
					}
				}
			}
		}
		sortStrings(want)
		if disjoint == 0 {
			t.Fatal("no qualifying pair without a shared token; the test is vacuous")
		}
		// Through ~= and the session threshold, so that the negative δ
		// reaches the rules as a constant and not as neg(0.5).
		query := fmt.Sprintf(`
			set simfunction 'jaccard';
			set simthreshold '%v';
			for $a in dataset ARevs
			for $b in dataset ARevs
			where word-tokens($a.summary) ~= word-tokens($b.summary) and $a.id < $b.id
			return { 'l': $a.id, 'r': $b.id }`, delta)
		for _, useIndexes := range []bool{true, false} {
			for _, threeStage := range []bool{true, false} {
				s := sessionOpts(func(o *optimizer.Options) { o.UseIndexes, o.UseThreeStageJoin = useIndexes, threeStage })
				res := exec(t, c, s, query)
				if got := pairKey(res); got != fmt.Sprint(want) {
					t.Errorf("δ=%v indexes=%v three-stage=%v: %d pairs, want %d (%d of them share no token)",
						delta, useIndexes, threeStage, len(res.Rows), len(want), disjoint)
				}
				if (useIndexes || threeStage) && res.Stats.CornerCaseFallbacks == 0 {
					t.Errorf("δ=%v indexes=%v three-stage=%v: no compile-time corner case recorded", delta, useIndexes, threeStage)
				}
			}
		}
	}
}
