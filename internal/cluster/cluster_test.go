package cluster

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/optimizer"
)

func newTestCluster(t *testing.T, nodes, partsPerNode int) *Cluster {
	t.Helper()
	c, err := New(Config{NumNodes: nodes, PartitionsPerNode: partsPerNode, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func exec(t *testing.T, c *Cluster, sess *Session, src string) *Result {
	t.Helper()
	res, err := c.Execute(context.Background(), sess, src)
	if err != nil {
		t.Fatalf("Execute(%s): %v", src, err)
	}
	return res
}

func mustErr(t *testing.T, c *Cluster, sess *Session, src string) {
	t.Helper()
	if _, err := c.Execute(context.Background(), sess, src); err == nil {
		t.Fatalf("Execute(%s) should fail", src)
	}
}

// loadReviews populates a small review dataset with usernames and
// summaries modeled on the paper's Figure 1.
func loadReviews(t *testing.T, c *Cluster, sess *Session) {
	t.Helper()
	exec(t, c, sess, `create dataset Reviews primary key id;`)
	rows := []struct {
		id       int64
		username string
		summary  string
	}{
		{1, "james", "This movie touched my heart!"},
		{2, "mary", "The best car charger I ever bought"},
		{3, "mario", "Different than my usual but good"},
		{4, "jamie", "Great Product - Fantastic Gift"},
		{5, "maria", "Better ever than I expected"},
		{6, "marla", "Great product fantastic quality"},
		{7, "johnny", "Best product ever bought"},
		{8, "joanna", "Totally great product works fine"},
	}
	for _, r := range rows {
		rec := adm.EmptyRecord(3)
		rec.Set("id", adm.NewInt(r.id))
		rec.Set("username", adm.NewString(r.username))
		rec.Set("summary", adm.NewString(r.summary))
		if err := c.Insert("Default", "Reviews", adm.NewRecord(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

func rowInts(t *testing.T, rows []adm.Value) []int64 {
	t.Helper()
	var out []int64
	for _, r := range rows {
		out = append(out, r.Int())
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestExactMatchSelection(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	loadReviews(t, c, sess)
	res := exec(t, c, sess, `
		for $r in dataset Reviews
		where $r.username = 'maria'
		return $r.id
	`)
	if got := rowInts(t, res.Rows); fmt.Sprint(got) != "[5]" {
		t.Errorf("rows = %v", got)
	}
}

func TestEditDistanceSelectionScanVsIndex(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	loadReviews(t, c, sess)
	query := `
		for $r in dataset Reviews
		where edit-distance($r.username, 'marla') <= 1
		return $r.id
	`
	scanRes := exec(t, c, sess, query)
	// Build the 2-gram index, then re-run: identical answers via the
	// index path (the paper's correctness invariant).
	exec(t, c, sess, `create index nix on Reviews(username) type ngram(2);`)
	idxRes := exec(t, c, sess, query)
	want := rowInts(t, scanRes.Rows)
	got := rowInts(t, idxRes.Rows)
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Errorf("index path %v != scan path %v", got, want)
	}
	// marla ~1: maria, marla... dataset has maria(5), mary(2)? ed(mary,marla)=2. Expect {5,6}.
	if fmt.Sprint(got) != "[5 6]" {
		t.Errorf("unexpected answer %v", got)
	}
	if idxRes.Stats.IndexSearches == 0 {
		t.Error("index path did not touch the inverted index")
	}
	if scanRes.Stats.IndexSearches != 0 {
		t.Error("scan path should not search an index")
	}
}

func TestEditDistanceSelectionCornerCaseUsesScan(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)
	exec(t, c, sess, `create index nix on Reviews(username) type ngram(2);`)
	// T = (2+2*1) - 2*3 <= 0 for a 2-char string with k=3: corner case,
	// must fall back to a scan and still answer correctly.
	res := exec(t, c, sess, `
		for $r in dataset Reviews
		where edit-distance($r.username, 'ma') <= 3
		return $r.id
	`)
	if res.Stats.IndexSearches != 0 {
		t.Error("corner-case selection must not use the index")
	}
	// Verify against brute force: usernames within ED 3 of "ma".
	want := rowInts(t, exec(t, c, sess, `
		for $r in dataset Reviews
		where edit-distance($r.username, 'ma') <= 3 and $r.id >= 0
		return $r.id
	`).Rows)
	if fmt.Sprint(rowInts(t, res.Rows)) != fmt.Sprint(want) {
		t.Errorf("corner case rows wrong")
	}
	if len(res.Rows) == 0 {
		t.Error("expected some matches (mary, maria, mario, ...)")
	}
}

func TestJaccardSelectionScanVsIndex(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	loadReviews(t, c, sess)
	query := `
		for $r in dataset Reviews
		where similarity-jaccard(word-tokens($r.summary), word-tokens('great fantastic product')) >= 0.5
		return $r.id
	`
	scanRes := exec(t, c, sess, query)
	exec(t, c, sess, `create index smix on Reviews(summary) type keyword;`)
	idxRes := exec(t, c, sess, query)
	if fmt.Sprint(rowInts(t, scanRes.Rows)) != fmt.Sprint(rowInts(t, idxRes.Rows)) {
		t.Errorf("index %v != scan %v", rowInts(t, idxRes.Rows), rowInts(t, scanRes.Rows))
	}
	if len(idxRes.Rows) == 0 {
		t.Error("expected matches for 'great fantastic product'")
	}
	if idxRes.Stats.CandidatesTotal < int64(len(idxRes.Rows)) {
		t.Error("candidates should be at least the result count")
	}
}

func TestSimilaritySelectionWithTildeOperator(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)
	res := exec(t, c, sess, `
		set simfunction 'edit-distance';
		set simthreshold '1';
		for $r in dataset Reviews
		where $r.username ~= 'james'
		return $r.id
	`)
	// jamie is ED 2 from james, so only james itself matches at k=1.
	if got := rowInts(t, res.Rows); fmt.Sprint(got) != "[1]" {
		t.Errorf("~= rows = %v", got)
	}
}

func TestJaccardJoinThreeStageMatchesNL(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	loadReviews(t, c, sess)
	query := `
		set simfunction 'jaccard';
		set simthreshold '0.5';
		for $a in dataset Reviews
		for $b in dataset Reviews
		where word-tokens($a.summary) ~= word-tokens($b.summary) and $a.id < $b.id
		return { 'l': $a.id, 'r': $b.id }
	`
	pairsOf := func(res *Result) []string {
		var out []string
		for _, r := range res.Rows {
			l, _ := r.Rec().Get("l")
			rr, _ := r.Rec().Get("r")
			out = append(out, fmt.Sprintf("%d-%d", l.Int(), rr.Int()))
		}
		sort.Strings(out)
		return out
	}
	three := exec(t, c, sess, query)

	nlSess := NewSession()
	opts := optimizer.DefaultOptions()
	opts.UseThreeStageJoin = false
	opts.ReuseSubplans = false
	nlSess.Opts = &opts
	nl := exec(t, c, nlSess, query)

	want, got := pairsOf(nl), pairsOf(three)
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Errorf("three-stage %v != NL %v", got, want)
	}
	if len(got) == 0 {
		t.Error("expected at least one similar pair (4 and 6)")
	}
}

func TestJaccardJoinIndexNestedLoop(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	loadReviews(t, c, sess)
	exec(t, c, sess, `create index smix on Reviews(summary) type keyword;`)
	query := `
		set simfunction 'jaccard';
		set simthreshold '0.5';
		for $a in dataset Reviews
		for $b in dataset Reviews
		where $a.id = 4 and word-tokens($a.summary) ~= word-tokens($b.summary) and $a.id != $b.id
		return $b.id
	`
	res := exec(t, c, sess, query)
	if res.Stats.IndexSearches == 0 {
		t.Fatalf("expected INLJ to use the index; plan:\n%s", res.Stats.LogicalPlan)
	}
	// Record 4 "Great Product - Fantastic Gift" vs 6 "Great product fantastic quality": J = 3/5.
	if got := rowInts(t, res.Rows); fmt.Sprint(got) != "[6]" {
		t.Errorf("INLJ rows = %v", got)
	}

	// Same query without indexes gives the same answer.
	noIdx := NewSession()
	opts := optimizer.DefaultOptions()
	opts.UseIndexes = false
	noIdx.Opts = &opts
	res2 := exec(t, c, noIdx, query)
	if fmt.Sprint(rowInts(t, res2.Rows)) != fmt.Sprint(rowInts(t, res.Rows)) {
		t.Errorf("no-index path differs: %v", rowInts(t, res2.Rows))
	}
}

func TestEditDistanceJoinWithCornerRecords(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	loadReviews(t, c, sess)
	// A probe dataset with both normal and corner-case (short) names.
	exec(t, c, sess, `create dataset Probes primary key pid;`)
	for i, name := range []string{"maria", "jm"} { // "jm": T<=0 at k=2
		rec := adm.EmptyRecord(2)
		rec.Set("pid", adm.NewInt(int64(i+1)))
		rec.Set("name", adm.NewString(name))
		if err := c.Insert("Default", "Probes", adm.NewRecord(rec)); err != nil {
			t.Fatal(err)
		}
	}
	c.FlushAll()
	query := `
		set simfunction 'edit-distance';
		set simthreshold '2';
		for $p in dataset Probes
		for $r in dataset Reviews
		where $p.name ~= $r.username
		return { 'p': $p.pid, 'r': $r.id }
	`
	// Scan-based reference.
	noIdx := NewSession()
	opts := optimizer.DefaultOptions()
	opts.UseIndexes = false
	noIdx.Opts = &opts
	ref := exec(t, c, noIdx, query)

	exec(t, c, sess, `create index nix on Reviews(username) type ngram(2);`)
	idx := exec(t, c, sess, query)

	key := func(res *Result) []string {
		var out []string
		for _, r := range res.Rows {
			p, _ := r.Rec().Get("p")
			rr, _ := r.Rec().Get("r")
			out = append(out, fmt.Sprintf("%d-%d", p.Int(), rr.Int()))
		}
		sort.Strings(out)
		return out
	}
	want, got := key(ref), key(idx)
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Errorf("corner-case join: index %v != scan %v", got, want)
	}
	// The corner record "jm" must still produce its matches (via the NL
	// path): ed(jm, ...) <= 2 has no 5-char matches, but james? ed=3. So
	// jm may have none; maria must match mario/maria/marla/mary.
	found := false
	for _, k := range got {
		if strings.HasPrefix(k, "1-") {
			found = true
		}
	}
	if !found {
		t.Error("maria probe found no matches")
	}
}

func TestMultiWayJoin(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	loadReviews(t, c, sess)
	exec(t, c, sess, `create index smix on Reviews(summary) type keyword;`)
	exec(t, c, sess, `create index nix on Reviews(username) type ngram(2);`)
	// Two similarity predicates in one query (paper §6.4.3).
	query := `
		for $a in dataset Reviews
		for $b in dataset Reviews
		where $a.id = 4
		  and similarity-jaccard(word-tokens($a.summary), word-tokens($b.summary)) >= 0.5
		  and edit-distance($a.username, $b.username) <= 4
		  and $a.id != $b.id
		return $b.id
	`
	res := exec(t, c, sess, query)
	// Record 6 (marla) is Jaccard-similar to 4 (jamie); ed(jamie, marla)=4.
	if got := rowInts(t, res.Rows); fmt.Sprint(got) != "[6]" {
		t.Errorf("multi-way rows = %v\nplan:\n%s", got, res.Stats.LogicalPlan)
	}
}

func TestCountAggregate(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	loadReviews(t, c, sess)
	res := exec(t, c, sess, `
		count(for $r in dataset Reviews return $r.id)
	`)
	if len(res.Rows) != 1 || res.Rows[0].Int() != 8 {
		t.Errorf("count = %v", res.Rows)
	}
}

func TestGroupByTokenFrequency(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	loadReviews(t, c, sess)
	res := exec(t, c, sess, `
		for $r in dataset Reviews
		for $tok in word-tokens($r.summary)
		/*+ hash */ group by $g := $tok with $r
		where count($r) >= 3
		order by $g
		return { 't': $g, 'n': count($r) }
	`)
	counts := map[string]int64{}
	for _, row := range res.Rows {
		tv, _ := row.Rec().Get("t")
		nv, _ := row.Rec().Get("n")
		counts[tv.Str()] = nv.Int()
	}
	// "product" appears in summaries 4, 6, 7, 8.
	if counts["product"] != 4 {
		t.Errorf("count(product) = %d, want 4; all: %v", counts["product"], counts)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	loadReviews(t, c, sess)
	res := exec(t, c, sess, `
		for $r in dataset Reviews
		order by $r.id desc
		limit 3
		return $r.id
	`)
	var got []int64
	for _, r := range res.Rows {
		got = append(got, r.Int())
	}
	if fmt.Sprint(got) != "[8 7 6]" {
		t.Errorf("order/limit rows = %v", got)
	}
}

func TestUDF(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)
	res := exec(t, c, sess, `
		create function name-sim($x, $y) {
			jaro-winkler($x, $y)
		};
		for $r in dataset Reviews
		where name-sim($r.username, 'marla') >= 0.9
		return $r.id
	`)
	if len(res.Rows) == 0 {
		t.Error("UDF query found nothing")
	}
}

func TestStatementErrors(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	sess := NewSession()
	mustErr(t, c, sess, `use dataverse Nope;`)
	mustErr(t, c, sess, `set nonsense 'x';`)
	mustErr(t, c, sess, `create index i on Missing(f) type keyword;`)
	exec(t, c, sess, `create dataset D primary key id;`)
	mustErr(t, c, sess, `create dataset D primary key id;`)
	mustErr(t, c, sess, `create index i on D(f) type wtf;`)
	mustErr(t, c, sess, `for $x in dataset Missing return $x`)
}

func TestInsertErrors(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	sess := NewSession()
	exec(t, c, sess, `create dataset D primary key id;`)
	// Missing PK.
	rec := adm.EmptyRecord(1)
	rec.Set("x", adm.NewInt(1))
	if err := c.Insert("Default", "D", adm.NewRecord(rec)); err == nil {
		t.Error("missing PK should fail")
	}
	if err := c.Insert("Default", "D", adm.NewInt(3)); err == nil {
		t.Error("non-record insert should fail")
	}
	if err := c.Insert("Default", "Missing", adm.NewRecord(rec)); err == nil {
		t.Error("unknown dataset insert should fail")
	}
}

func TestAutoPK(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	exec(t, c, sess, `create dataset D primary key id autogenerated;`)
	for i := 0; i < 5; i++ {
		rec := adm.EmptyRecord(1)
		rec.Set("v", adm.NewInt(int64(i)))
		if err := c.Insert("Default", "D", adm.NewRecord(rec)); err != nil {
			t.Fatal(err)
		}
	}
	res := exec(t, c, sess, `count(for $d in dataset D return $d)`)
	if res.Rows[0].Int() != 5 {
		t.Errorf("autopk count = %v", res.Rows)
	}
}

func TestScaleOutDeterminism(t *testing.T) {
	// The same data and query on 1-node and 2-node clusters must agree.
	query := `
		set simfunction 'jaccard';
		set simthreshold '0.5';
		for $a in dataset Reviews
		for $b in dataset Reviews
		where word-tokens($a.summary) ~= word-tokens($b.summary) and $a.id < $b.id
		return { 'l': $a.id, 'r': $b.id }
	`
	results := map[int][]string{}
	for _, nodes := range []int{1, 2} {
		c := newTestCluster(t, nodes, 2)
		sess := NewSession()
		loadReviews(t, c, sess)
		res := exec(t, c, sess, query)
		var keys []string
		for _, r := range res.Rows {
			l, _ := r.Rec().Get("l")
			rr, _ := r.Rec().Get("r")
			keys = append(keys, fmt.Sprintf("%d-%d", l.Int(), rr.Int()))
		}
		sort.Strings(keys)
		results[nodes] = keys
	}
	if fmt.Sprint(results[1]) != fmt.Sprint(results[2]) {
		t.Errorf("1-node %v != 2-node %v", results[1], results[2])
	}
}

func TestQueryStatsPopulated(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	sess := NewSession()
	loadReviews(t, c, sess)
	res := exec(t, c, sess, `count(for $r in dataset Reviews return $r)`)
	s := res.Stats
	if s.ExecNs <= 0 || s.PlanOps <= 0 || s.LogicalPlan == "" {
		t.Errorf("stats incomplete: %+v", s)
	}
}
