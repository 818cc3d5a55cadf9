package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/optimizer"
	"simdb/internal/sim"
	"simdb/internal/tokenizer"
)

// sourceLine returns the plan line of the first record source.
func sourceLine(plan string) string {
	for _, l := range strings.Split(plan, "\n") {
		if strings.Contains(l, " data-scan ") || strings.Contains(l, " primary-index-lookup ") {
			return strings.TrimSpace(l)
		}
	}
	return ""
}

// TestSourceFilter is the plan-level suite of the record-source filter:
// with rows in flushed components and in the memtable, every recognized
// selection shape returns what a naive evaluation with internal/sim
// returns (the engine has no switch that turns the filter off, so the
// reference is computed here), the filter
// shows on the source's explain line exactly when it should, and the
// source reports read versus emitted. Two flushed rows are overwritten
// in the memtable by versions that differ from them in pass or fail: a
// rejected newer version must shadow a passing older one, and the rows
// read count each key once.
func TestSourceFilter(t *testing.T) {
	type review struct {
		id                int64
		username, summary string
	}
	reviews := []review{
		{1, "james", "This movie touched my heart!"},
		{2, "mary", "The best car charger I ever bought"},
		{3, "mario", "Different than my usual but good"},
		{4, "jamie", "Great Product - Fantastic Gift"},
		{5, "maria", "Better ever than I expected"},
		{6, "marla", "Great product fantastic quality"},
		{7, "johnny", "Best product ever bought"},
		{8, "joanna", "Totally great product works fine"},
		// Inserted after the flush: read from the memtable, as a whole
		// record, while the rest come out of (projected) components.
		{9, "marge", "great value product product"},
		{10, "Márla", "ÉCLAIR great İstanbul product"},
	}
	// Overwritten after the flush: id 1 comes to pass the Jaccard
	// filters, id 6 (which passed them) to fail.
	overwrites := map[int64]string{1: "great product fantastic", 6: "nothing in common here"}
	jaccard := func(query string, delta float64, strict bool) func(review) bool {
		q := tokenizer.WordTokens(query)
		return func(r review) bool {
			j := sim.Jaccard(tokenizer.WordTokens(r.summary), q)
			return j > delta || (!strict && j == delta)
		}
	}
	ed := func(query string, k int) func(review) bool {
		return func(r review) bool { return sim.EditDistance(r.username, query) <= k }
	}
	and := func(a, b func(review) bool) func(review) bool {
		return func(r review) bool { return a(r) && b(r) }
	}

	cases := []struct {
		name, query string
		keep        func(review) bool
		filter      string // what the source line must carry; "" = no filter
	}{
		{"jaccard", jaccardQuery, jaccard("great product fantastic", 0.5, false),
			`filter:[similarity-jaccard(word-tokens(summary), ["great", "product", "fantastic"]) >= 0.5]`},
		{"extra conjunct", `for $r in dataset Reviews
			where similarity-jaccard(word-tokens($r.summary), word-tokens('great product fantastic')) >= 0.3
			  and $r.id >= 4
			return $r.id`,
			and(jaccard("great product fantastic", 0.3, false), func(r review) bool { return r.id >= 4 }),
			`filter:[similarity-jaccard(word-tokens(summary), `},
		{"conjunct in front", `for $r in dataset Reviews
			where $r.id >= 4
			  and similarity-jaccard(word-tokens($r.summary), word-tokens('great product fantastic')) >= 0.3
			return $r.id`,
			and(jaccard("great product fantastic", 0.3, false), func(r review) bool { return r.id >= 4 }),
			`filter:[similarity-jaccard(word-tokens(summary), `},
		{"strict and flipped", `for $r in dataset Reviews
			where similarity-jaccard(word-tokens('best product ever'), word-tokens($r.summary)) > 0.4
			return $r.id`,
			jaccard("best product ever", 0.4, true),
			`filter:[similarity-jaccard(word-tokens(summary), ["best", "product", "ever"]) >= 0.4000000000000001]`},
		{"threshold on the left", `for $r in dataset Reviews
			where 0.5 <= similarity-jaccard(word-tokens($r.summary), word-tokens('great product fantastic'))
			return $r.id`,
			jaccard("great product fantastic", 0.5, false), `filter:[similarity-jaccard(`},
		{"duplicate tokens", `for $r in dataset Reviews
			where similarity-jaccard(word-tokens($r.summary), word-tokens('product great product')) >= 0.6
			return $r.id`,
			jaccard("product great product", 0.6, false), `filter:[similarity-jaccard(`},
		{"non-ascii", `for $r in dataset Reviews
			where similarity-jaccard(word-tokens($r.summary), word-tokens('éclair istanbul great product')) >= 0.5
			return $r.id`,
			jaccard("éclair istanbul great product", 0.5, false), `filter:[similarity-jaccard(`},
		{"zero threshold", `for $r in dataset Reviews
			where similarity-jaccard(word-tokens($r.summary), word-tokens('nothing shared here')) >= 0.0
			return $r.id`,
			func(review) bool { return true }, ""},
		{"let-bound word-tokens", `for $r in dataset Reviews
			let $t := word-tokens($r.summary)
			where similarity-jaccard($t, word-tokens('great product fantastic')) >= 0.5
			return $r.id`,
			jaccard("great product fantastic", 0.5, false), `filter:[similarity-jaccard(word-tokens(summary), `},
		{"a let that can raise", `for $r in dataset Reviews
			let $n := string-length($r.username)
			where similarity-jaccard(word-tokens($r.summary), word-tokens('great product fantastic')) >= 0.5 and $n >= 5
			return $r.id`,
			and(jaccard("great product fantastic", 0.5, false), func(r review) bool { return len([]rune(r.username)) >= 5 }), ""},
		{"disjunction", `for $r in dataset Reviews
			where similarity-jaccard(word-tokens($r.summary), word-tokens('great product fantastic')) >= 0.5 or $r.id = 1
			return $r.id`,
			func(r review) bool { return r.id == 1 || jaccard("great product fantastic", 0.5, false)(r) }, ""},
		{"edit distance", `for $r in dataset Reviews where edit-distance($r.username, 'marla') <= 1 return $r.id`,
			ed("marla", 1), `filter:[edit-distance(username, "marla") <= 1]`},
		{"edit distance strict and flipped", `for $r in dataset Reviews where 3 > edit-distance('marla', $r.username) return $r.id`,
			ed("marla", 2), `filter:[edit-distance(username, "marla") <= 2]`},
		{"edit distance multi-byte", `for $r in dataset Reviews where edit-distance($r.username, 'Marla') <= 1 return $r.id`,
			ed("Marla", 1), `filter:[edit-distance(username, "Marla") <= 1]`},
	}

	// Primary components have one layout; the subtest names it.
	t.Run("columnar", func(t *testing.T) {
		c := newTestCluster(t, 2, 1)
		sess := NewSession()
		loadReviews(t, c, sess)
		for i := range reviews {
			if s, ok := overwrites[reviews[i].id]; ok {
				reviews[i].summary = s
			} else if i < 8 {
				continue
			}
			r := reviews[i]
			rec := adm.EmptyRecord(3)
			rec.Set("id", adm.NewInt(r.id))
			rec.Set("username", adm.NewString(r.username))
			rec.Set("summary", adm.NewString(r.summary))
			if err := c.Insert("Default", "Reviews", adm.NewRecord(rec)); err != nil {
				t.Fatal(err)
			}
		}
		check := func(plan string) {
			for _, tc := range cases {
				res := exec(t, c, sess, tc.query)
				var want []int64
				for _, r := range reviews {
					if tc.keep(r) {
						want = append(want, r.id)
					}
				}
				if len(want) == 0 || len(want) == len(reviews) && tc.filter != "" {
					t.Errorf("%s: reference keeps %d of %d rows; the case is vacuous", tc.name, len(want), len(reviews))
				}
				if got := rowInts(t, res.Rows); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s (%s plan): engine %v != reference %v\n%s", tc.name, plan, got, want, res.Stats.LogicalPlan)
				}
				line := sourceLine(res.Stats.LogicalPlan)
				if tc.filter == "" && strings.Contains(line, "filter:[") || !strings.Contains(line, tc.filter) {
					t.Errorf("%s (%s plan): source line %q, want filter %q", tc.name, plan, line, tc.filter)
				}
			}
		}
		check("scan")

		// The filtered scan reports what it read and what it let through.
		res := exec(t, c, sess, jaccardQuery)
		for _, op := range res.Stats.PhysicalOps() {
			if op.Name == "DataScan(Reviews)" && (op.TuplesIn != int64(len(reviews)) || op.TuplesOut != int64(len(res.Rows))) {
				t.Errorf("filtered scan reports in=%d out=%d, want %d read and %d emitted", op.TuplesIn, op.TuplesOut, len(reviews), len(res.Rows))
			}
		}

		// Index plans: the same filter sits on the primary-index lookup,
		// and the select above it still counts the verified candidates.
		exec(t, c, sess, `create index rsum on Reviews(summary) type keyword;`)
		exec(t, c, sess, `create index rname on Reviews(username) type ngram(2);`)
		check("index")
		res = exec(t, c, sess, jaccardQuery)
		if line := sourceLine(res.Stats.LogicalPlan); !strings.Contains(line, "primary-index-lookup") || !strings.Contains(line, "filter:[") {
			t.Errorf("index plan's lookup carries no filter:\n%s", res.Stats.LogicalPlan)
		}
		if res.Stats.IndexSearches == 0 || res.Stats.VerifiedTotal != int64(len(res.Rows)) || res.Stats.CandidatesTotal < res.Stats.VerifiedTotal {
			t.Errorf("funnel: searches=%d candidates=%d verified=%d rows=%d",
				res.Stats.IndexSearches, res.Stats.CandidatesTotal, res.Stats.VerifiedTotal, len(res.Rows))
		}
		for _, op := range res.Stats.PhysicalOps() {
			if op.Name == "PrimaryIndexLookup(Reviews)" && (op.TuplesIn != res.Stats.CandidatesTotal || op.TuplesOut != int64(len(res.Rows))) {
				t.Errorf("filtered lookup reports in=%d out=%d, want %d candidates and %d survivors",
					op.TuplesIn, op.TuplesOut, res.Stats.CandidatesTotal, len(res.Rows))
			}
		}

		// The T <= 0 corner case keeps the scan plan (paper §5.1.1), and
		// that scan is filtered like any other.
		res = exec(t, c, sess, `for $r in dataset Reviews where edit-distance($r.username, 'ma') <= 3 return $r.id`)
		if line := sourceLine(res.Stats.LogicalPlan); res.Stats.IndexSearches != 0 || !strings.Contains(line, `data-scan`) ||
			!strings.Contains(line, `filter:[edit-distance(username, "ma") <= 3]`) {
			t.Errorf("corner-case fallback: searches=%d, source line %q", res.Stats.IndexSearches, line)
		}
		var want []int64
		for _, r := range reviews {
			if ed("ma", 3)(r) {
				want = append(want, r.id)
			}
		}
		if got := rowInts(t, res.Rows); fmt.Sprint(got) != fmt.Sprint(want) || len(want) == 0 {
			t.Errorf("corner-case fallback: engine %v != reference %v", got, want)
		}
	})
}

// TestSourceFilterSharedScan: a scan read by two parents feeds every
// row to both, so it gets no filter; without subplan reuse the
// selection's own scan does, and the answers agree.
func TestSourceFilterSharedScan(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)
	const q = `for $a in dataset Reviews for $b in dataset Reviews
		where similarity-jaccard(word-tokens($a.summary), word-tokens('great product fantastic')) >= 0.5
		  and $a.id = $b.id
		return $b.id`
	shared := exec(t, c, sessWith(func(o *optimizer.Options) { o.UseIndexes = false }), q)
	own := exec(t, c, sessWith(func(o *optimizer.Options) { o.UseIndexes, o.ReuseSubplans = false, false }), q)
	if !strings.Contains(shared.Stats.LogicalPlan, "^shared(") || strings.Contains(shared.Stats.LogicalPlan, "filter:[") {
		t.Errorf("shared scan: want a shared, unfiltered scan:\n%s", shared.Stats.LogicalPlan)
	}
	if strings.Count(own.Stats.LogicalPlan, "filter:[") != 1 {
		t.Errorf("without reuse: want exactly one filtered scan:\n%s", own.Stats.LogicalPlan)
	}
	if got, want := resultKey(shared), resultKey(own); got != want || len(own.Rows) == 0 {
		t.Errorf("shared scan %q, own scans %q", got, want)
	}
}

// TestSourceFilterKeepsErrors: a row the select would raise on passes
// the filter, so the query still fails — on the scan plan and on the
// index plan (the int summary is not indexed, the lookup never sees it,
// so only the scan plan can raise).
func TestSourceFilterKeepsErrors(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)
	rec := adm.EmptyRecord(3)
	rec.Set("id", adm.NewInt(11))
	rec.Set("username", adm.NewInt(7))
	rec.Set("summary", adm.NewInt(7))
	if err := c.Insert("Default", "Reviews", adm.NewRecord(rec)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Execute(context.Background(), sess, jaccardQuery)
	if err == nil || !strings.Contains(err.Error(), "word-tokens on int64") {
		t.Errorf("jaccard over an int field: err = %v, want word-tokens on int64", err)
	}
	_, err = c.Execute(context.Background(), sess, `for $r in dataset Reviews where edit-distance($r.username, 'marla') <= 1 return $r.id`)
	if err == nil || !strings.Contains(err.Error(), "edit-distance on int64") {
		t.Errorf("edit distance over an int field: err = %v, want edit-distance on int64", err)
	}
}
