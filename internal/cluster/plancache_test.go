package cluster

import (
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"

	"simdb/internal/adm"
	"simdb/internal/aqlp"
	"simdb/internal/optimizer"
)

// TestNormalizeAQL: the plan-cache key is built on the canonical text
// aqlp.Normalize reads of the request: whitespace and comments between tokens collapse to one space,
// literals and hints keep their bytes, and a quote inside a comment does
// not open a literal.
func TestNormalizeAQL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"for $r in dataset R return $r", "for $r in dataset R return $r"},
		{"  for   $r\n\tin dataset R\nreturn $r  ", "for $r in dataset R return $r"},
		// Whitespace inside string literals must survive byte-for-byte.
		{"where $r.s ~= 'a  b'", "where $r.s ~= 'a  b'"},
		{`where $r.s ~= "a   b"  return  $r`, `where $r.s ~= "a   b" return $r`},
		// Escaped quote does not terminate the literal.
		{`return 'a\'  b'   ;`, `return 'a\'  b' ;`},
		// Comments drop out; a quote inside one opens no literal.
		{"// it's\nreturn 'a  b'", "return 'a  b'"},
		{"/* it's */ return  'a  b'", "return 'a  b'"},
		{"return 1/*x*/+ 2 // done", "return 1 + 2"},
		// Hints are tokens and keep their bytes.
		{"where /*+  indexnl */ $a.id = $b.id", "where /*+  indexnl */ $a.id = $b.id"},
	}
	for _, c := range cases {
		if got := aqlp.Normalize(c.in).Canonical; got != c.want {
			t.Errorf("Normalize(%q).Canonical = %q, want %q", c.in, got, c.want)
		}
	}
	// Two queries differing only inside a literal must key differently,
	// also after a comment holding a quote.
	for _, pre := range []string{"", "// it's\n", "/* it's */"} {
		if aqlp.Normalize(pre+"return 'a  b'").Canonical == aqlp.Normalize(pre+"return 'a b'").Canonical {
			t.Errorf("literals with different spacing collided after %q", pre)
		}
	}
}

// TestTruncateQueryRuneBoundary: the text /queries and the slow-query
// log show is cut on a rune boundary, so it stays valid UTF-8.
func TestTruncateQueryRuneBoundary(t *testing.T) {
	long := "return 'x" + strings.Repeat("é", 150) + "'"
	got := truncateQuery(long)
	if !utf8.ValidString(got) || !strings.HasSuffix(got, "...") || len(got) > 203 {
		t.Fatalf("truncateQuery cut %q", got)
	}
	if short := "return 'é'"; truncateQuery(short) != short {
		t.Fatalf("truncateQuery changed a short text: %q", truncateQuery(short))
	}
}

// TestPlanCacheCommentQuote: an apostrophe inside a comment must not
// change how the key reads the rest of the request. Two requests that
// differ only in the spacing inside a later literal select different
// records, so they must not share a cached plan.
func TestPlanCacheCommentQuote(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	sess := NewSession()
	exec(t, c, sess, `create dataset D primary key id;`)
	for id, name := range map[int64]string{1: "a  b", 2: "a b"} {
		rec := adm.EmptyRecord(2)
		rec.Set("id", adm.NewInt(id))
		rec.Set("name", adm.NewString(name))
		if err := c.Insert("Default", "D", adm.NewRecord(rec)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []struct {
		src  string
		want int64
	}{
		{"// it's\nfor $r in dataset D where $r.name = 'a  b' return $r.id", 1},
		{"// it's\nfor $r in dataset D where $r.name = 'a b' return $r.id", 2},
		{"/* it's */ for $r in dataset D where $r.name = 'a  b' return $r.id", 1},
		{"/* it's */ for $r in dataset D where $r.name = 'a b' return $r.id", 2},
	} {
		got := rowInts(t, exec(t, c, sess, q.src).Rows)
		if len(got) != 1 || got[0] != q.want {
			t.Errorf("%q returned %v, want [%d]", q.src, got, q.want)
		}
	}
}

const jaccardQuery = `
	for $r in dataset Reviews
	where similarity-jaccard(word-tokens($r.summary),
	                         word-tokens('great product fantastic')) >= 0.5
	return $r.id`

func TestPlanCacheHitSkipsCompile(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)

	cold := exec(t, c, sess, jaccardQuery)
	if cold.Stats.PlanCacheHit {
		t.Fatal("first execution reported a cache hit")
	}
	if cold.Stats.TranslateNs == 0 && cold.Stats.OptimizeNs == 0 {
		t.Fatal("cold execution reported no compile time")
	}

	warm := exec(t, c, sess, jaccardQuery)
	if !warm.Stats.PlanCacheHit {
		t.Fatal("second execution missed the cache")
	}
	if warm.Stats.ParseNs != 0 || warm.Stats.TranslateNs != 0 || warm.Stats.OptimizeNs != 0 {
		t.Fatalf("cache hit still compiled: parse=%d translate=%d optimize=%d",
			warm.Stats.ParseNs, warm.Stats.TranslateNs, warm.Stats.OptimizeNs)
	}
	if got, want := rowInts(t, warm.Rows), rowInts(t, cold.Rows); len(got) != len(want) {
		t.Fatalf("cached plan returned %v, cold plan %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cached plan returned %v, cold plan %v", got, want)
			}
		}
	}
	st := c.planCache.Stats()
	if st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 entry", st)
	}
}

func TestPlanCacheWhitespaceInsensitive(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)

	exec(t, c, sess, jaccardQuery)
	spaced := "  for $r in dataset Reviews\n\n where similarity-jaccard(word-tokens($r.summary),\n word-tokens('great product fantastic')) >= 0.5\n return $r.id"
	res := exec(t, c, sess, spaced)
	if !res.Stats.PlanCacheHit {
		t.Fatal("whitespace-only variation missed the cache")
	}
}

func TestPlanCacheDDLInvalidation(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)

	exec(t, c, sess, jaccardQuery)
	warm := exec(t, c, sess, jaccardQuery)
	if !warm.Stats.PlanCacheHit {
		t.Fatal("warm-up miss")
	}

	// DDL bumps the catalog epoch; the cached scan plan must not be
	// served afterwards — recompilation may now pick the new index.
	exec(t, c, sess, `create index rsum on Reviews(summary) type keyword;`)
	after := exec(t, c, sess, jaccardQuery)
	if after.Stats.PlanCacheHit {
		t.Fatal("cache served a pre-DDL plan after create index")
	}
	st := c.planCache.Stats()
	if st.Invalidations == 0 {
		t.Fatalf("no invalidation recorded: %+v", st)
	}
	// The recompiled plan re-caches under the new epoch.
	again := exec(t, c, sess, jaccardQuery)
	if !again.Stats.PlanCacheHit {
		t.Fatal("post-DDL recompile was not cached")
	}
}

func TestPlanCacheKeysOnSessionState(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)

	q := `for $r in dataset Reviews where $r.username ~= 'marla' return $r.id`
	sessA := NewSession()
	sessA.SimFunction = "edit-distance"
	sessA.SimThreshold = "1"
	a := exec(t, c, sessA, q)

	// Same text, different simthreshold: must NOT hit sessA's entry.
	sessB := NewSession()
	sessB.SimFunction = "edit-distance"
	sessB.SimThreshold = "2"
	b := exec(t, c, sessB, q)
	if b.Stats.PlanCacheHit {
		t.Fatal("different simthreshold hit the other session's plan")
	}
	if len(b.Rows) <= len(a.Rows) {
		t.Fatalf("threshold 2 should match more rows than threshold 1 (got %d vs %d)",
			len(b.Rows), len(a.Rows))
	}

	// A session with an optimizer-options override stays out of the cache
	// in both directions, however often it runs; sessA's entry survives.
	sessC := NewSession()
	sessC.SimFunction = "edit-distance"
	sessC.SimThreshold = "1"
	opts := optimizer.DefaultOptions()
	opts.UseIndexes = false
	sessC.Opts = &opts
	before := c.planCache.Stats()
	for run := 0; run < 2; run++ {
		if res := exec(t, c, sessC, q); res.Stats.PlanCacheHit {
			t.Fatalf("run %d: override session hit a cached plan", run)
		}
	}
	if after := c.planCache.Stats(); after != before {
		t.Fatalf("override session moved the cache: %+v -> %+v", before, after)
	}
	if res := exec(t, c, sessA, q); !res.Stats.PlanCacheHit {
		t.Fatal("base session's entry no longer hits after an override run")
	}
}

func TestPlanCacheSetStatementsCached(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)

	req := `set simfunction 'edit-distance'; set simthreshold '1';
		for $r in dataset Reviews where $r.username ~= 'marla' return $r.id`
	fresh := NewSession()
	exec(t, c, fresh, req)
	if fresh.SimFunction != "edit-distance" || fresh.SimThreshold != "1" {
		t.Fatalf("set statements did not apply: %+v", fresh)
	}

	// A second fresh session replays the request via the cache; its
	// use/set effects must still land on the session.
	fresh2 := NewSession()
	res := exec(t, c, fresh2, req)
	if !res.Stats.PlanCacheHit {
		t.Fatal("identical request from a fresh session missed the cache")
	}
	if fresh2.SimFunction != "edit-distance" || fresh2.SimThreshold != "1" {
		t.Fatalf("cache hit skipped session side effects: %+v", fresh2)
	}
}

func TestPlanCacheDDLRequestsNotCached(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	sess := NewSession()
	exec(t, c, sess, `create dataset D primary key id;`)
	before := c.planCache.Stats().Entries
	exec(t, c, sess, `create dataset E primary key id; count(for $d in dataset D return $d)`)
	if got := c.planCache.Stats().Entries; got != before {
		t.Fatalf("request containing DDL was cached (entries %d -> %d)", before, got)
	}
}

// TestPlanCacheStatementsAloneAreNoLookup: a request of statements alone
// (DDL, or use/set) has no plan to find, so it counts as neither a hit
// nor a miss, however often it repeats; the hit ratio counts queries.
func TestPlanCacheStatementsAloneAreNoLookup(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	sess := NewSession()
	for _, req := range []string{
		`create dataset D primary key id;`,
		`set simfunction 'edit-distance';`,
		`set simfunction 'edit-distance';`,
		`use dataverse Default; set simthreshold '1';`,
		`create index dx on D(name) type ngram(2);`,
	} {
		exec(t, c, sess, req)
		if st := c.planCache.Stats(); st.Hits != 0 || st.Misses != 0 {
			t.Fatalf("after %q: hits=%d misses=%d, want 0 and 0", req, st.Hits, st.Misses)
		}
	}
	q := `count(for $d in dataset D return $d)`
	exec(t, c, sess, q)
	exec(t, c, sess, q)
	if st := c.planCache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("a query run twice: hits=%d misses=%d, want 1 and 1", st.Hits, st.Misses)
	}
}

// TestPlanCacheAccounting pins the cache's bookkeeping: one query text
// is one entry however often it runs, explained or not; every request,
// explain ones too, is exactly one hit or one miss, a hit exactly when
// its text ran before in any mode; and a request reports PlanCacheHit
// exactly when the hit counter moved for it.
func TestPlanCacheAccounting(t *testing.T) {
	cases := []struct {
		name         string
		texts, runs  int
		explainEvery int // 0 = no explain requests interleaved
	}{
		{"one hot text", 1, 6, 0},
		{"several texts", 5, 4, 0},
		{"all cold", 3, 1, 0},
		{"explains interleaved", 2, 5, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, 1, 2)
			sess := NewSession()
			loadReviews(t, c, sess)
			base := c.planCache.Stats()
			lookups, n := 0, 0
			seen := map[int]bool{}
			run := func(i int, req string) {
				before := c.planCache.Stats()
				res := exec(t, c, sess, req)
				after := c.planCache.Stats()
				lookups++
				if moved := after.Hits > before.Hits; res.Stats.PlanCacheHit != moved {
					t.Fatalf("%q: PlanCacheHit=%v but hits %d -> %d", req, res.Stats.PlanCacheHit, before.Hits, after.Hits)
				}
				if res.Stats.PlanCacheHit != seen[i] {
					t.Fatalf("%q: PlanCacheHit=%v, want %v", req, res.Stats.PlanCacheHit, seen[i])
				}
				seen[i] = true
			}
			for r := 0; r < tc.runs; r++ {
				for i := 0; i < tc.texts; i++ {
					q := fmt.Sprintf(`for $r in dataset Reviews
						where similarity-jaccard(word-tokens($r.summary),
						                         word-tokens('great product fantastic')) >= 0.%d
						return $r.id`, i+1)
					if n++; tc.explainEvery > 0 && n%tc.explainEvery == 0 {
						run(i, "explain "+q)
						run(i, "explain analyze "+q)
					}
					run(i, q)
				}
			}
			st := c.planCache.Stats()
			if got := st.Entries - base.Entries; got != tc.texts {
				t.Errorf("entries = %d, want %d (one per text)", got, tc.texts)
			}
			if got := int(st.Hits - base.Hits + st.Misses - base.Misses); got != lookups {
				t.Errorf("hits+misses = %d, want %d lookups (%+v)", got, lookups, st)
			}
		})
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	pc := NewPlanCache(2)
	k := func(s string) planKey { return planKey{text: s} }
	put := func(s string) { pc.put(k(s), aqlp.Shape{Text: s}, s, nil, &planEntry{}) }
	get := func(s string) bool {
		_, ok := pc.get(k(s), aqlp.Shape{Text: s}, s, 0)
		return ok
	}
	put("a")
	put("b")
	if !get("a") { // a is now MRU
		t.Fatal("a missing")
	}
	put("c") // evicts b
	if get("b") {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := pc.shapes[k("b")]; ok {
		t.Fatal("evicted shape b kept its record")
	}
	for _, s := range []string{"a", "c"} {
		if !get(s) {
			t.Fatalf("entry %s evicted unexpectedly", s)
		}
	}
}
