package cluster

import (
	"fmt"
	"testing"

	"simdb/internal/optimizer"
)

func TestNormalizeAQL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"for $r in dataset R return $r", "for $r in dataset R return $r"},
		{"  for   $r\n\tin dataset R\nreturn $r  ", "for $r in dataset R return $r"},
		// Whitespace inside string literals must survive byte-for-byte.
		{"where $r.s ~= 'a  b'", "where $r.s ~= 'a  b'"},
		{`where $r.s ~= "a   b"  return  $r`, `where $r.s ~= "a   b" return $r`},
		// Escaped quote does not terminate the literal.
		{`return 'a\'  b'   ;`, `return 'a\'  b' ;`},
	}
	for _, c := range cases {
		if got := normalizeAQL(c.in); got != c.want {
			t.Errorf("normalizeAQL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Two queries differing only inside a literal must key differently.
	if normalizeAQL("return 'a  b'") == normalizeAQL("return 'a b'") {
		t.Error("literals with different spacing collided after normalization")
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
	st := c.PlanCache().Stats()
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
	st := c.PlanCache().Stats()
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
	before := c.PlanCache().Stats()
	for run := 0; run < 2; run++ {
		if res := exec(t, c, sessC, q); res.Stats.PlanCacheHit {
			t.Fatalf("run %d: override session hit a cached plan", run)
		}
	}
	if after := c.PlanCache().Stats(); after != before {
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
	before := c.PlanCache().Stats().Entries
	exec(t, c, sess, `create dataset E primary key id; count(for $d in dataset D return $d)`)
	if got := c.PlanCache().Stats().Entries; got != before {
		t.Fatalf("request containing DDL was cached (entries %d -> %d)", before, got)
	}
}

// TestPlanCacheAccounting pins the cache's bookkeeping: one query text
// is one entry however often it runs, every non-explain request is
// exactly one hit or one miss, explain requests are neither, and a
// request reports PlanCacheHit exactly when the hit counter moved for
// it.
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
			base := c.PlanCache().Stats()
			lookups, n := 0, 0
			for run := 0; run < tc.runs; run++ {
				for i := 0; i < tc.texts; i++ {
					q := fmt.Sprintf(`for $r in dataset Reviews
						where similarity-jaccard(word-tokens($r.summary),
						                         word-tokens('great product fantastic')) >= 0.%d
						return $r.id`, i+1)
					if n++; tc.explainEvery > 0 && n%tc.explainEvery == 0 {
						before := c.PlanCache().Stats()
						exec(t, c, sess, "explain "+q)
						exec(t, c, sess, "explain analyze "+q)
						if after := c.PlanCache().Stats(); after != before {
							t.Fatalf("explain requests moved the cache: %+v -> %+v", before, after)
						}
					}
					before := c.PlanCache().Stats()
					res := exec(t, c, sess, q)
					after := c.PlanCache().Stats()
					lookups++
					if moved := after.Hits > before.Hits; res.Stats.PlanCacheHit != moved {
						t.Fatalf("run %d text %d: PlanCacheHit=%v but hits %d -> %d",
							run, i, res.Stats.PlanCacheHit, before.Hits, after.Hits)
					}
					if want := run > 0; res.Stats.PlanCacheHit != want {
						t.Fatalf("run %d text %d: PlanCacheHit=%v, want %v", run, i, res.Stats.PlanCacheHit, want)
					}
				}
			}
			st := c.PlanCache().Stats()
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
	pc.put(&planEntry{key: k("a")})
	pc.put(&planEntry{key: k("b")})
	if _, ok := pc.get(k("a"), 0); !ok { // a is now MRU
		t.Fatal("a missing")
	}
	pc.put(&planEntry{key: k("c")}) // evicts b
	if _, ok := pc.get(k("b"), 0); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	for _, s := range []string{"a", "c"} {
		if _, ok := pc.get(k(s), 0); !ok {
			t.Fatalf("entry %s evicted unexpectedly", s)
		}
	}
}
