package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"simdb/benchmark/gen"
	"simdb/internal/optimizer"
)

// loadShapeBench is loadBenchJoin plus an indexed copy of its records,
// Reviews, with the benchmark's three secondary indexes, so one cluster
// runs the benchmark's selections on both access paths and its join.
func loadShapeBench(t *testing.T) (*Cluster, *Session) {
	t.Helper()
	c, sess, recs := loadBenchJoin(t)
	for _, stmt := range []string{
		`create dataset Reviews primary key id;`,
		`create index rv_kw on Reviews(summary) type keyword;`,
		`create index rv_ng on Reviews(reviewerName) type ngram(2);`,
		`create index rv_bt on Reviews(reviewerName) type btree;`,
	} {
		exec(t, c, sess, stmt)
		if stmt == `create dataset Reviews primary key id;` {
			for _, r := range recs {
				if err := c.Insert("Default", "Reviews", benchJoinValue(r)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return c, sess
}

// freshSession is sess's state with an options override, which compiles
// every request afresh: an ablation session never reaches the plan
// cache.
func freshSession(sess *Session) *Session {
	opts := optimizer.DefaultOptions()
	fresh := *sess
	fresh.Opts = &opts
	return &fresh
}

// checkAgainstFresh fails unless res — q run through the plan cache —
// printed the plan `explain q` prints and returned the rows a fresh
// compile of q returns.
func checkAgainstFresh(t *testing.T, c *Cluster, sess *Session, q string, res *Result) {
	t.Helper()
	if got, want := res.Stats.LogicalPlan(), rowsText(exec(t, c, sess, "explain "+q)); got != want {
		t.Fatalf("plan of %q (cache hit %v) differs from explain:\n%s\nexplain:\n%s", q, res.Stats.PlanCacheHit, got, want)
	}
	fresh := exec(t, c, freshSession(sess), q)
	if got, want := fmt.Sprint(rowFingerprints(res.Rows)), fmt.Sprint(rowFingerprints(fresh.Rows)); got != want {
		t.Fatalf("%q (cache hit %v) returned %d rows, a fresh compile %d", q, res.Stats.PlanCacheHit, len(res.Rows), len(fresh.Rows))
	}
}

// TestBoundPlansMatchFreshCompiles is the plan cache's proof: for the
// benchmark's CANON selections (on the indexed and the plain dataset),
// its fixed joins and a set of primary-key range selections, the plan a
// request gets from the cache — a cached plan of its shape bound to its
// literals — prints the same explain as a fresh compile of its text and
// returns the same rows. The joins and the range selections differ only
// in free literals, so every one after the first of its shape is a hit.
func TestBoundPlansMatchFreshCompiles(t *testing.T) {
	c, sess := loadShapeBench(t)
	scale := 1
	if testing.Short() || raceEnabled {
		scale = 5
	}

	d := gen.New(1, 20*benchJoinRecords)
	stream := d.Stream(0)
	for i := 0; i < 400/scale; i++ {
		ds := []string{"Reviews", "ReviewsPlain"}[i%2]
		q := stream.Next().AQL(ds)
		for run := 0; run < 2; run++ {
			res := exec(t, c, sess, q)
			if run == 1 && !res.Stats.PlanCacheHit {
				t.Fatalf("%q missed the cache on its second run", q)
			}
			checkAgainstFresh(t, c, sess, q, res)
		}
	}

	joins := d.Joins(benchJoinRecords)
	hits := 0
	for i := 0; i < 100/scale; i++ {
		q := joins.Next().AQL("ReviewsPlain")
		res := exec(t, c, sess, q)
		if res.Stats.PlanCacheHit {
			hits++
		}
		checkAgainstFresh(t, c, sess, q, res)
	}
	if want := 100/scale - 1; hits < want {
		t.Errorf("%d of %d joins hit the plan cache, want %d", hits, 100/scale, want)
	}

	ranges := []string{
		`for $r in dataset ReviewsPlain where $r.id >= %d and $r.id < %d return $r.id`,
		`for $r in dataset ReviewsPlain where $r.id > %d and %d >= $r.id return {'id': $r.id, 'n': $r.reviewerName}`,
		`for $r in dataset Reviews where $r.id = %d or $r.id = %d return $r.id`,
		`for $r in dataset Reviews where %d < $r.id and $r.id <= %d and edit-distance($r.reviewerName, 'Mario') <= 2 return $r.id`,
	}
	hits = 0
	for i := 0; i < 100/scale; i++ {
		lo := int64(1 + (i*37)%benchJoinRecords)
		q := fmt.Sprintf(ranges[i%len(ranges)], lo, lo+int64(i%13))
		res := exec(t, c, sess, q)
		if res.Stats.PlanCacheHit {
			hits++
		}
		checkAgainstFresh(t, c, sess, q, res)
	}
	if want := 100/scale - len(ranges); hits < want {
		t.Errorf("%d of %d range selections hit the plan cache, want %d", hits, 100/scale, want)
	}
}

// TestValueKeyedLiterals sends pairs of requests of one shape whose
// literal differs where the plan depends on its value, the second after
// the first is cached, and checks the second against a fresh compile: a
// record constructor's key, a Jaccard threshold, an edit-distance query
// below and above its T <= 0 corner case, a UDF body's literal and a
// literal a UDF reads, an int, a double and a string at one position,
// and two key bounds on one side of the key.
func TestValueKeyedLiterals(t *testing.T) {
	c, sess := loadShapeBench(t)
	exec(t, c, sess, `create function idAbove($r) { $r.id >= 5 }`)
	exec(t, c, sess, `create function summaryLike($r, $t) { similarity-jaccard(word-tokens($r.summary), word-tokens($t)) >= 0.5 }`)
	join := benchJoin.AQL("ReviewsPlain")
	sel := func(where string) string {
		return `for $r in dataset Reviews where ` + where + ` return $r.id`
	}
	for _, p := range []struct {
		name          string
		first, second string
		// differ is text the second plan has and the first lacks.
		differ string
	}{
		{"record key", join, strings.Replace(join, "'o':", "'p':", 1), `"p"`},
		{"jaccard threshold",
			sel(`similarity-jaccard(word-tokens($r.summary), word-tokens('great product')) >= 0.8`),
			sel(`similarity-jaccard(word-tokens($r.summary), word-tokens('great product')) >= 0.5`), "jaccard(0.5)"},
		{"edit-distance corner case",
			sel(`edit-distance($r.reviewerName, 'ab') <= 2`),
			sel(`edit-distance($r.reviewerName, 'abcdef') <= 2`), "secondary-index-search"},
		{"udf body literal", sel(`idAbove($r) and $r.id < 9`), sel(`idAbove($r) and $r.id < 12`), "range:[5, 12)"},
		{"udf argument", sel(`summaryLike($r, 'great product')`), sel(`summaryLike($r, 'works fine')`), `"works"`},
		{"int then double", sel(`$r.id >= 3 and $r.id < 9`), sel(`$r.id >= 3.5 and $r.id < 9`), "range:[3.5, 9)"},
		{"double then string", sel(`$r.id >= 3.5 and $r.id < 9`), sel(`$r.id >= '3' and $r.id < 9`), `range:["3", 9)`},
		{"bounds on one side", sel(`$r.id >= 3 and $r.id > 5`), sel(`$r.id >= 6 and $r.id > 2`), "range:[6, +inf)"},
	} {
		t.Run(p.name, func(t *testing.T) {
			first := exec(t, c, sess, p.first)
			checkAgainstFresh(t, c, sess, p.first, first)
			second := exec(t, c, sess, p.second)
			checkAgainstFresh(t, c, sess, p.second, second)
			if plan := second.Stats.LogicalPlan(); !strings.Contains(plan, p.differ) || strings.Contains(first.Stats.LogicalPlan(), p.differ) {
				t.Errorf("the second plan should have %q and the first not:\n%s\nfirst:\n%s", p.differ, plan, first.Stats.LogicalPlan())
			}
		})
	}
	// A literal that does not read as a value fails the parse, also when
	// a plan of its shape, with that literal free, is cached.
	mustErr(t, c, sess, sel(`$r.id >= 3 and $r.id < 99999999999999999999`))
}

// TestPlanCacheWidensItsKeyedSlots: which literals a compile reads can
// depend on the values. Of two edit-distance conjuncts the index rule
// reads the second only when the first is its T <= 0 corner case, so
// the first request leaves the second conjunct's literals free and a
// later one keys them: the shape's set widens, its entries go, and
// every request still gets the plan a fresh compile gives it.
func TestPlanCacheWidensItsKeyedSlots(t *testing.T) {
	c, sess := loadShapeBench(t)
	q := func(first, second string) string {
		return `for $r in dataset Reviews where edit-distance($r.reviewerName, '` + first +
			`') <= 2 and edit-distance($r.reviewerName, '` + second + `') <= 1 return $r.id`
	}
	for i, step := range []struct {
		q           string
		hit, widens bool
	}{
		{q("abcdef", "Mario"), false, false},
		{q("abcdef", "Maria"), true, false}, // the second conjunct is free
		{q("ab", "Maria"), false, true},     // now it is read: the set widens
		{q("abcdef", "Mario"), false, false},
		{q("abcdef", "Mario"), true, false},
	} {
		before := c.planCache.Stats()
		res := exec(t, c, sess, step.q)
		widened := c.planCache.Stats().Invalidations > before.Invalidations
		if res.Stats.PlanCacheHit != step.hit || widened != step.widens {
			t.Errorf("request %d: hit %v, widened %v; want %v, %v", i, res.Stats.PlanCacheHit, widened, step.hit, step.widens)
		}
		checkAgainstFresh(t, c, sess, step.q, res)
	}
}

// TestPlanCacheShapesConcurrently runs requests of three shapes — one
// with free literals, one keyed on both of its literals, one keyed by
// the translator (a limit) — from several clients at once through a
// four-entry cache, so lookups, binds, stores and evictions interleave;
// every answer must be the one its own literals ask for.
func TestPlanCacheShapesConcurrently(t *testing.T) {
	c, _ := loadShapeBench(t)
	c.planCache = NewPlanCache(4)
	const clients, rounds = 4, 30
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := NewSession()
			for i := 0; i < rounds; i++ {
				lo := int64(1 + (w*97+i*31)%900)
				n := int64(1 + (w+i)%20)
				var q string
				var want int64
				switch i % 3 {
				case 0:
					q, want = fmt.Sprintf(`for $r in dataset ReviewsPlain where $r.id >= %d and $r.id < %d return $r.id`, lo, lo+n), n
				case 1:
					q, want = fmt.Sprintf(`for $r in dataset ReviewsPlain where $r.id >= %d and $r.id > %d return $r.id`, lo, lo+n), benchJoinRecords-lo-n
				case 2:
					q, want = fmt.Sprintf(`for $r in dataset ReviewsPlain limit %d return $r.id`, n), n
				}
				res, err := c.Execute(context.Background(), sess, q)
				if err == nil && int64(len(res.Rows)) != want {
					err = fmt.Errorf("%q returned %d rows, want %d", q, len(res.Rows), want)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := c.planCache.Stats(); st.Hits == 0 || st.Evictions == 0 {
		t.Errorf("plan cache %+v: the run needs hits and evictions", st)
	}
}
