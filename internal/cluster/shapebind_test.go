package cluster

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"simdb/benchmark/gen"
	"simdb/internal/adm"
	"simdb/internal/algebra"
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
// printed the plan a fresh compile's `explain q` prints and returned the
// rows a fresh compile of q returns.
func checkAgainstFresh(t *testing.T, c *Cluster, sess *Session, q string, res *Result) {
	t.Helper()
	if got, want := res.Stats.LogicalPlan(), rowsText(exec(t, c, freshSession(sess), "explain "+q)); got != want {
		t.Fatalf("plan of %q (cache hit %v) differs from a fresh explain:\n%s\nexplain:\n%s", q, res.Stats.PlanCacheHit, got, want)
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
// every answer must be the one its own literals ask for. Half the
// clients send every other request as explain analyze, which shares the
// entries of its query, and read the row count from its report.
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
				analyze := w%2 == 1 && i%2 == 1
				if analyze {
					q = "explain analyze " + q
				}
				res, err := c.Execute(context.Background(), sess, q)
				if err == nil {
					got := int64(len(res.Rows))
					if analyze {
						got = reportedRows(rowsText(res))
					}
					if got != want {
						err = fmt.Errorf("%q returned %d rows, want %d", q, got, want)
					}
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

// reportedRows is the row count in the header of an explain analyze
// report, -1 if it has none.
func reportedRows(report string) int64 {
	header, _, _ := strings.Cut(report, "\n")
	_, after, ok := strings.Cut(header, ": wall ")
	var wall string
	var n int64 = -1
	if ok {
		fmt.Sscanf(after, "%s %d rows", &wall, &n)
	}
	return n
}

// idRangeQuery selects the ids of ReviewsPlain in [lo, hi): its two
// literals are free, so every request of it after the first is a hit
// of one entry.
const idRangeQuery = `for $r in dataset ReviewsPlain where $r.id >= %d and $r.id < %d return $r.id`

// cachedPlans prints the plan of every entry of the cache, by entry.
func cachedPlans(pc *PlanCache) map[*planEntry]string {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	plans := map[*planEntry]string{}
	for el := pc.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*planEntry)
		plans[e] = algebra.Print(e.plan)
	}
	return plans
}

// TestCachedPlanStaysUnchanged: a hit runs its entry's plan in place,
// so no request may write it. Four clients each run the benchmark join
// and a key-range selection 50 times, with free literals of their own,
// against one cache entry per shape: every answer must be its own
// literals', the two entries must still be the cache's, and each
// entry's plan must print byte for byte as before. Then explain analyze
// of the range selection, a hit twice, must print its own range each
// time.
func TestCachedPlanStaysUnchanged(t *testing.T) {
	c, sess, recs := loadBenchJoin(t)
	exec(t, c, sess, gen.Join{Start: 1}.AQL("ReviewsPlain"))
	exec(t, c, sess, fmt.Sprintf(idRangeQuery, 1, 2))
	before := cachedPlans(c.planCache)
	if len(before) != 2 {
		t.Fatalf("%d cache entries after one join and one selection, want 2", len(before))
	}

	tokens := summaryTokens(recs)
	var starts []gen.Join
	var refs []string
	for k := 0; k < 16; k++ {
		j := gen.Join{Start: int64(1 + k*61)}
		starts = append(starts, j)
		refs = append(refs, fmt.Sprint(joinReference(recs, tokens, j)))
	}
	const clients, rounds = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := NewSession()
			s.MemoryBudget = sess.MemoryBudget
			for i := 0; i < rounds; i++ {
				k := (w*5 + i) % len(starts)
				res, err := c.Execute(context.Background(), s, starts[k].AQL("ReviewsPlain"))
				if err == nil && fmt.Sprint(joinPairs(res)) != refs[k] {
					err = fmt.Errorf("join from %d returned %v, want %s", starts[k].Start, joinPairs(res), refs[k])
				}
				if err != nil {
					errs <- err
					return
				}
				lo := int64(1 + (w*97+i*31)%900)
				hi := lo + int64(1+(w+i)%20)
				res, err = c.Execute(context.Background(), s, fmt.Sprintf(idRangeQuery, lo, hi))
				if err == nil {
					for n, row := range sortedInts(res.Rows) {
						if row != lo+int64(n) {
							err = fmt.Errorf("ids [%d, %d) returned %v", lo, hi, res.Rows)
							break
						}
					}
					if int64(len(res.Rows)) != hi-lo {
						err = fmt.Errorf("ids [%d, %d) returned %d rows", lo, hi, len(res.Rows))
					}
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

	after := cachedPlans(c.planCache)
	if len(after) != len(before) {
		t.Fatalf("%d cache entries after the run, %d before", len(after), len(before))
	}
	for e, plan := range before {
		got, ok := after[e]
		switch {
		case !ok:
			t.Errorf("entry of\n%s\nleft the cache", plan)
		case got != plan:
			t.Errorf("a cached plan changed under its hits:\n%s\nbefore:\n%s", got, plan)
		}
	}
	if st := c.planCache.Stats(); st.Hits < 2*clients*rounds {
		t.Errorf("%d hits, want at least %d", st.Hits, 2*clients*rounds)
	}

	for _, tc := range []struct {
		lo, hi int
		want   string
	}{{100, 110, "range:[100, 110)"}, {500, 507, "range:[500, 507)"}} {
		res := exec(t, c, sess, "explain analyze "+fmt.Sprintf(idRangeQuery, tc.lo, tc.hi))
		if text := rowsText(res); !res.Stats.PlanCacheHit || !strings.Contains(text, tc.want) {
			t.Errorf("explain analyze of a hit (%v) does not print %s:\n%s", res.Stats.PlanCacheHit, tc.want, text)
		}
	}
}

// sortedInts returns the ints of rows in ascending order.
func sortedInts(rows []adm.Value) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r.Int()
	}
	slices.Sort(out)
	return out
}

// TestHitRuleTraceIsShared: a hit hands out its entry's rule trace as
// it is, capped at its length, so a reader's append copies it: neither
// the next hit's trace nor another reader's append sees it, whatever
// spare capacity the entry's trace has.
func TestHitRuleTraceIsShared(t *testing.T) {
	c, sess, _ := loadBenchJoin(t)
	exec(t, c, sess, fmt.Sprintf(idRangeQuery, 1, 5))
	for e := range cachedPlans(c.planCache) {
		e.ruleTrace = append(make([]string, 0, 2*len(e.ruleTrace)+1), e.ruleTrace...)
	}
	first := exec(t, c, sess, fmt.Sprintf(idRangeQuery, 2, 6))
	trace := first.Stats.RuleTrace
	if !first.Stats.PlanCacheHit || len(trace) == 0 {
		t.Fatalf("second run: hit %v, %d rules traced; want a hit with a trace", first.Stats.PlanCacheHit, len(trace))
	}
	want := fmt.Sprint(trace)
	mine := append(trace, "appended by a reader")

	second := exec(t, c, sess, fmt.Sprintf(idRangeQuery, 3, 7))
	if got := fmt.Sprint(second.Stats.RuleTrace); got != want {
		t.Errorf("the next hit's trace is %s, want %s", got, want)
	}
	if &second.Stats.RuleTrace[0] != &trace[0] {
		t.Error("the hits' traces are copies, want the entry's own")
	}
	theirs := append(second.Stats.RuleTrace, "appended by another")
	if mine[len(trace)] != "appended by a reader" || theirs[len(trace)] != "appended by another" {
		t.Errorf("two readers' appends share storage: %q, %q", mine[len(trace)], theirs[len(trace)])
	}
}
