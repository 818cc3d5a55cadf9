package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"simdb/internal/adm"
	"simdb/internal/datagen"
	"simdb/internal/hyracks"
	"simdb/internal/obs/trace"
)

func TestQueryIDStamping(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	sess := NewSession()
	loadReviews(t, c, sess)

	r1 := exec(t, c, sess, `for $r in dataset Reviews return $r.id`)
	r2 := exec(t, c, sess, `for $r in dataset Reviews return $r.id`)
	if r1.Stats.QueryID == 0 || r2.Stats.QueryID == 0 {
		t.Fatalf("query IDs not assigned: %d, %d", r1.Stats.QueryID, r2.Stats.QueryID)
	}
	if r2.Stats.QueryID <= r1.Stats.QueryID {
		t.Fatalf("query IDs not increasing: %d then %d", r1.Stats.QueryID, r2.Stats.QueryID)
	}

	// Errors carry the ID in a typed payload.
	_, err := c.Execute(context.Background(), sess, `for $r in dataset Nope return $r`)
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("error is %T, want *QueryError", err)
	}
	if qe.QueryID <= r2.Stats.QueryID {
		t.Fatalf("error query id %d not after %d", qe.QueryID, r2.Stats.QueryID)
	}
	if !strings.Contains(err.Error(), "unknown dataset") {
		t.Fatalf("wrapped error lost its message: %v", err)
	}
}

func TestQueryTrace(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	sess := NewSession()
	loadReviews(t, c, sess)

	res := exec(t, c, sess, `for $r in dataset Reviews return $r.id`)
	tr, ok := c.Tracer().Get(res.Stats.QueryID)
	if !ok {
		t.Fatalf("no trace for query %d", res.Stats.QueryID)
	}
	if !tr.Done() || tr.Err() != "" {
		t.Fatalf("trace done=%v err=%q", tr.Done(), tr.Err())
	}
	names := map[string]int{}
	for _, s := range tr.Spans() {
		names[s.Name]++
	}
	for _, want := range []string{"admission", "plan-cache", "parse", "compile", "jobgen", "execute"} {
		if names[want] == 0 {
			t.Fatalf("trace missing %q span; have %v", want, names)
		}
	}
	// Operator spans hang under the execute phase.
	var opSpans int
	for _, s := range tr.Spans() {
		if s.Cat == "operator" {
			opSpans++
		}
	}
	if opSpans == 0 {
		t.Fatal("no operator spans recorded")
	}
	if buf, err := tr.ChromeJSON(c.Tracer()); err != nil || len(buf) == 0 {
		t.Fatalf("ChromeJSON: %v", err)
	}

	// Warm run: the plan-cache span reports a hit and compile is skipped.
	res2 := exec(t, c, sess, `for $r in dataset Reviews return $r.id`)
	if !res2.Stats.PlanCacheHit {
		t.Fatal("second run should hit the plan cache")
	}
	tr2, _ := c.Tracer().Get(res2.Stats.QueryID)
	var sawHit bool
	for _, s := range tr2.Spans() {
		if s.Name == "compile" {
			t.Fatal("warm trace has a compile span")
		}
		if s.Name == "plan-cache" {
			for _, a := range s.Args {
				if a.Key == "outcome" && a.Str == "hit" {
					sawHit = true
				}
			}
		}
	}
	if !sawHit {
		t.Fatal("warm trace's plan-cache span not marked hit")
	}
}

func TestExplain(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	sess := NewSession()
	loadReviews(t, c, sess)

	// Bare explain: plan text only, nothing executed.
	res := exec(t, c, sess, `explain for $r in dataset Reviews return $r.id`)
	if len(res.Rows) == 0 {
		t.Fatal("explain returned no rows")
	}
	if res.Stats.ExecNs != 0 {
		t.Fatal("bare explain executed the query")
	}
	var all []string
	for _, row := range res.Rows {
		all = append(all, row.Str())
	}
	plan := strings.Join(all, "\n")
	if !strings.Contains(plan, "data-scan") {
		t.Fatalf("explain output does not look like a plan:\n%s", plan)
	}

	// explain analyze: runs and annotates.
	res = exec(t, c, sess, `explain analyze for $r in dataset Reviews return $r.id`)
	report := rowsText(res)
	for _, want := range []string{"explain analyze (query ", "compile:", "logical plan:", "operator"} {
		if !strings.Contains(report, want) {
			t.Fatalf("explain analyze report missing %q:\n%s", want, report)
		}
	}
	if res.Stats.ExecNs == 0 {
		t.Fatal("explain analyze did not execute")
	}

	// Errors: explain without a body.
	mustErr(t, c, sess, `explain`)
}

func rowsText(res *Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		b.WriteString(row.Str())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestExplainSharesItsQuerysEntry: explain is a mode of the request, and
// the plan cache keys the text after it, so q, `explain q` and `explain
// analyze q` share one entry. A bare explain of a hit prints the entry's
// plan bound to its own literals, explain analyze of a hit says so in
// its header, an ablation session's explain leaves the cache alone, and
// a bare explain runs no statement but use and set.
func TestExplainSharesItsQuerysEntry(t *testing.T) {
	c, sess, _ := loadBenchJoin(t)
	q := fmt.Sprintf(idRangeQuery, 100, 110)
	base := c.planCache.Stats()
	exec(t, c, sess, q)

	res := exec(t, c, sess, "explain "+fmt.Sprintf(idRangeQuery, 500, 507))
	plan := rowsText(res)
	if !res.Stats.PlanCacheHit || !strings.Contains(plan, "range:[500, 507)") || strings.Contains(plan, "range:[100, 110)") {
		t.Errorf("explain of another range after q: hit %v, plan\n%s", res.Stats.PlanCacheHit, plan)
	}
	for run := 0; run < 2; run++ {
		res := exec(t, c, sess, "explain analyze "+q)
		header := strings.SplitN(rowsText(res), "\n", 2)[0]
		if !res.Stats.PlanCacheHit || !strings.HasSuffix(header, ", 10 rows, plan cache HIT") {
			t.Errorf("explain analyze run %d after q: hit %v, header %q", run, res.Stats.PlanCacheHit, header)
		}
	}
	if st := c.planCache.Stats(); st.Entries-base.Entries != 1 || st.Misses-base.Misses != 1 || st.Hits-base.Hits != 3 {
		t.Errorf("plan cache %+v -> %+v over q and three explains of its shape, want one entry, 1 miss and 3 hits", base, st)
	}

	before := c.planCache.Stats()
	for _, mode := range []string{"explain ", "explain analyze "} {
		if res := exec(t, c, freshSession(sess), mode+q); res.Stats.PlanCacheHit {
			t.Errorf("%sunder an options override hit the plan cache", mode)
		}
	}
	if after := c.planCache.Stats(); after != before {
		t.Errorf("explains under an options override moved the plan cache: %+v -> %+v", before, after)
	}

	mustErr(t, c, sess, "explain create dataset X primary key id; "+q)
	if _, ok := c.Catalog.Dataset("Default", "X"); ok {
		t.Error("a failed bare explain created its dataset")
	}
}

// TestExplainMatchesWhatRuns pins that there is one plan per query: the
// text `explain q` prints, the plan inside `explain analyze q`, and the
// plan the cold and every warm execution of q report are identical from
// the first execution on, for the CANON Jaccard and edit-distance
// selections over their indexes.
func TestExplainMatchesWhatRuns(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadSynthetic(t, c, sess, "ARevs", datagen.Amazon, 200)
	exec(t, c, sess, `create index xkw on ARevs(summary) type keyword;`)
	exec(t, c, sess, `create index xng on ARevs(reviewerName) type ngram(2);`)

	const ret = ` return {'id': $r.id, 'summary': $r.summary, 'reviewerName': $r.reviewerName}`
	for name, q := range map[string]string{
		"jaccard": `for $r in dataset ARevs
			where similarity-jaccard(word-tokens($r.summary), word-tokens('the great product of love')) >= 0.5` + ret,
		"edit-distance": `for $r in dataset ARevs
			where edit-distance($r.reviewerName, 'Mogo Bani') <= 1` + ret,
	} {
		explained := rowsText(exec(t, c, sess, "explain "+q))
		if lookup := planLine(explained, "primary-index-lookup"); !strings.Contains(lookup, "filter:[") {
			t.Errorf("%s: the lookup carries no record filter: %q", name, lookup)
		}
		plans := map[string]string{}
		// Several warm runs, every one a hit of the entry explain stored:
		// however hot the text gets, its plan stays the one explain
		// printed.
		for run := 0; run < 5; run++ {
			res := exec(t, c, sess, q)
			if !res.Stats.PlanCacheHit {
				t.Fatalf("%s: run %d plan-cache hit = %v", name, run, res.Stats.PlanCacheHit)
			}
			if run == 0 && res.Stats.IndexSearches == 0 {
				t.Errorf("%s: selection did not use its index:\n%s", name, res.Stats.LogicalPlan())
			}
			plans[fmt.Sprintf("run %d", run)] = res.Stats.LogicalPlan()
		}
		analyzed := exec(t, c, sess, "explain analyze "+q)
		plans["explain analyze"] = analyzed.Stats.LogicalPlan()
		for what, plan := range plans {
			if plan != explained {
				t.Errorf("%s: plan of %s differs from explain:\n%s\nexplain:\n%s", name, what, plan, explained)
			}
		}
		// The report embeds that same plan, indented under its header.
		report := rowsText(analyzed)
		indented := "  " + strings.ReplaceAll(strings.TrimRight(explained, "\n"), "\n", "\n  ") + "\n"
		if !strings.Contains(report, "logical plan:\n"+indented) {
			t.Errorf("%s: explain analyze report does not carry the explain plan:\n%s", name, report)
		}
	}
}

func TestActiveQueriesAndCancel(t *testing.T) {
	c, err := New(Config{NumNodes: 1, PartitionsPerNode: 1, DataDir: t.TempDir(), MaxConcurrentQueries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute(context.Background(), NewSession(), `create dataset D primary key id;`); err != nil {
		t.Fatal(err)
	}

	// Occupy the single admission slot directly so the next query is
	// held deterministically in the admission phase.
	_, release, _, err := c.qm.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := c.Execute(context.Background(), NewSession(), `for $x in dataset D return $x`)
		errCh <- err
	}()

	// The queued query must appear in ActiveQueries in the admission
	// phase, carrying its normalized text.
	var waiter ActiveQueryInfo
	deadline := time.After(5 * time.Second)
	for waiter.ID == 0 {
		select {
		case <-deadline:
			t.Fatal("queued query never appeared in ActiveQueries")
		default:
			time.Sleep(time.Millisecond)
		}
		for _, aq := range c.ActiveQueries() {
			if aq.Phase == "admission" {
				waiter = aq
			}
		}
	}
	if !strings.Contains(waiter.Query, "dataset D") {
		t.Fatalf("active query text = %q", waiter.Query)
	}
	if waiter.ElapsedNs <= 0 {
		t.Fatalf("active query elapsed = %d", waiter.ElapsedNs)
	}

	if !c.CancelQuery(waiter.ID) {
		t.Fatal("CancelQuery reported no such query")
	}
	err = <-errCh
	wg.Wait()
	if err == nil {
		t.Fatal("canceled query returned no error")
	}
	var qe *QueryError
	if !errors.As(err, &qe) || qe.QueryID != waiter.ID {
		t.Fatalf("canceled query error = %v", err)
	}
	if err := release(nil); err != nil {
		t.Fatal(err)
	}

	if c.CancelQuery(waiter.ID) {
		t.Fatal("CancelQuery found a finished query")
	}
	if len(c.ActiveQueries()) != 0 {
		t.Fatalf("queries still active: %+v", c.ActiveQueries())
	}
}

// slowRecord finds a query's record in the slow-query log.
func slowRecord(t *testing.T, c *Cluster, id uint64) SlowQueryRecord {
	t.Helper()
	recs := c.SlowQueries()
	for i, rec := range recs {
		if i > 0 && rec.WallNs > recs[i-1].WallNs {
			t.Fatalf("slow-query log not slowest first at %d: %+v", i, recs)
		}
	}
	for _, rec := range recs {
		if rec.QueryID == id {
			return rec
		}
	}
	t.Fatalf("slow-query log has no query %d", id)
	return SlowQueryRecord{}
}

// TestSlowQueryOutlivesFastOnes: the slow-query log keeps the slowest
// finished queries beside the newest, so one slow query is still listed,
// first, after 10 000 fast ones have finished behind it; the fast ones
// are the tracer's own records of finished queries, as every query
// leaves one.
func TestSlowQueryOutlivesFastOnes(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	c.tracer = trace.NewTracer(0)
	sess := NewSession()
	loadReviews(t, c, sess)
	c.SetSimNetLatency(20 * time.Millisecond)
	slow := exec(t, c, sess, `for $r in dataset Reviews return $r.id`)
	c.SetSimNetLatency(0)
	for i := 0; i < 10000; i++ {
		c.tracer.Start(trace.NextQueryID(), "fast").Finish(nil)
	}
	recs := c.SlowQueries()
	if len(recs) == 0 {
		t.Fatal("the slow-query log is empty")
	}
	if recs[0].QueryID != slow.Stats.QueryID || recs[0].WallNs < (20*time.Millisecond).Nanoseconds() {
		t.Fatalf("the slow query %d is not first in the slow-query log: %d records, first %+v", slow.Stats.QueryID, len(recs), recs[0])
	}
	if _, ok := c.Tracer().Get(slow.Stats.QueryID); !ok {
		t.Errorf("the slow query %d is in the log but its trace is not found", slow.Stats.QueryID)
	}
	if len(recs) > 128+trace.SlowestKept {
		t.Errorf("%d records, want at most the newest 128 and the %d slowest", len(recs), trace.SlowestKept)
	}
}

// TestSlowQueryRing reads the slow-query log, a view over the tracer's
// ring of finished queries, in the default configuration: each record
// carries the query's canonical text and its rows, which its trace
// records as arguments beside the plan-cache outcome and the phase
// split.
func TestSlowQueryRing(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	sess := NewSession()
	loadReviews(t, c, sess)

	res := exec(t, c, sess, "// it's\nfor $r in dataset Reviews\n\treturn   $r.id")
	rec := slowRecord(t, c, res.Stats.QueryID)
	if rec.Query != "for $r in dataset Reviews return $r.id" || rec.WallNs <= 0 || rec.Rows != len(res.Rows) ||
		rec.PlanCacheHit || rec.Error != "" {
		t.Fatalf("slow-query record incomplete: %+v", rec)
	}
	tr, ok := c.Tracer().Get(res.Stats.QueryID)
	if !ok {
		t.Fatalf("no trace for query %d", res.Stats.QueryID)
	}
	args := map[string]int64{}
	for _, a := range tr.Args() {
		args[a.Key] = a.Val
	}
	for _, key := range []string{"rows", "plan_cache_hit", "admission_ns", "compile_ns", "exec_ns"} {
		if _, ok := args[key]; !ok {
			t.Fatalf("trace args %v lack %q", args, key)
		}
	}
	if args["rows"] != int64(len(res.Rows)) || args["compile_ns"] <= 0 || args["exec_ns"] <= 0 {
		t.Fatalf("trace args = %v", args)
	}

	// A streamed query keeps Result.Rows nil; its record still counts the
	// rows it delivered, and the warm run is a plan-cache hit.
	var streamed int
	sres, err := c.ExecuteStream(context.Background(), sess, `for $r in dataset Reviews return $r.id`,
		StreamHandler{OnRow: func(adm.Value) error { streamed++; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if streamed == 0 || sres.Rows != nil {
		t.Fatalf("streamed %d rows, Result.Rows = %v", streamed, sres.Rows)
	}
	if rec := slowRecord(t, c, sres.Stats.QueryID); rec.Rows != streamed || !rec.PlanCacheHit {
		t.Fatalf("streamed query's record = %+v, want %d rows and a plan-cache hit", rec, streamed)
	}

	// A failed query is listed with its error.
	_, err = c.Execute(context.Background(), sess, `for $r in dataset Nope return $r`)
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("error is %T, want *QueryError", err)
	}
	if rec := slowRecord(t, c, qe.QueryID); !strings.Contains(rec.Error, "unknown dataset") {
		t.Fatalf("failed query's record = %+v", rec)
	}
}

// TestActiveQueryExecutePhase holds a streamed query inside its OnRow
// and reads it back from ActiveQueries in the execute phase.
func TestActiveQueryExecutePhase(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	sess := NewSession()
	loadReviews(t, c, sess)

	ids := make(chan uint64, 1)
	blocked := make(chan struct{})
	gate := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		first := true
		_, err := c.ExecuteStream(context.Background(), NewSession(), `for $r in dataset Reviews return $r.id`,
			StreamHandler{
				OnQueryID: func(id uint64) { ids <- id },
				OnRow: func(adm.Value) error {
					if first {
						first = false
						close(blocked)
						<-gate
					}
					return nil
				},
			})
		errCh <- err
	}()
	id := <-ids
	select {
	case <-blocked:
	case err := <-errCh:
		t.Fatalf("query ended before its first row was held: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no row reached OnRow")
	}
	var phase string
	for _, aq := range c.ActiveQueries() {
		if aq.ID == id {
			phase = aq.Phase
		}
	}
	close(gate)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if phase != "execute" {
		t.Fatalf("query %d held in OnRow is in phase %q, want execute", id, phase)
	}
}

// TestLocalJobCarriesQueryLabel checks the half of a job a process runs
// through localJob.run — the coordinator's and every tcp worker's alike —
// from inside an operator: its goroutine shows up in a goroutine profile
// under the query's query_id label.
func TestLocalJobCarriesQueryLabel(t *testing.T) {
	var profile bytes.Buffer
	job := &hyracks.Job{}
	n := job.Add("Probe", 1, func(*hyracks.TaskCtx, []*hyracks.PortReader, []*hyracks.Emitter) error {
		return pprof.Lookup("goroutine").WriteTo(&profile, 1)
	})
	n.OutPorts = 0
	lj := &localJob{job: job, topo: hyracks.Topology{Partitions: 1, PartsPerNode: 1, JobID: 4242}}
	if _, err := lj.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(profile.String(), `"query_id":"4242"`) {
		t.Fatalf("no goroutine labeled query_id=4242 in:\n%s", profile.String())
	}
}
