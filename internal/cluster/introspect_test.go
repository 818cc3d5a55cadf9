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

// TestExplainBypassesPlanCache proves an explain request neither reads
// nor populates the cache entry of the equivalent bare query.
func TestExplainBypassesPlanCache(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	sess := NewSession()
	loadReviews(t, c, sess)

	exec(t, c, sess, `for $r in dataset Reviews return $r.id`) // cache the bare plan
	res := exec(t, c, sess, `explain analyze for $r in dataset Reviews return $r.id`)
	if res.Stats.PlanCacheHit {
		t.Fatal("explain analyze hit the plan cache")
	}
	res2 := exec(t, c, sess, `explain analyze for $r in dataset Reviews return $r.id`)
	if res2.Stats.PlanCacheHit {
		t.Fatal("repeated explain analyze hit the plan cache")
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
		// Several warm runs: however hot the text gets, its plan stays the
		// one explain printed.
		for run := 0; run < 5; run++ {
			res := exec(t, c, sess, q)
			if res.Stats.PlanCacheHit != (run > 0) {
				t.Fatalf("%s: run %d plan-cache hit = %v", name, run, res.Stats.PlanCacheHit)
			}
			if run == 0 && res.Stats.IndexSearches == 0 {
				t.Errorf("%s: selection did not use its index:\n%s", name, res.Stats.LogicalPlan)
			}
			plans[fmt.Sprintf("run %d", run)] = res.Stats.LogicalPlan
		}
		analyzed := exec(t, c, sess, "explain analyze "+q)
		plans["explain analyze"] = analyzed.Stats.LogicalPlan
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
	_, release, _, err := c.qm.admit(context.Background(), 0)
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

func TestSlowQueryRing(t *testing.T) {
	c, err := New(Config{NumNodes: 1, PartitionsPerNode: 1, DataDir: t.TempDir(),
		SlowQueryThreshold: time.Nanosecond}) // everything is slow
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetSlowQueryLogOutput(nopWriter{})
	sess := NewSession()
	loadReviews(t, c, sess)

	res := exec(t, c, sess, `for $r in dataset Reviews return $r.id`)
	recs := c.SlowQueries()
	if len(recs) == 0 {
		t.Fatal("no slow-query records retained")
	}
	if recs[0].QueryID != res.Stats.QueryID {
		t.Fatalf("ring head id %d, want %d", recs[0].QueryID, res.Stats.QueryID)
	}
	if recs[0].Query == "" || recs[0].WallNs <= 0 || recs[0].Rows != len(res.Rows) {
		t.Fatalf("ring record incomplete: %+v", recs[0])
	}

	// A streamed query keeps Result.Rows nil; its record still counts the
	// rows it delivered.
	var streamed int
	sres, err := c.ExecuteStream(context.Background(), sess, `for $r in dataset Reviews return $r.id`,
		StreamHandler{OnRow: func(adm.Value) error { streamed++; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if streamed == 0 || sres.Rows != nil {
		t.Fatalf("streamed %d rows, Result.Rows = %v", streamed, sres.Rows)
	}
	if rec := c.SlowQueries()[0]; rec.QueryID != sres.Stats.QueryID || rec.Rows != streamed {
		t.Fatalf("streamed query's ring record = %+v, want query %d with %d rows", rec, sres.Stats.QueryID, streamed)
	}
}

// TestLocalJobCarriesQueryLabel checks the half of a job a process runs
// through localJob.run — the coordinator's and every tcp worker's alike —
// from inside an operator: its goroutine shows up in a goroutine profile
// under the query's query_id label.
func TestLocalJobCarriesQueryLabel(t *testing.T) {
	var profile bytes.Buffer
	job := &hyracks.Job{}
	n := job.Add("Probe", 1, func() hyracks.Operator {
		return hyracks.OpFunc(func(*hyracks.TaskCtx, []*hyracks.PortReader, []*hyracks.Emitter) error {
			return pprof.Lookup("goroutine").WriteTo(&profile, 1)
		})
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

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }
