package cluster

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"simdb/internal/optimizer"
)

// The index-eligible Jaccard selection over the Figure 1 reviews used
// by the tests below.
const profileQuery = `
	for $r in dataset Reviews
	where similarity-jaccard(word-tokens($r.summary),
	                         word-tokens('great product fantastic')) >= 0.5
	return $r.id
`

// opRow is one parsed line of explain analyze's operator table.
type opRow struct {
	raw                       string
	name                      string
	inst                      int
	busy                      string // as printed: a time.Duration
	in, out, frames, netBytes int64
}

// parseOpTable extracts the operator table from an explain analyze
// report: the lines after the "operator inst ..." header up to the
// first line that is not nine right-hand columns behind a name.
func parseOpTable(t *testing.T, report string) []opRow {
	t.Helper()
	lines := strings.Split(report, "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "operator ") {
			if got := strings.Fields(l); strings.Join(got, " ") != "operator inst wall busy in out frames netbytes spills spillbytes" {
				t.Fatalf("operator table header = %q", l)
			}
			start = i + 1
			break
		}
	}
	if start < 0 {
		t.Fatalf("no operator table in report:\n%s", report)
	}
	var rows []opRow
	for _, l := range lines[start:] {
		f := strings.Fields(l)
		if len(f) < 10 {
			break
		}
		n := len(f)
		inst, err := strconv.Atoi(f[n-9])
		if err != nil {
			break
		}
		num := func(s string) int64 {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				t.Fatalf("operator row %q: %v", l, err)
			}
			return v
		}
		rows = append(rows, opRow{
			raw: l, name: strings.Join(f[:n-9], " "), inst: inst, busy: f[n-7],
			in: num(f[n-6]), out: num(f[n-5]), frames: num(f[n-4]), netBytes: num(f[n-3]),
		})
	}
	return rows
}

// TestExplainAnalyzeOperatorTable pins the one operator table: a row per
// operator of the job (same-named operators stay apart), in job order on
// every run, with inst equal to the operator's instance count and every
// figure equal to the fold of the instance list Result.Stats carries.
func TestExplainAnalyzeOperatorTable(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	loadReviews(t, c, sess)
	exec(t, c, sess, `create index kw on Reviews(summary) type keyword;`)
	noReuse := optimizer.DefaultOptions()
	noReuse.ReuseSubplans = false

	for _, tc := range []struct {
		name      string
		opts      *optimizer.Options
		query     string
		wantScans int // rows named DataScan(Reviews), at least
	}{
		{name: "indexed selection", query: profileQuery},
		{name: "scan selection", wantScans: 1, query: `
			for $r in dataset Reviews where edit-distance($r.username, 'marla') <= 1 return $r.id`},
		// Without subplan reuse every branch of the three-stage join scans
		// Reviews itself: several operators share the name DataScan(Reviews)
		// and only their IDs tell them apart.
		{name: "jaccard self-join", opts: &noReuse, wantScans: 2, query: `
			for $a in dataset Reviews for $b in dataset Reviews
			where similarity-jaccard(word-tokens($a.summary), word-tokens($b.summary)) >= 0.5
			  and $a.id < $b.id
			return {'a': $a.id, 'b': $b.id}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			qsess := NewSession()
			qsess.Opts = tc.opts
			// Job order, from a compile of the same text that runs nothing.
			plan, _, err := c.Compile(qsess, tc.query)
			if err != nil {
				t.Fatal(err)
			}
			job, _, err := c.GenerateJob(plan, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			nodes := job.Nodes()

			for run := 0; run < 20; run++ {
				res := exec(t, c, qsess, "explain analyze "+tc.query)
				rows := parseOpTable(t, rowsText(res))
				if len(rows) != len(nodes) {
					t.Fatalf("run %d: %d table rows for %d job operators:\n%s", run, len(rows), len(nodes), rowsText(res))
				}
				// The test's own fold of the instance list, keyed by ID.
				type sums struct {
					n                            int
					busy, in, out, frames, bytes int64
				}
				fold := map[int]*sums{}
				for _, sp := range res.Stats.Spans {
					s := fold[sp.ID]
					if s == nil {
						s = &sums{}
						fold[sp.ID] = s
					}
					s.n++
					s.busy += sp.BusyNs
					s.in += sp.TuplesIn
					s.out += sp.TuplesOut
					s.frames += sp.FramesSent
					s.bytes += sp.BytesMoved
				}
				scans := 0
				for i, row := range rows {
					n := nodes[i]
					if row.name != n.Name || row.inst != n.Parts {
						t.Fatalf("run %d row %d = %q inst %d, job operator %d is %q with %d instances",
							run, i, row.name, row.inst, n.ID, n.Name, n.Parts)
					}
					if row.name == "DataScan(Reviews)" {
						scans++
						if row.inst != c.Config().Partitions() {
							t.Errorf("run %d: scan row has inst %d, want Partitions() = %d", run, row.inst, c.Config().Partitions())
						}
					}
					s := fold[n.ID]
					if s == nil {
						t.Fatalf("run %d: no instance record for operator %d (%s)", run, n.ID, n.Name)
					}
					if s.n != row.inst || time.Duration(s.busy).String() != row.busy ||
						s.in != row.in || s.out != row.out || s.frames != row.frames || s.bytes != row.netBytes {
						t.Errorf("run %d: row %q != fold of Stats.Spans %+v", run, row.raw, *s)
					}
				}
				if scans < tc.wantScans {
					t.Fatalf("run %d: %d DataScan(Reviews) rows, want >= %d:\n%s", run, scans, tc.wantScans, rowsText(res))
				}
			}
		})
	}
}

// TestSimilarityFunnelOnStats asserts the candidate funnel of Table 6 on
// the Stats of a plain query, cold and warm: nothing has to be switched
// on to get it.
func TestSimilarityFunnelOnStats(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	loadReviews(t, c, sess)
	exec(t, c, sess, `create index kw on Reviews(summary) type keyword;`)

	res := exec(t, c, sess, profileQuery)
	if len(res.Rows) == 0 {
		t.Fatal("query returned no rows")
	}
	st := res.Stats
	if st.PlanCacheHit {
		t.Error("first execution reported a plan-cache hit")
	}
	if st.ParseNs <= 0 || st.TranslateNs <= 0 || st.OptimizeNs <= 0 || st.ExecNs <= 0 {
		t.Errorf("phase timings not recorded: %+v", st)
	}
	if st.RowsOut != int64(len(res.Rows)) {
		t.Errorf("RowsOut = %d, want %d", st.RowsOut, len(res.Rows))
	}
	if st.IndexSearches == 0 || st.OccurrenceT <= 0 || st.PostingsRead <= 0 {
		t.Fatalf("similarity query did not use the index: T=%d searches=%d postings=%d",
			st.OccurrenceT, st.IndexSearches, st.PostingsRead)
	}
	if st.CandidatesTotal < st.VerifiedTotal || st.VerifiedTotal < int64(len(res.Rows)) {
		t.Errorf("funnel out of order: candidates %d, verified %d, rows %d",
			st.CandidatesTotal, st.VerifiedTotal, len(res.Rows))
	}
	var verify bool
	for _, op := range st.PhysicalOps() {
		verify = verify || strings.Contains(op.Name, "Select(verify)")
	}
	if !verify {
		t.Errorf("no Select(verify) operator: %+v", st.PhysicalOps())
	}
	var tuplesOut int64
	for _, sp := range st.Spans {
		tuplesOut += sp.TuplesOut
	}
	if tuplesOut == 0 {
		t.Error("instance records moved zero tuples")
	}

	// Warm re-execution: compile phases vanish, the funnel is the same.
	res2 := exec(t, c, sess, profileQuery)
	st2 := res2.Stats
	if !st2.PlanCacheHit {
		t.Fatal("second execution missed the plan cache")
	}
	if st2.ParseNs != 0 || st2.TranslateNs != 0 || st2.OptimizeNs != 0 {
		t.Errorf("warm hit still reports compile work: %+v", st2)
	}
	if got, want := rowInts(t, res2.Rows), rowInts(t, res.Rows); len(got) != len(want) {
		t.Errorf("warm rows %v != cold rows %v", got, want)
	}
	if st2.OccurrenceT != st.OccurrenceT || st2.IndexSearches != st.IndexSearches ||
		st2.PostingsRead != st.PostingsRead || st2.CandidatesTotal != st.CandidatesTotal ||
		st2.VerifiedTotal != st.VerifiedTotal || len(st2.Spans) != len(st.Spans) {
		t.Errorf("warm funnel differs from cold:\ncold %+v\nwarm %+v", st, st2)
	}
}

// TestSetProfileIsUnknownProperty pins the removal: there is no profile
// setting to turn on, junk or not.
func TestSetProfileIsUnknownProperty(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	_, err := c.Execute(context.Background(), NewSession(), `set profile 'on';`)
	if err == nil || !strings.Contains(err.Error(), `unknown set property "profile"`) {
		t.Fatalf("set profile 'on' = %v, want the unknown-property error", err)
	}
}

func TestAdmissionTypedErrors(t *testing.T) {
	m := newQueryManager(1, 0, 0, 0)
	_, rel, _, err := m.admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}

	// Second caller with a deadline: admission times out.
	shortCtx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, _, err = m.admit(shortCtx, 0)
	if !errors.Is(err, ErrAdmissionTimeout) {
		t.Fatalf("err = %v, want ErrAdmissionTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want to unwrap to DeadlineExceeded", err)
	}
	if errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("admission timeout misclassified as execution timeout: %v", err)
	}

	// Third caller abandons the wait: canceled, not timed out.
	canceledCtx, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	_, _, _, err = m.admit(canceledCtx, 0)
	if !errors.Is(err, ErrAdmissionCanceled) {
		t.Fatalf("err = %v, want ErrAdmissionCanceled", err)
	}
	if errors.Is(err, ErrAdmissionTimeout) {
		t.Fatalf("cancellation misclassified as timeout: %v", err)
	}

	if err := rel(nil); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Rejected != 2 || st.TimedOut != 0 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReleaseClassifiesExecutionTimeout(t *testing.T) {
	m := newQueryManager(1, time.Millisecond, 0, 0)
	qctx, rel, _, err := m.admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	<-qctx.Done() // per-query deadline fires
	got := rel(qctx.Err())
	if !errors.Is(got, ErrQueryTimeout) {
		t.Fatalf("err = %v, want ErrQueryTimeout", got)
	}
	st := m.Stats()
	if st.TimedOut != 1 || st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// An error with the caller's own context done is NOT an execution
	// timeout: the client went away.
	ctx, cancel := context.WithCancel(context.Background())
	qctx2, rel2, _, err := m.admit(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	<-qctx2.Done()
	got = rel2(qctx2.Err())
	if errors.Is(got, ErrQueryTimeout) {
		t.Fatalf("client cancellation misclassified as execution timeout: %v", got)
	}
}
