package cluster

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"simdb/internal/adm"
	"simdb/internal/invindex"
	"simdb/internal/obs"
	"simdb/internal/obs/trace"
	"simdb/internal/optimizer"
)

// TestMain installs the tcp-transport worker hook: the equivalence
// tests below re-execute this test binary as worker child processes,
// and the hook diverts those re-executions into the worker loop before
// the testing framework starts.
func TestMain(m *testing.M) {
	MaybeRunWorker()
	os.Exit(m.Run())
}

// transportPair opens two clusters over identical data — one inproc,
// one whose remote node runs as a separate OS process reached over TCP
// loopback — so each query class can be asserted transport-equivalent.
func transportPair(t *testing.T) (inproc, tcp *Cluster) {
	t.Helper()
	return transportPairConfig(t, Config{})
}

// transportPairConfig is transportPair over cfg, whose node, partition,
// directory and transport settings it overrides.
func transportPairConfig(t *testing.T, cfg Config) (inproc, tcp *Cluster) {
	t.Helper()
	open := func(transport string) *Cluster {
		cfg := cfg
		cfg.NumNodes, cfg.PartitionsPerNode = 2, 2
		cfg.DataDir, cfg.Transport = t.TempDir(), transport
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%s): %v", transport, err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	inproc, tcp = open("inproc"), open("tcp")
	for _, c := range []*Cluster{inproc, tcp} {
		sess := NewSession()
		exec(t, c, sess, `create dataset EqReviews primary key id;`)
		var batch []adm.Value
		for _, r := range equivRecords() {
			batch = append(batch, r)
		}
		if err := c.InsertBatch("Default", "EqReviews", batch); err != nil {
			t.Fatal(err)
		}
		if err := c.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	return inproc, tcp
}

// equivRecords builds a deterministic 240-record dataset: usernames
// drawn from a small pool with suffix noise (so edit-distance and ngram
// lookups have non-trivial candidate sets) and multi-word summaries
// over a 12-word vocabulary (so Jaccard joins and token group-bys
// produce real cross-partition traffic).
func equivRecords() []adm.Value {
	names := []string{"james", "mary", "mario", "jamie", "maria", "marla", "johnny", "joanna"}
	vocab := []string{"great", "product", "fantastic", "quality", "movie", "heart",
		"charger", "gift", "best", "ever", "works", "fine"}
	recs := make([]adm.Value, 0, 240)
	for i := 0; i < 240; i++ {
		name := names[i%len(names)]
		if i%5 == 0 {
			name += fmt.Sprintf("%d", i%10)
		}
		var summary string
		for w, nw := 0, 3+(i*7)%6; w < nw; w++ {
			if w > 0 {
				summary += " "
			}
			summary += vocab[(i*13+w*5)%len(vocab)]
		}
		rec := adm.EmptyRecord(3)
		rec.Set("id", adm.NewInt(int64(i)))
		rec.Set("username", adm.NewString(name))
		rec.Set("summary", adm.NewString(summary))
		recs = append(recs, adm.NewRecord(rec))
	}
	return recs
}

// rowFingerprints reduces a result to a sorted order-insensitive
// multiset fingerprint of its rows.
func rowFingerprints(rows []adm.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(adm.OrderedKey(r))
	}
	sort.Strings(out)
	return out
}

// assertEquivalent runs src on both clusters with equally-configured
// sessions and asserts identical row multisets. Order-sensitive queries
// stay order-sensitive: rows are compared as ordered lists first and
// only reported as multisets on mismatch for readability.
func assertEquivalent(t *testing.T, inproc, tcp *Cluster, mkSess func() *Session, src string) (*Result, *Result) {
	t.Helper()
	a := exec(t, inproc, mkSess(), src)
	b := exec(t, tcp, mkSess(), src)
	fa, fb := rowFingerprints(a.Rows), rowFingerprints(b.Rows)
	if fmt.Sprint(fa) != fmt.Sprint(fb) {
		t.Errorf("transports disagree on %q:\n inproc: %d rows\n tcp:    %d rows", src, len(a.Rows), len(b.Rows))
	}
	return a, b
}

func plainSession() *Session { return NewSession() }

func noIndexSession() *Session {
	sess := NewSession()
	opts := optimizer.DefaultOptions()
	opts.UseIndexes = false
	sess.Opts = &opts
	return sess
}

// TestTransportEquivalence is the acceptance suite for the tcp
// transport: every cluster integration query class — scan, similarity
// index search, joins, spilling sort and group-by, and cancel
// mid-flight — must behave identically whether node 1 shares the
// coordinator's process (inproc channels) or runs as a separate OS
// process shipping frames over TCP loopback.
func TestTransportEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	inproc, tcp := transportPair(t)

	t.Run("scan", func(t *testing.T) {
		res, _ := assertEquivalent(t, inproc, tcp, noIndexSession, `
			for $r in dataset EqReviews
			where edit-distance($r.username, 'marla') <= 1
			return $r.id`)
		if len(res.Rows) == 0 {
			t.Error("scan selection found nothing")
		}
	})

	t.Run("scan-filter", func(t *testing.T) {
		// The worker re-derives the plan from the query text, so it must
		// derive the scan's record filter too. A scan instance reports rows
		// read as its tuples in only when it ran with a filter: were the
		// worker's scans unfiltered, the table would show fewer rows read
		// than the dataset has and more emitted than the query returns.
		const q = `
			for $r in dataset EqReviews
			where similarity-jaccard(word-tokens($r.summary), word-tokens('great heart works')) >= 0.6
			return $r.id`
		res, _ := assertEquivalent(t, inproc, tcp, noIndexSession, q)
		if len(res.Rows) == 0 || len(res.Rows) >= 120 {
			t.Fatalf("selection returned %d of 240 rows; the case needs a selective query with an answer", len(res.Rows))
		}
		for name, c := range map[string]*Cluster{"inproc": inproc, "tcp": tcp} {
			report := rowsText(exec(t, c, noIndexSession(), "explain analyze "+q))
			if !strings.Contains(report, "filter:[similarity-jaccard(word-tokens(summary), ") {
				t.Errorf("%s: plan carries no filter:\n%s", name, report)
			}
			found := false
			for _, row := range parseOpTable(t, report) {
				if row.name == "DataScan(EqReviews)" {
					found = true
					if row.inst != 4 || row.in != 240 || row.out != int64(len(res.Rows)) {
						t.Errorf("%s: scan row %q, want 4 instances reading 240 rows and emitting %d", name, row.raw, len(res.Rows))
					}
				}
			}
			if !found {
				t.Errorf("%s: no DataScan(EqReviews) row:\n%s", name, report)
			}
		}
	})

	t.Run("tcp-counters", func(t *testing.T) {
		// Guard against a silent fallback to in-process execution: a
		// hash-repartition forces the coordinator's own partitions to send
		// frames to the worker process, so the (sender-side) tcp transport
		// counters must advance in this process.
		before := obs.Default().Snapshot().Counters
		res := exec(t, tcp, plainSession(), `
			for $r in dataset EqReviews
			for $tok in word-tokens($r.summary)
			/*+ hash */ group by $g := $tok with $r
			order by $g
			return { 't': $g, 'n': count($r) }`)
		if len(res.Rows) == 0 {
			t.Fatal("hash group-by returned nothing")
		}
		after := obs.Default().Snapshot().Counters
		for _, name := range []string{
			"hyracks.transport.tcp.frames",
			"hyracks.transport.tcp.bytes",
			"hyracks.transport.tcp.streams",
		} {
			if after[name] <= before[name] {
				t.Errorf("%s did not advance (%d -> %d)", name, before[name], after[name])
			}
		}
	})

	t.Run("comprehension", func(t *testing.T) {
		// Every comprehension shape: the worker compiles the shipped text
		// to the same job, so both sides return the reference's rows from
		// the same operators.
		recs := compRecs(equivRecords())
		for _, s := range compShapes {
			a, b := assertEquivalent(t, inproc, tcp, plainSession, s.q("EqReviews"))
			checkCompShape(t, s, a, recs)
			checkCompShape(t, s, b, recs)
			var na, nb []string
			for _, op := range a.Stats.PhysicalOps() {
				na = append(na, op.Name)
			}
			for _, op := range b.Stats.PhysicalOps() {
				nb = append(nb, op.Name)
			}
			if fmt.Sprint(na) != fmt.Sprint(nb) {
				t.Errorf("%s: operators differ:\n inproc: %v\n tcp:    %v", s.name, na, nb)
			}
		}
	})

	t.Run("count", func(t *testing.T) {
		res, _ := assertEquivalent(t, inproc, tcp, plainSession,
			`count(for $r in dataset EqReviews return $r.id)`)
		if len(res.Rows) != 1 || res.Rows[0].Int() != 240 {
			t.Errorf("count = %v, want [240]", res.Rows)
		}
	})

	// Build identical secondary indexes on both clusters, then assert
	// the index-backed similarity selections agree and actually touched
	// the inverted index on both sides.
	for _, c := range []*Cluster{inproc, tcp} {
		sess := NewSession()
		exec(t, c, sess, `create index eq_nix on EqReviews(username) type ngram(2);`)
		exec(t, c, sess, `create index eq_kwx on EqReviews(summary) type keyword;`)
	}

	t.Run("index-search", func(t *testing.T) {
		a, b := assertEquivalent(t, inproc, tcp, plainSession, `
			for $r in dataset EqReviews
			where edit-distance($r.username, 'marla') <= 1
			return $r.id`)
		if a.Stats.IndexSearches == 0 || b.Stats.IndexSearches == 0 {
			t.Errorf("index searches: inproc %d, tcp %d — both must use the ngram index",
				a.Stats.IndexSearches, b.Stats.IndexSearches)
		}
		aj, bj := assertEquivalent(t, inproc, tcp, plainSession, `
			for $r in dataset EqReviews
			where similarity-jaccard(word-tokens($r.summary), word-tokens('great product fantastic')) >= 0.6
			return $r.id`)
		if aj.Stats.IndexSearches == 0 || bj.Stats.IndexSearches == 0 {
			t.Errorf("jaccard index searches: inproc %d, tcp %d",
				aj.Stats.IndexSearches, bj.Stats.IndexSearches)
		}
	})

	t.Run("join", func(t *testing.T) {
		res, _ := assertEquivalent(t, inproc, tcp, plainSession, `
			set simfunction 'jaccard';
			set simthreshold '0.8';
			for $a in dataset EqReviews
			for $b in dataset EqReviews
			where word-tokens($a.summary) ~= word-tokens($b.summary) and $a.id < $b.id
			return { 'l': $a.id, 'r': $b.id }`)
		if len(res.Rows) == 0 {
			t.Error("three-stage jaccard join found no pairs")
		}
	})

	t.Run("join-memo", func(t *testing.T) {
		// The three-stage plan twice: the second in-process run replays
		// the join memo's two entries; tcp runs every subplan both times
		// (the memo is off).
		for run := 0; run < 2; run++ {
			res, tres := assertEquivalent(t, inproc, tcp, noIndexSession, `
				for $a in dataset EqReviews
				for $b in dataset EqReviews
				where similarity-jaccard(word-tokens($a.summary), word-tokens($b.summary)) >= 0.8
				and $a.id < 60 and $a.id < $b.id
				return { 'l': $a.id, 'r': $b.id }`)
			if len(res.Rows) == 0 {
				t.Error("three-stage jaccard join found no pairs")
			}
			if len(res.Stats.Memo) != 2 || len(tres.Stats.Memo) != 2 {
				t.Fatalf("memo outcomes inproc %v, tcp %v; want two memo operators", res.Stats.Memo, tres.Stats.Memo)
			}
			for key, o := range tres.Stats.Memo {
				if o != memoOff {
					t.Errorf("tcp run %d: memo %s is %s, want off", run, key, o)
				}
			}
			for key, o := range res.Stats.Memo {
				if run == 1 && o != memoHit {
					t.Errorf("second inproc run: memo %s is %s, want hit", key, o)
				}
			}
		}
	})

	t.Run("spilling-sort-groupby", func(t *testing.T) {
		budgeted := func() *Session {
			sess := NewSession()
			sess.MemoryBudget = 256 << 10
			return sess
		}
		res, _ := assertEquivalent(t, inproc, tcp, budgeted, `
			for $r in dataset EqReviews
			order by $r.username, $r.id
			return $r.id`)
		if len(res.Rows) != 240 {
			t.Errorf("sort returned %d rows", len(res.Rows))
		}
		assertEquivalent(t, inproc, tcp, budgeted, `
			for $r in dataset EqReviews
			for $tok in word-tokens($r.summary)
			/*+ hash */ group by $g := $tok with $r
			order by $g
			return { 't': $g, 'n': count($r) }`)
	})

	t.Run("one-operator-record", func(t *testing.T) {
		// The worker's instances reach the coordinator's result, operator
		// table and trace through the job reply: a tcp query reports what
		// the same query reports inproc, up to timings and wire framing.
		budgeted := func() *Session {
			sess := NewSession()
			sess.MemoryBudget = 64 << 10
			return sess
		}
		const q = `
			explain analyze
			for $r in dataset EqReviews
			for $tok in word-tokens($r.summary)
			/*+ hash */ group by $g := $tok with $r
			order by $g
			return { 't': $g, 'n': count($r) }`
		a, b := exec(t, inproc, budgeted(), q), exec(t, tcp, budgeted(), q)
		ra, rb := parseOpTable(t, rowsText(a)), parseOpTable(t, rowsText(b))
		if len(ra) == 0 || len(ra) != len(rb) {
			t.Fatalf("operator tables: inproc %d rows, tcp %d rows", len(ra), len(rb))
		}
		for i := range ra {
			x, y := ra[i], rb[i]
			if x.name != y.name || x.inst != y.inst || x.in != y.in || x.out != y.out || x.frames != y.frames {
				t.Errorf("operator row %d differs:\n inproc: %s\n tcp:    %s", i, x.raw, y.raw)
			}
		}

		// The stats fields the benchmark harness reads keep their meaning.
		sa, sb := a.Stats, b.Stats
		if sa.NetMessages == 0 || sa.NetMessages != sb.NetMessages || sa.MaxNodeTuples != sb.MaxNodeTuples {
			t.Errorf("NetMessages %d vs %d, MaxNodeTuples %d vs %d", sa.NetMessages, sb.NetMessages, sa.MaxNodeTuples, sb.MaxNodeTuples)
		}
		// tcp charges actual wire bytes (frame header included), inproc the
		// encoded-size estimate: close, not equal.
		if lo, hi := sa.BytesShuffled*3/4, sa.BytesShuffled*5/4; sb.BytesShuffled < lo || sb.BytesShuffled > hi {
			t.Errorf("BytesShuffled: inproc %d, tcp %d", sa.BytesShuffled, sb.BytesShuffled)
		}
		for name, st := range map[string]QueryStats{"inproc": sa, "tcp": sb} {
			// Two nodes: the busier one carries between half and all of it.
			if st.TotalBusyNs <= 0 || st.MaxNodeBusyNs < st.TotalBusyNs/2 || st.MaxNodeBusyNs >= st.TotalBusyNs {
				t.Errorf("%s: MaxNodeBusyNs %d of TotalBusyNs %d", name, st.MaxNodeBusyNs, st.TotalBusyNs)
			}
			var opRuns, node1 int64
			for _, sp := range st.Spans {
				opRuns += sp.SpillRuns
				if sp.Node == 1 {
					node1++
				}
			}
			if st.SpillRuns == 0 || st.SpilledBytes == 0 || st.SpillRuns != opRuns {
				t.Errorf("%s: SpillRuns %d (instances sum to %d), SpilledBytes %d", name, st.SpillRuns, opRuns, st.SpilledBytes)
			}
			if node1 == 0 || node1 >= int64(len(st.Spans)) {
				t.Errorf("%s: %d of %d instance records on node 1", name, node1, len(st.Spans))
			}
		}

		// The coordinator's trace of the tcp query has every instance as an
		// operator span, the worker's on node 1's lane.
		tr, ok := tcp.Tracer().Get(sb.QueryID)
		if !ok {
			t.Fatalf("no trace for tcp query %d", sb.QueryID)
		}
		var opSpans, onNode1 int
		for _, s := range tr.Spans() {
			if s.Cat == trace.CatOperator {
				opSpans++
				if s.Node == 1 {
					onNode1++
				}
			}
		}
		if opSpans != len(sb.Spans) || onNode1 == 0 {
			t.Errorf("tcp trace: %d operator spans (%d on node 1) for %d instances", opSpans, onNode1, len(sb.Spans))
		}
	})

	t.Run("cancel-mid-flight", func(t *testing.T) {
		// A nested-loop similarity self-join is expensive enough that a
		// short deadline lands mid-execution; both transports must abort
		// cleanly and stay usable for the next query.
		heavy := `
			for $a in dataset EqReviews
			for $b in dataset EqReviews
			where similarity-jaccard(word-tokens($a.summary), word-tokens($b.summary)) >= 0.9
			  and $a.id < $b.id
			return { 'l': $a.id, 'r': $b.id }`
		for name, c := range map[string]*Cluster{"inproc": inproc, "tcp": tcp} {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
			_, err := c.Execute(ctx, noIndexSession(), heavy)
			cancel()
			if err == nil {
				t.Logf("%s: heavy join finished inside the deadline (fast host)", name)
			}
		}
		// Whatever happened above, both clusters must still answer.
		res, _ := assertEquivalent(t, inproc, tcp, plainSession,
			`count(for $r in dataset EqReviews return $r.id)`)
		if res.Rows[0].Int() != 240 {
			t.Errorf("post-cancel count = %v", res.Rows)
		}
	})
}

// TestTransportEquivalenceInsertAndDDL covers the storage control plane
// over the transport: inserts routed to remote partitions, flush,
// secondary-index builds, and dataset drop all going through the worker
// RPCs, with results matching the inproc cluster.
func TestTransportEquivalenceInsertAndDDL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	inproc, tcp := transportPair(t)

	for _, c := range []*Cluster{inproc, tcp} {
		sess := NewSession()
		exec(t, c, sess, `create dataset EqExtra primary key id;`)
		var batch []adm.Value
		for i := 0; i < 40; i++ {
			rec := adm.EmptyRecord(2)
			rec.Set("id", adm.NewInt(int64(1000+i)))
			rec.Set("name", adm.NewString(fmt.Sprintf("user%03d", i)))
			batch = append(batch, adm.NewRecord(rec))
		}
		if err := c.InsertBatch("Default", "EqExtra", batch); err != nil {
			t.Fatal(err)
		}
		if err := c.FlushAll(); err != nil {
			t.Fatal(err)
		}
		exec(t, c, sess, `create index eq_ex on EqExtra(name) type ngram(2);`)
	}

	assertEquivalent(t, inproc, tcp, plainSession, `
		for $r in dataset EqExtra
		where edit-distance($r.name, 'user001') <= 1
		return $r.id`)

	for _, c := range []*Cluster{inproc, tcp} {
		exec(t, c, NewSession(), `drop dataset EqExtra;`)
		mustErr(t, c, NewSession(), `for $r in dataset EqExtra return $r.id`)
	}

	// The original dataset is untouched by the drop on both transports.
	assertEquivalent(t, inproc, tcp, plainSession,
		`count(for $r in dataset EqReviews return $r.id)`)
}

// TestSolverTravelsWithTheJob: the T-occurrence solver is resolved once
// per job on the coordinator and handed to the worker in the job
// request, so the worker's half of a search reads what the
// coordinator's half of the same search would — under every solver the
// postings read over tcp equal the postings read inproc — and a worker
// keeps no solver of its own between jobs: switching back and forth
// never leaves it on the previous one.
func TestSolverTravelsWithTheJob(t *testing.T) {
	inproc, tcp := transportPair(t)
	for _, c := range []*Cluster{inproc, tcp} {
		exec(t, c, NewSession(), `create index eqkw on EqReviews(summary) type keyword;`)
	}
	const q = `for $r in dataset EqReviews
		where similarity-jaccard(word-tokens($r.summary), word-tokens('great heart works product')) >= 0.5
		return $r.id`
	read := map[invindex.Algorithm]int64{}
	for _, algo := range []invindex.Algorithm{invindex.ScanCount, invindex.DivideSkip, invindex.MergeSkip, invindex.ScanCount} {
		inproc.SetTOccurrenceAlgorithm(algo)
		tcp.SetTOccurrenceAlgorithm(algo)
		a, b := assertEquivalent(t, inproc, tcp, plainSession, q)
		if a.Stats.IndexSearches == 0 || len(a.Rows) == 0 {
			t.Fatalf("%v: %d index searches, %d rows: the query does not search the index", algo, a.Stats.IndexSearches, len(a.Rows))
		}
		if a.Stats.PostingsRead != b.Stats.PostingsRead {
			t.Errorf("%v: %d postings read inproc, %d over tcp: the worker ran another solver",
				algo, a.Stats.PostingsRead, b.Stats.PostingsRead)
		}
		read[algo] = a.Stats.PostingsRead
	}
	if read[invindex.DivideSkip] >= read[invindex.ScanCount] {
		t.Fatalf("postings read %v: the solvers cannot be told apart on this query", read)
	}
}

// TestConfigSolverReachesSearch: the solver named in Config.TOccurrence
// is the one the index search runs, on the coordinator and on a tcp
// worker alike. Each solver's pair reads equal postings on both
// transports, and the two solvers read different counts, so the setting
// was not dropped on the way to either process.
func TestConfigSolverReachesSearch(t *testing.T) {
	const q = `for $r in dataset EqReviews
		where similarity-jaccard(word-tokens($r.summary), word-tokens('great heart works product')) >= 0.5
		return $r.id`
	read := map[string]int64{}
	for _, name := range []string{"scancount", "divideskip"} {
		inproc, tcp := transportPairConfig(t, Config{TOccurrence: name})
		for _, c := range []*Cluster{inproc, tcp} {
			exec(t, c, NewSession(), `create index eqkw on EqReviews(summary) type keyword;`)
		}
		a, b := assertEquivalent(t, inproc, tcp, plainSession, q)
		if a.Stats.IndexSearches == 0 || len(a.Rows) == 0 {
			t.Fatalf("%s: %d index searches, %d rows: the query does not search the index", name, a.Stats.IndexSearches, len(a.Rows))
		}
		if a.Stats.PostingsRead != b.Stats.PostingsRead {
			t.Errorf("%s: %d postings read inproc, %d over tcp", name, a.Stats.PostingsRead, b.Stats.PostingsRead)
		}
		read[name] = a.Stats.PostingsRead
	}
	if read["scancount"] == read["divideskip"] {
		t.Fatalf("postings read %v: both configurations ran the same solver", read)
	}
}
