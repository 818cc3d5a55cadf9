package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"simdb/benchmark/gen"
	"simdb/benchmark/oracle"
	"simdb/internal/core"
)

// sel_tcp's worker is this test binary run again.
func TestMain(m *testing.M) {
	core.MaybeRunWorker()
	os.Exit(m.Run())
}

// TestSmoke runs every workload small and short, untraced and traced,
// and checks that every declared metric is there and finite, that
// nothing failed, and that nothing is left behind.
func TestSmoke(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			for _, trace := range []bool{false, true} {
				seconds := 1.0
				if trace {
					seconds = 0.5 // the whole package has twenty seconds
				}
				res, err := Run(context.Background(), w, Options{
					Seed: 1, Seconds: seconds, Trace: trace, Records: 500, WorkDir: dir,
				})
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d: %v",
						trace, res.Correct, res.Attempted, res.Failed, res.Mismatches)
				}
				if fr := res.Metrics["fail_ratio"]; fr.Value != 0 || fr.Unit == "" {
					t.Errorf("trace=%v: fail_ratio = %+v, want 0", trace, fr)
				}
				contract := res.Contract()["metrics"].(map[string]Metric)
				defs := EndToEnd
				if trace {
					defs = PerLayer
				}
				if len(contract) != len(defs) {
					t.Errorf("trace=%v: %d metrics printed, %d declared", trace, len(contract), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("trace=%v: metric %s = %+v (present %v), want a finite value in %s", trace, d.Name, m, ok, d.Unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, must never be 0", d.Name, m.Value)
					}
				}
				for _, d := range Extra {
					_, has := res.Metrics[d.Name]
					if want := trace || d.Only == "" || d.Only == w.Name; has != want {
						t.Errorf("trace=%v: %s present = %v, want %v", trace, d.Name, has, want)
					}
				}
				if trace {
					checkIsolation(t, w, res)
					data, err := os.ReadFile(res.TraceFile)
					if err != nil || !bytes.Contains(data, []byte(`"traceEvents"`)) {
						t.Errorf("trace file %s: %v", res.TraceFile, err)
					}
					os.Remove(res.TraceFile)
				}
			}
			// The worker of sel_tcp is gone and every data directory removed.
			for wait := 0; len(childPIDs()) > 0 && wait < 50; wait++ {
				time.Sleep(20 * time.Millisecond)
			}
			if pids := childPIDs(); len(pids) > 0 {
				t.Errorf("child processes left behind: %v", pids)
			}
			if left, _ := os.ReadDir(dir); len(left) > 0 {
				t.Errorf("%d entries left in the work directory, first %s", len(left), left[0].Name())
			}
		})
	}
}

// checkIsolation asserts what each workload is designed to exercise or
// bypass, on the traced run's per-layer metrics.
func checkIsolation(t *testing.T, w Workload, res *Result) {
	t.Helper()
	v := func(name string) float64 { return res.Metrics[name].Value }
	switch {
	case w.Join:
		// (It spills only at the canonical size; 25 records fit in 2 MiB.)
		if v("invindex.postings_per_query") != 0 || v("optimizer.index_rewrite_ratio") != 0 {
			t.Error("join_3stage used an index")
		}
	case w.Indexed:
		// The HTTP summary record does not say whether an index was used.
		if !w.HTTP && v("optimizer.index_rewrite_ratio") != 1 {
			t.Errorf("%s: index_rewrite_ratio = %g, want 1", w.Name, v("optimizer.index_rewrite_ratio"))
		}
		if !w.HTTP && v("invindex.postings_per_query") <= 0 {
			t.Errorf("%s read no postings", w.Name)
		}
		if v("hyracks.spill_runs_per_query") != 0 {
			t.Errorf("%s spilled", w.Name)
		}
	default:
		if v("optimizer.index_rewrite_ratio") != 0 || v("invindex.postings_per_query") != 0 || v("invindex.search_us") != 0 {
			t.Errorf("%s used an index", w.Name)
		}
	}
	if w.Ingest && (v("write_lat_p50_ms") <= 0 || v("storage.flush_count") <= 0) {
		t.Errorf("ingest_query: write_lat_p50_ms = %g, flush_count = %g", v("write_lat_p50_ms"), v("storage.flush_count"))
	}
	if w.HTTP && (v("ttfr_p50_ms") <= 0 || v("simdbd.bytes_per_row") <= 0) {
		t.Errorf("sel_http: ttfr_p50_ms = %g, bytes_per_row = %g", v("ttfr_p50_ms"), v("simdbd.bytes_per_row"))
	}
	// The phases and the call's self time add up to the mean latency.
	sum := v("cluster.admission_us") + v("cluster.compile_us") + v("cluster.jobgen_us") + v("cluster.exec_us") + v("cluster.self_us")
	if mean := v("bench.lat_mean_ms") * 1e3; math.Abs(sum-mean) > 0.05*mean {
		t.Errorf("%s: phases sum to %.1f us, mean latency is %.1f us", w.Name, sum, mean)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's declarations
// the same list.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []MetricDef `json:"end_to_end"`
		PerLayer []MetricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %q / %q", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got, want []MetricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, EndToEnd)
	same("per_layer", b.PerLayer, PerLayer)
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
}

func fakeRuns(workload string, metric string, values ...float64) []Result {
	var out []Result
	for _, v := range values {
		out = append(out, Result{
			Workload: workload, Samples: 1000, Attempted: 1000,
			Metrics: map[string]Metric{metric: {Value: v, Unit: "x"}, "fail_ratio": {Value: 0, Unit: "ratio"}},
		})
	}
	return out
}

func TestCompare(t *testing.T) {
	defs := append(append([]MetricDef(nil), EndToEnd...), Extra...)
	verdict := func(a, b []Result, metric string) Verdict {
		t.Helper()
		for _, c := range Compare(a, b, defs) {
			if c.Metric == metric {
				return c.Verdict
			}
		}
		t.Fatalf("no cell for %s", metric)
		return 0
	}
	base := fakeRuns("sel_index", "lat_p50_ms", 10, 10.1, 9.9, 10.05, 9.95)
	for _, c := range []struct {
		name string
		b    []Result
		want Verdict
	}{
		{"the same again", fakeRuns("sel_index", "lat_p50_ms", 10.02, 9.97, 10.1, 9.9, 10), Same},
		{"slower by more than the bound", fakeRuns("sel_index", "lat_p50_ms", 13, 13.1, 12.9, 13, 13), Regressed},
		{"faster by more than the bound", fakeRuns("sel_index", "lat_p50_ms", 7, 7.1, 6.9, 7, 7), Better},
		{"too noisy to tell", fakeRuns("sel_index", "lat_p50_ms", 8, 14, 9, 13, 10), Unresolved},
	} {
		if got := verdict(base, c.b, "lat_p50_ms"); got != c.want {
			t.Errorf("%s: verdict %v, want %v", c.name, got, c.want)
		}
	}
	// Higher is better for throughput.
	if got := verdict(fakeRuns("sel_scan", "ops_per_s", 100, 101, 99), fakeRuns("sel_scan", "ops_per_s", 70, 71, 69), "ops_per_s"); got != Regressed {
		t.Errorf("throughput down 30%%: verdict %v, want regressed", got)
	}
	// A higher fail_ratio is a regression however small the sample.
	failing := fakeRuns("sel_index", "lat_p50_ms", 10, 10, 10)
	for i := range failing {
		failing[i].Metrics["fail_ratio"] = Metric{Value: 0.01, Unit: "ratio"}
	}
	if got := verdict(base, failing, "fail_ratio"); got != Regressed {
		t.Errorf("fail_ratio 0 -> 0.01: verdict %v, want regressed", got)
	}
	// Too few samples for a p95: unresolved whatever the numbers say.
	few := fakeRuns("join_3stage", "lat_p95_ms", 50, 50, 50)
	for i := range few {
		few[i].Samples = 120
	}
	if got := verdict(few, few, "lat_p95_ms"); got != Unresolved {
		t.Errorf("p95 from 120 samples: verdict %v, want unresolved", got)
	}
	// Traced runs are not compared, and extras stay on their workload.
	traced := fakeRuns("sel_index", "lat_p50_ms", 99)
	traced[0].Trace = true
	if cells := Compare(traced, traced, defs); len(cells) != 0 {
		t.Errorf("traced runs produced %d cells", len(cells))
	}
	if cells := Compare(fakeRuns("sel_index", "ttfr_p50_ms", 1), fakeRuns("sel_index", "ttfr_p50_ms", 1), defs); len(cells) != 1 {
		t.Errorf("ttfr_p50_ms on sel_index: %d cells, want only fail_ratio", len(cells))
	}

	var out bytes.Buffer
	if !PrintComparison(&out, base, fakeRuns("sel_index", "lat_p50_ms", 13, 13, 13), Compare(base, fakeRuns("sel_index", "lat_p50_ms", 13, 13, 13), defs)) {
		t.Error("PrintComparison did not report the regression")
	}
	if !strings.Contains(out.String(), "sel_index") || !strings.Contains(out.String(), "REGRESSED") || strings.Count(out.String(), "\n") != 3 {
		t.Errorf("comparison output:\n%s", out.String())
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	for _, r := range fakeRuns("sel_index", "lat_p50_ms", 1, 2) {
		r.Header = newHeader(Options{Seed: 9, Records: 500, Seconds: 1}, Workloads[0].Config(""))
		if err := AppendReport(path, &r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadReport(path)
	if err != nil || len(got) != 2 {
		t.Fatalf("read %d results: %v", len(got), err)
	}
	if h := got[1].Header; h.Seed != 9 || h.GoVersion == "" || h.NProc < 1 || got[1].Metrics["lat_p50_ms"].Value != 2 {
		t.Errorf("second result = %+v", got[1])
	}
}

// The oracle gate itself: a right answer passes, and a missing id, an
// extra id, a wrong join pair or a fresh record that does not match are
// each reported.
func TestVerifyCatchesWrongAnswers(t *testing.T) {
	d := gen.New(1, 500)
	table := oracle.NewTable(d.Records)
	fresh := d.Fresh(501, 64)
	st := d.Stream(0)
	var q gen.Query
	var want []int64
	for len(want) < 2 { // a query with a few answers
		q = st.Next()
		want = table.Select(q)
	}
	sel := func(ids ...int64) sample {
		return sample{o: op{class: int(q.Class), q: q}, reply: reply{ids: ids}}
	}
	if msg := verify(sel(want...), table, fresh, 500); msg != "" {
		t.Errorf("right answer rejected: %s", msg)
	}
	reversed := append([]int64(nil), want...)
	sort.Slice(reversed, func(i, j int) bool { return reversed[i] > reversed[j] })
	if msg := verify(sel(reversed...), table, fresh, 500); msg != "" {
		t.Errorf("row order must not matter: %s", msg)
	}
	if verify(sel(want[1:]...), table, fresh, 500) == "" {
		t.Error("a missing id passed")
	}
	other := int64(1)
	for slices.Contains(want, other) {
		other++
	}
	if verify(sel(append([]int64{other}, want...)...), table, fresh, 500) == "" {
		t.Error("an extra id passed")
	}
	// Under ingest a fresh record may or may not be visible yet, but one
	// that is returned has to match.
	var matching, other2 int64
	for _, f := range fresh {
		if oracle.Matches(q, f) {
			matching = f.ID
		} else {
			other2 = f.ID
		}
	}
	if matching != 0 {
		if msg := verify(sel(append([]int64{matching}, want...)...), table, fresh, 500); msg != "" {
			t.Errorf("matching fresh id rejected: %s", msg)
		}
	}
	if verify(sel(append([]int64{other2}, want...)...), table, fresh, 500) == "" {
		t.Error("a fresh id that does not match passed")
	}

	j := gen.Join{Start: 1}
	pairs := table.Join(j)
	join := func(p []oracle.Pair) sample { return sample{o: op{class: joinClass, j: j}, reply: reply{pairs: p}} }
	if msg := verify(join(pairs), table, nil, 500); msg != "" {
		t.Errorf("right join answer rejected: %s", msg)
	}
	if verify(join(append([]oracle.Pair{{O: 1, I: 2}}, pairs...)), table, nil, 500) == "" && !slices.Contains(pairs, oracle.Pair{O: 1, I: 2}) {
		t.Error("an extra join pair passed")
	}
}
