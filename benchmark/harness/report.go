package harness

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/debug"

	"simdb/internal/core"
)

// MetricDef names one metric. The names are fixed: later changes are
// judged by them.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Only restricts an extra metric to one workload ("" = all).
	Only string `json:"-"`
}

// EndToEnd are the metrics every workload reports in an untraced run:
// the end_to_end list of BENCHMARK.json, with the same bounds (the
// share of the baseline's median by which each may worsen).
var EndToEnd = []MetricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MiB", Better: "lower", Bound: 0.2},
	{Name: "space_amp", Unit: "ratio", Better: "lower", Bound: 0.02},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// Extra are end-to-end metrics that exist on one workload only, or are
// 0 when all is well, so BENCHMARK.json cannot list them as end_to_end
// (it wants every metric on every workload and never 0). An untraced
// run writes them to its -report line, `simbench compare` bounds them
// like the others, and a traced run prints them among the per-layer
// metrics. fail_ratio's bound is absolute (+0.001), not relative.
var Extra = []MetricDef{
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0.001},
	{Name: "write_lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Only: "ingest_query"},
	{Name: "write_lat_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, Only: "ingest_query"},
	{Name: "ttfr_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Only: "sel_http"},
}

// PerLayer are the metrics of single layers a traced run prints, as
// <module>.<name>; README.md says which end-to-end metric each should
// move on which workload. They have no bound.
var PerLayer = []MetricDef{
	{Name: "cluster.admission_us", Unit: "us", Better: "lower"},
	{Name: "cluster.compile_us", Unit: "us", Better: "lower"},
	{Name: "cluster.jobgen_us", Unit: "us", Better: "lower"},
	{Name: "cluster.exec_us", Unit: "us", Better: "lower"},
	{Name: "cluster.self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.plancache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "aqlp.parse_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.optimize_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.index_rewrite_ratio", Unit: "ratio", Better: "higher"},
	{Name: "optimizer.corner_case_ratio", Unit: "ratio", Better: "lower"},
	{Name: "invindex.search_us", Unit: "us", Better: "lower"},
	{Name: "invindex.postings_per_query", Unit: "count", Better: "lower"},
	{Name: "invindex.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "invindex.verified_ratio", Unit: "ratio", Better: "higher"},
	{Name: "invindex.occurrence_t", Unit: "count", Better: "higher"},
	{Name: "sim.jaccard_check_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.edit_check_ns", Unit: "ns", Better: "lower"},
	{Name: "tokenizer.word_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "tokenizer.gram_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "algebra.eval_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "algebra.compiled_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "adm.decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "adm.json_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "storage.scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "storage.get_us", Unit: "us", Better: "lower"},
	{Name: "storage.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "storage.pages_read_per_query", Unit: "count", Better: "lower"},
	{Name: "storage.bloom_negative_ratio", Unit: "ratio", Better: "higher"},
	{Name: "storage.flush_count", Unit: "count", Better: "lower"},
	{Name: "storage.flush_ms_total", Unit: "ms", Better: "lower"},
	{Name: "storage.merge_count", Unit: "count", Better: "lower"},
	{Name: "storage.merge_ms_total", Unit: "ms", Better: "lower"},
	{Name: "storage.stall_count", Unit: "count", Better: "lower"},
	{Name: "storage.stall_ms_total", Unit: "ms", Better: "lower"},
	{Name: "storage.wal_fsyncs_per_batch", Unit: "count", Better: "lower"},
	{Name: "storage.wal_group_size_mean", Unit: "count", Better: "higher"},
	{Name: "storage.components_at_end", Unit: "count", Better: "lower"},
	{Name: "hyracks.busy_ratio", Unit: "ratio", Better: "higher"},
	{Name: "hyracks.skew", Unit: "ratio", Better: "lower"},
	{Name: "hyracks.bytes_shuffled_per_query", Unit: "bytes", Better: "lower"},
	{Name: "hyracks.net_messages_per_query", Unit: "count", Better: "lower"},
	{Name: "hyracks.spill_runs_per_query", Unit: "count", Better: "lower"},
	{Name: "hyracks.spilled_bytes_per_query", Unit: "bytes", Better: "lower"},
	{Name: "hyracks.mem_high_water_bytes", Unit: "bytes", Better: "lower"},
	{Name: "transport.encode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "transport.decode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "transport.loopback_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "transport.tax_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "simdbd.tax_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "simdbd.bytes_per_row", Unit: "bytes", Better: "lower"},
	{Name: "simdbd.status_503_ratio", Unit: "ratio", Better: "lower"},
	{Name: "class.jaccard_08.lat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "class.jaccard_05.lat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "class.ed_1.lat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "class.ed_2.lat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.writer_lag_ms_max", Unit: "ms", Better: "lower"},
	{Name: "bench.lat_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "host.slowdown", Unit: "ratio", Better: "lower"},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "write_lat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "write_lat_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "ttfr_p50_ms", Unit: "ms", Better: "lower"},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Header says where and how a report was made.
type Header struct {
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NProc      int         `json:"nproc"`
	Seed       uint64      `json:"seed"`
	Records    int         `json:"records"`
	Seconds    float64     `json:"seconds"`
	Config     core.Config `json:"config"`
}

// Result is one run of one workload: a line of a -report file.
type Result struct {
	Header    Header `json:"header"`
	Workload  string `json:"workload"`
	Trace     bool   `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Samples is how many query latencies the percentiles rest on; p95
	// needs 200 for ten samples to lie beyond it.
	Samples int `json:"samples"`
	// Metrics holds the end-to-end and extra metrics of an untraced run,
	// or the per-layer metrics of a traced one.
	Metrics map[string]Metric `json:"metrics"`
	// Raw holds, for each metric that was divided by the host's slowdown
	// (hostprobe.go), the value as the clock gave it; HostSlowdown is the
	// slowdown over the measured window, 1 when the host ran at the
	// reference speed.
	Raw          map[string]Metric `json:"raw,omitempty"`
	HostSlowdown float64           `json:"host_slowdown"`
	TraceFile    string            `json:"trace_file,omitempty"`
	Mismatches   []string          `json:"mismatches,omitempty"`
}

// MinP95Samples is the sample count below which a p95 has fewer than
// ten samples beyond it and is not to be trusted: the run warns, and
// Compare calls the cell unresolved.
const MinP95Samples = 200

// Contract returns the object the benchmark contract wants as the last
// line of standard output: exactly the declared metrics of the run's
// kind.
func (r *Result) Contract() map[string]any {
	defs := EndToEnd
	if r.Trace {
		defs = PerLayer
	}
	m := make(map[string]Metric, len(defs))
	for _, d := range defs {
		m[d.Name] = r.Metrics[d.Name]
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": m}
}

// set stores a metric under a declared name, taking the unit from the
// declaration, and replaces a non-finite value by 0 so the JSON stays
// valid.
func (r *Result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	for _, defs := range [][]MetricDef{EndToEnd, Extra, PerLayer} {
		for _, d := range defs {
			if d.Name == name {
				r.Metrics[name] = Metric{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("simbench: undeclared metric " + name)
}

// setScaled stores a time that was scaled to the host's reference speed
// and, beside it, the same time unscaled.
func (r *Result) setScaled(name string, scaled, raw float64) {
	r.set(name, scaled)
	if r.Raw == nil {
		r.Raw = map[string]Metric{}
	}
	if math.IsNaN(raw) || math.IsInf(raw, 0) {
		raw = 0
	}
	r.Raw[name] = Metric{Value: raw, Unit: r.Metrics[name].Unit}
}

func newHeader(o Options, cfg core.Config) Header {
	h := Header{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Seed:       o.Seed,
		Records:    o.Records,
		Seconds:    o.Seconds,
		Config:     cfg,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// AppendReport appends the result as one JSON line to path.
func AppendReport(path string, r *Result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
