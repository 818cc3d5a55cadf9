package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"simdb/benchmark/gen"
	"simdb/benchmark/oracle"
	"simdb/benchmark/span"
	"simdb/benchmark/stats"
	"simdb/internal/core"
	"simdb/internal/obs"
)

// Options are one run's inputs.
type Options struct {
	Seed uint64
	// Seconds is the measured window; warm-up and the traced window scale
	// with it.
	Seconds float64
	// Trace makes this the traced run: a shorter untraced window, then a
	// window with the span recorder on, then the layer replays.
	Trace bool
	// Records is the dataset size (DefaultRecords for the canonical run).
	Records int
	// WorkDir receives the data directories (removed at the end) and the
	// trace file.
	WorkDir string
	// Override, when set, is a JSON object of core.Config fields laid over
	// the workload's configuration: how a known-effect check turns one
	// engine knob. A baseline is run without it; the report header shows it.
	Override string
}

// An untraced run sets the database up from nothing at least minSetups
// times, and goes on until it has spent setupBudget or done maxSetups:
// setup_s is the median, and a set-up of a few milliseconds needs more
// repetitions than one of a second to be as steady.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2500 * time.Millisecond
)

// numSlices is how many equal parts the untraced window is cut into,
// about a second each. Throughput, median latency and CPU per operation
// are computed per slice, divided by the host's slowdown during that
// slice (hostprobe.go), and reported as the median over slices: on a
// shared host a burst of interference slows a second or two of a run,
// which moves a mean over the whole window by several percent and a
// median of slices not at all. lat_p95_ms is taken over the whole
// window, each latency divided by the slowdown of the slice it started
// in, because a tail is exactly the part a median of slices would hide.
const numSlices = 12

// probe is a snapshot of the process-wide accounting at one instant.
type probe struct {
	at      time.Time
	cpu     time.Duration
	metrics obs.Snapshot
}

// Run executes one workload once and reports it.
func Run(ctx context.Context, w Workload, o Options) (*Result, error) {
	if o.Records < 10*gen.JoinOuter {
		return nil, fmt.Errorf("simbench: -records %d is too few", o.Records)
	}
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("simbench: -seconds must be positive")
	}
	if o.Override != "" {
		dec := json.NewDecoder(strings.NewReader(o.Override))
		dec.DisallowUnknownFields()
		if err := dec.Decode(new(core.Config)); err != nil {
			return nil, fmt.Errorf("simbench: -config: %w", err)
		}
		tune := w.Tune
		w.Tune = func(c *core.Config) {
			if tune != nil {
				tune(c)
			}
			json.Unmarshal([]byte(o.Override), c) // decoded without error just above
		}
	}
	d := gen.New(o.Seed, o.Records)
	recs := d.Records
	if w.Join {
		recs = recs[:joinRecords(o.Records)]
	}
	if err := os.MkdirAll(o.WorkDir, 0o755); err != nil {
		return nil, err
	}
	dir := filepath.Join(o.WorkDir, w.Name+"-data")
	defer os.RemoveAll(dir)

	res := &Result{
		Header:   newHeader(o, w.Config("")),
		Workload: w.Name,
		Trace:    o.Trace,
		Metrics:  map[string]Metric{},
	}

	// The host probe runs beside everything that is timed: the set-ups,
	// the warm-up and the windows.
	hp := startHostProbe()
	var host hostSpeed
	stopProbe := func() {
		if hp != nil {
			host, hp = hp.Stop(), nil
		}
	}
	defer stopProbe()

	var db *core.Database
	var setups []setupRun
	for spent := time.Duration(0); ; {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if db, err = setup(w, recs, dir); err != nil {
			return nil, fmt.Errorf("simbench: set-up of %s: %w", w.Name, err)
		}
		setups = append(setups, setupRun{from: t0, to: time.Now()})
		spent += time.Since(t0)
		// The traced run reports no setup_s and sets up once.
		if n := len(setups); o.Trace || n == maxSetups || (n >= minSetups && spent >= setupBudget) {
			break
		}
	}
	closed := false
	defer func() {
		if !closed {
			db.Close()
		}
	}()

	// Phases: warm-up, the untraced window, and (traced run only) a
	// window with spans on. The traced run's untraced window is shorter;
	// it only has to give trace.overhead_ratio its denominator.
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	warm, plain, traced := sec(o.Seconds/5), sec(o.Seconds), time.Duration(0)
	var rec *span.Recorder
	if o.Trace {
		plain, traced = sec(o.Seconds/4), sec(o.Seconds/2)
		rec = span.New()
	}
	var tl timeline
	tl.t0 = time.Now().Add(20 * time.Millisecond)
	tl.plain = tl.t0.Add(warm)
	tl.traced = tl.plain.Add(plain)
	tl.end = tl.traced.Add(traced)

	var fresh []gen.Record
	if w.Ingest {
		total := tl.end.Sub(tl.t0).Seconds()
		fresh = d.Fresh(int64(o.Records)+1, int(total*writeRate)+2*writeBatch)
	}

	// Accounting snapshots, taken beside the load: CPU time at every slice
	// boundary of the untraced window, the engine's metrics at the phase
	// boundaries only (a snapshot walks every tree).
	var probes []probe
	for i := 0; i <= numSlices; i++ {
		probes = append(probes, probe{at: tl.plain.Add(plain * time.Duration(i) / numSlices)})
	}
	if o.Trace {
		probes = append(probes, probe{at: tl.end})
	}
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		for i := range probes {
			time.Sleep(time.Until(probes[i].at))
			probes[i].cpu = cpuTime()
			if i == 0 || i >= numSlices {
				probes[i].metrics = db.Metrics()
			}
		}
	}()
	clients, writer, err := drive(ctx, w, db, d, fresh, tl, rec)
	<-probed
	stopProbe()
	if err != nil {
		return nil, err
	}

	// Space and memory are read with everything flushed and the worker
	// still alive.
	if err := db.Flush(); err != nil {
		return nil, err
	}
	loaded := append(append([]gen.Record(nil), recs...), fresh[:writer.acked]...)
	diskBytes, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()

	var twin *twinResult
	if o.Trace && w.Config("").Transport == "tcp" {
		// transport.tax_ms_per_query needs the same queries without the
		// transport: a short run of the same stream on an inproc twin.
		if twin, err = runTwin(ctx, w, d, recs, filepath.Join(o.WorkDir, w.Name+"-twin"), sec(o.Seconds/4)); err != nil {
			return nil, err
		}
	}

	closed = true
	if err := db.Close(); err != nil {
		return nil, err
	}

	// Answers against the oracle, and durability of what was acknowledged.
	var all []sample
	table := oracle.NewTable(recs)
	for _, samples := range clients {
		all = append(all, samples...)
	}
	for _, s := range all {
		if s.kept {
			if msg := verify(s, table, fresh, int64(o.Records)); msg != "" {
				res.Mismatches = append(res.Mismatches, msg)
			}
		}
	}
	res.Attempted = len(all) + len(writer.loop.LatencyMs)
	res.Failed = len(res.Mismatches) + writer.failed
	for _, s := range all {
		if s.err != nil {
			res.Failed++
			if len(res.Mismatches) < 8 {
				res.Mismatches = append(res.Mismatches, "error: "+s.err.Error())
			}
		}
	}
	if w.Ingest {
		res.Attempted++
		lo, hi := int64(o.Records)+1, int64(o.Records)+1+int64(writer.acked)
		got, err := reopenAndCount(w, dir, lo, hi)
		if err != nil {
			return nil, fmt.Errorf("simbench: reopen: %w", err)
		}
		if missing := int(hi-lo) - len(got); missing != 0 {
			res.Failed++
			res.Mismatches = append(res.Mismatches,
				fmt.Sprintf("reopen: %d of %d acknowledged records unreadable", missing, hi-lo))
		}
	}
	res.Correct = res.Failed == 0

	in := func(from, to time.Time) []sample {
		var out []sample
		for _, s := range all {
			if !s.start.Before(from) && s.start.Before(to) {
				out = append(out, s)
			}
		}
		return out
	}
	plainWin := window{samples: in(tl.plain, tl.traced), seconds: plain.Seconds(), probes: probes[:numSlices+1], host: host}
	plainWin.writes = writeLatencies(writer, tl, tl.plain, tl.traced)
	if !o.Trace {
		res.Samples = len(plainWin.ok())
		endToEnd(res, w, plainWin)
		var setupS, setupRaw []float64
		for _, su := range setups {
			setupRaw = append(setupRaw, su.to.Sub(su.from).Seconds())
			setupS = append(setupS, su.to.Sub(su.from).Seconds()/host.slowdown(su.from, su.to))
		}
		res.setScaled("setup_s", stats.Median(setupS), stats.Median(setupRaw))
		res.HostSlowdown = host.slowdown(tl.plain, tl.traced)
		res.set("rss_peak_mb", rss)
		res.set("space_amp", float64(diskBytes)/float64(jsonBytes(loaded)))
		res.set("fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)))
		return res, nil
	}

	tracedWin := window{samples: in(tl.traced, tl.end), seconds: traced.Seconds(), probes: probes[numSlices:], host: host}
	res.HostSlowdown = host.slowdown(tl.traced, tl.end)
	tracedWin.writes = writeLatencies(writer, tl, tl.traced, tl.end)
	res.Samples = len(tracedWin.ok())
	perLayer(res, w, d, tracedWin, plainWin, rec, writer, twin, filepath.Join(o.WorkDir, w.Name+"-replay"))
	res.set("fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)))

	res.TraceFile = filepath.Join(o.WorkDir, fmt.Sprintf("trace-%s-%d.json", w.Name, o.Seed))
	f, err := os.Create(res.TraceFile)
	if err != nil {
		return nil, err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return nil, err
	}
	return res, f.Close()
}

// setupRun is when one set-up started and ended.
type setupRun struct{ from, to time.Time }

// window is the samples of one phase with the accounting around it:
// probes[0] at its start, probes[len-1] at its end, and for the untraced
// window one at every slice boundary between; host is the host probe's
// record of the whole run.
type window struct {
	samples []sample
	writes  []float64 // write latencies from due time, ms
	seconds float64
	probes  []probe
	host    hostSpeed
}

// slowdown is the host's slowdown over the whole window.
func (w window) slowdown() float64 {
	return w.host.slowdown(w.probes[0].at, w.probes[len(w.probes)-1].at)
}

// ok returns the samples that completed without error.
func (w window) ok() []sample {
	out := make([]sample, 0, len(w.samples))
	for _, s := range w.samples {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.latMs()
	}
	return out
}

// writeLatencies returns the from-due-time latencies of the batches that
// were due in [from, to).
func writeLatencies(wr writerResult, tl timeline, from, to time.Time) []float64 {
	var out []float64
	for i, l := range wr.loop.LatencyMs {
		due := tl.t0.Add(time.Duration(i) * writeInterval)
		if !due.Before(from) && due.Before(to) {
			out = append(out, l)
		}
	}
	return out
}

// endToEnd fills the metrics of the untraced window: each time divided
// by the host's slowdown when it was measured, and beside it the value as
// the clock gave it.
func endToEnd(res *Result, w Workload, win window) {
	ok := win.ok()
	var opsPerS, p50, cpuPerOp, rawOps, rawP50, rawCPU []float64
	var lat, ttfr, rawLat, rawTTFR []float64
	for i := 0; i+1 < len(win.probes); i++ {
		from, to := win.probes[i], win.probes[i+1]
		slow := win.host.slowdown(from.at, to.at)
		var started []float64
		completed := 0
		for _, s := range ok {
			if !s.start.Before(from.at) && s.start.Before(to.at) {
				started = append(started, s.latMs())
				rawTTFR = append(rawTTFR, float64(s.reply.ttfr)/1e6)
				ttfr = append(ttfr, float64(s.reply.ttfr)/1e6/slow)
			}
			if !s.end.Before(from.at) && s.end.Before(to.at) {
				completed++
			}
		}
		rawLat = append(rawLat, started...)
		for _, l := range started {
			lat = append(lat, l/slow)
		}
		if completed == 0 || len(started) == 0 {
			continue
		}
		rawOps = append(rawOps, float64(completed)/to.at.Sub(from.at).Seconds())
		rawP50 = append(rawP50, stats.Percentile(started, 50))
		rawCPU = append(rawCPU, float64(to.cpu-from.cpu)/1e6/float64(completed))
		n := len(rawOps) - 1
		opsPerS = append(opsPerS, rawOps[n]*slow)
		p50 = append(p50, rawP50[n]/slow)
		cpuPerOp = append(cpuPerOp, rawCPU[n]/slow)
	}
	res.setScaled("ops_per_s", stats.Median(opsPerS), stats.Median(rawOps))
	res.setScaled("lat_p50_ms", stats.Median(p50), stats.Median(rawP50))
	res.setScaled("lat_p95_ms", stats.Percentile(lat, 95), stats.Percentile(rawLat, 95))
	res.setScaled("cpu_ms_per_op", stats.Median(cpuPerOp), stats.Median(rawCPU))
	if w.Ingest {
		// Batch commits wait for the log's fsync more than for a core: as
		// the clock gave them.
		res.set("write_lat_p50_ms", stats.Percentile(win.writes, 50))
		res.set("write_lat_p95_ms", stats.Percentile(win.writes, 95))
	}
	if w.HTTP {
		res.setScaled("ttfr_p50_ms", stats.Percentile(ttfr, 50), stats.Percentile(rawTTFR, 50))
	}
}

func ttfrs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.reply.ttfr) / 1e6
	}
	return out
}

// verify compares one kept answer with the oracle and returns a
// description of the difference, or "" when they agree. Under ingest a
// selection may or may not see a fresh record (id > base) depending on
// when it ran, so the ids up to base must equal the oracle's over the
// base records, and every fresh id returned must satisfy the predicate.
func verify(ck sample, table *oracle.Table, fresh []gen.Record, base int64) string {
	if ck.o.class == joinClass {
		got := append([]oracle.Pair(nil), ck.reply.pairs...)
		oracle.SortPairs(got)
		want := table.Join(ck.o.j)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Sprintf("join at id %d: got %d pairs %v, oracle %d pairs %v", ck.o.j.Start, len(got), head(got), len(want), head(want))
		}
		return ""
	}
	var got []int64
	for _, id := range ck.reply.ids {
		if id <= base {
			got = append(got, id)
			continue
		}
		if i := id - base - 1; i >= int64(len(fresh)) || !oracle.Matches(ck.o.q, fresh[i]) {
			return fmt.Sprintf("%s %q: returned fresh id %d that does not match", ck.o.q.Class, ck.o.q.Const, id)
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := table.Select(ck.o.q)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Sprintf("%s %q: got %d ids %v, oracle %d ids %v", ck.o.q.Class, ck.o.q.Const, len(got), head(got), len(want), head(want))
	}
	return ""
}

func head[T any](v []T) []T { return v[:min(len(v), 8)] }
