package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"simdb/benchmark/stats"
)

// ReadReport reads a -report file: one Result per line.
func ReadReport(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Result
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// ReadBounds reads the end_to_end metrics of a BENCHMARK.json and adds
// the extra metrics, which that file cannot hold.
func ReadBounds(path string) ([]MetricDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []MetricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return append(b.EndToEnd, Extra...), nil
}

// Verdict is how one metric of one workload moved between two reports.
type Verdict int

// Verdicts.
const (
	Same       Verdict = iota // within the bound
	Better                    // improved by more than the bound
	Unresolved                // the run-to-run spread exceeds the bound
	Regressed                 // worse by more than the bound
)

func (v Verdict) String() string {
	return [...]string{"ok", "better", "unresolved", "REGRESSED"}[v]
}

// Cell is one metric of one workload in both reports.
type Cell struct {
	Workload, Metric string
	A, B             float64 // medians
	SpreadA, SpreadB float64 // interquartile distance over median
	Verdict          Verdict
}

// judge compares the runs of one metric on one workload.
func judge(def MetricDef, a, b []float64, lowSamples bool) Cell {
	c := Cell{Metric: def.Name, A: stats.Median(a), B: stats.Median(b), SpreadA: stats.Spread(a), SpreadB: stats.Spread(b)}
	worse := c.B - c.A // positive = b is worse
	if def.Better == "higher" {
		worse = -worse
	}
	limit := def.Bound * c.A
	if def.Name == "fail_ratio" {
		// An absolute bound, and never "unresolved": a higher failure ratio
		// is a regression whatever the noise.
		if worse > def.Bound {
			c.Verdict = Regressed
		}
		return c
	}
	switch {
	case max(c.SpreadA, c.SpreadB) > def.Bound || (lowSamples && def.Name == "lat_p95_ms"):
		c.Verdict = Unresolved
	case worse > limit:
		c.Verdict = Regressed
	case -worse > limit:
		c.Verdict = Better
	}
	return c
}

// Compare judges report b against baseline a, metric by metric and
// workload by workload, over their untraced runs.
func Compare(a, b []Result, defs []MetricDef) []Cell {
	type key struct{ workload, metric string }
	collect := func(rs []Result) (map[key][]float64, map[string]bool) {
		vals := map[key][]float64{}
		low := map[string]bool{}
		for _, r := range rs {
			if r.Trace {
				continue
			}
			if r.Samples < MinP95Samples {
				low[r.Workload] = true
			}
			for name, m := range r.Metrics {
				vals[key{r.Workload, name}] = append(vals[key{r.Workload, name}], m.Value)
			}
		}
		return vals, low
	}
	va, lowA := collect(a)
	vb, lowB := collect(b)
	var out []Cell
	for _, w := range Workloads {
		for _, def := range defs {
			k := key{w.Name, def.Name}
			if len(va[k]) == 0 || len(vb[k]) == 0 || (def.Only != "" && def.Only != w.Name) {
				continue
			}
			c := judge(def, va[k], vb[k], lowA[w.Name] || lowB[w.Name])
			c.Workload = w.Name
			out = append(out, c)
		}
	}
	return out
}

// PrintComparison writes the header of each report and one row per
// workload, and reports whether any cell regressed.
func PrintComparison(out io.Writer, a, b []Result, cells []Cell) (regressed bool) {
	for i, rs := range [][]Result{a, b} {
		if len(rs) == 0 {
			continue
		}
		h := rs[0].Header
		fmt.Fprintf(out, "%c: commit %s, %s, GOMAXPROCS %d, nproc %d, seed %d, %d records, %gs windows, %d runs\n",
			'a'+i, h.Commit, h.GoVersion, h.GOMAXPROCS, h.NProc, h.Seed, h.Records, h.Seconds, len(rs))
	}
	for _, w := range Workloads {
		var parts []string
		for _, c := range cells {
			if c.Workload != w.Name {
				continue
			}
			regressed = regressed || c.Verdict == Regressed
			change := 0.0
			if c.A != 0 {
				change = (c.B - c.A) / c.A * 100
			}
			parts = append(parts, fmt.Sprintf("%s %s %.4g->%.4g (%+.1f%%, spread %.1f%%/%.1f%%)",
				c.Metric, c.Verdict, c.A, c.B, change, c.SpreadA*100, c.SpreadB*100))
		}
		if len(parts) > 0 {
			fmt.Fprintf(out, "%-13s %s\n", w.Name, strings.Join(parts, "; "))
		}
	}
	return regressed
}
