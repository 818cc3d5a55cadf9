// Command simbench is SimDB's canonical benchmark: six workloads over
// seeded Amazon-shaped data, answers checked against a naive oracle,
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one. benchmark/README.md explains the workloads and metrics;
// BENCHMARK.json at the repository root declares them.
//
//	simbench -workload sel_index -seed 1 -seconds 10 -trace 0
//	simbench compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"

	"simdb/benchmark/harness"
	"simdb/internal/core"
)

func main() {
	// tcp workers are this executable run again.
	core.MaybeRunWorker()
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("simbench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run (default: all six, one result line each)")
	seed := fs.Uint64("seed", 1, "seed of the generated records and queries")
	seconds := fs.Float64("seconds", 10, "measured window in seconds; warm-up and traced window scale with it")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace file")
	records := fs.Int("records", harness.DefaultRecords, "dataset size")
	workdir := fs.String("workdir", ".bench_build/run", "directory for data (removed afterwards) and trace files")
	report := fs.String("report", "", "append each result, with its header, to this file for `simbench compare`")
	override := fs.String("config", "", "JSON object of core.Config fields laid over every workload's configuration (known-effect checks only)")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "simbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	workloads := harness.Workloads
	if *workload != "" {
		w, ok := harness.Find(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "simbench: unknown workload %q\n", *workload)
			return 2
		}
		workloads = []harness.Workload{w}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	code := 0
	for _, w := range workloads {
		res, err := harness.Run(ctx, w, harness.Options{
			Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Records: *records, WorkDir: *workdir, Override: *override,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return 1
		}
		printHuman(res)
		if *report != "" {
			if err := harness.AppendReport(*report, res); err != nil {
				fmt.Fprintln(os.Stderr, "simbench:", err)
				return 1
			}
		}
		line, err := json.Marshal(res.Contract())
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return 1
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// printHuman writes the metrics by name with their units, and what went
// wrong if anything did, to standard error; standard output carries the
// machine-readable line.
func printHuman(res *harness.Result) {
	h := res.Header
	fmt.Fprintf(os.Stderr, "# %s seed=%d trace=%v records=%d seconds=%g commit=%s %s GOMAXPROCS=%d nproc=%d samples=%d host_slowdown=%.3f\n",
		res.Workload, h.Seed, res.Trace, h.Records, h.Seconds, h.Commit, h.GoVersion, h.GOMAXPROCS, h.NProc, res.Samples, res.HostSlowdown)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "%-36s %14.4f %s", name, m.Value, m.Unit)
		if raw, ok := res.Raw[name]; ok {
			fmt.Fprintf(os.Stderr, "  (as clocked: %.4f)", raw.Value)
		}
		fmt.Fprintln(os.Stderr)
	}
	if res.Samples < harness.MinP95Samples {
		fmt.Fprintf(os.Stderr, "warning: %d samples; a p95 needs %d and `compare` will call it unresolved\n", res.Samples, harness.MinP95Samples)
	}
	if res.TraceFile != "" {
		fmt.Fprintf(os.Stderr, "trace: %s\n", res.TraceFile)
	}
	fmt.Fprintf(os.Stderr, "attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	if len(res.Mismatches) > 0 {
		fmt.Fprintln(os.Stderr, strings.Join(res.Mismatches, "\n"))
	}
}

func compare(args []string) int {
	fs := flag.NewFlagSet("simbench compare", flag.ExitOnError)
	bench := fs.String("bench", "BENCHMARK.json", "file whose end_to_end bounds apply")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: simbench compare [-bench BENCHMARK.json] baseline.json candidate.json")
		return 2
	}
	defs, err := harness.ReadBounds(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 2
	}
	var reports [2][]harness.Result
	for i := range reports {
		if reports[i], err = harness.ReadReport(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return 2
		}
	}
	cells := harness.Compare(reports[0], reports[1], defs)
	if harness.PrintComparison(os.Stdout, reports[0], reports[1], cells) {
		return 1
	}
	return 0
}
