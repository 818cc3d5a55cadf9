// Command benchrunner regenerates the paper's evaluation tables and
// figures against SimDB. Run one experiment by name or "all":
//
//	benchrunner -scale 20000 -nodes 2 table5
//	benchrunner all
//
// Experiments: table3 table4 table5 table6 fig15 fig22a fig22b fig24a
// fig24b fig25a fig25b fig27 ablation spill ingest scan serving env all
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"simdb/internal/aqlp"
	"simdb/internal/bench"
)

func main() {
	var (
		scale   = flag.Int("scale", 20000, "Amazon record count (other datasets scale relative to it)")
		nodes   = flag.Int("nodes", 2, "simulated node count")
		parts   = flag.Int("parts", 2, "partitions per node")
		selQ    = flag.Int("selqueries", 20, "queries averaged per selection data point")
		joinQ   = flag.Int("joinqueries", 3, "queries averaged per join data point")
		workDir = flag.String("dir", "", "scratch directory (default: a temp dir, removed afterwards)")
		metrics = flag.String("metrics", "", "write the final process metrics snapshot as JSON to this file (\"-\" for stdout)")
		budgets = flag.String("membudget", "", "comma-separated per-query memory budgets for the spill sweep (e.g. \"0,16m,2m,256k\"; 0 = unlimited)")
		addr    = flag.String("addr", "", "serve HTTP on this address while experiments run: queries, /metrics, /traces, pprof")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchrunner [flags] <experiment|all>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	dir := *workDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "simdb-bench-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
	}
	env := bench.NewEnv(dir)
	env.Scale = *scale
	env.Nodes = *nodes
	env.PartsPerNode = *parts
	env.SelQueries = *selQ
	env.JoinQueries = *joinQ
	env.ServeAddr = *addr
	if *budgets != "" {
		for _, s := range strings.Split(*budgets, ",") {
			b, err := aqlp.ParseMemorySize(strings.TrimSpace(s))
			if err != nil {
				fatal(fmt.Errorf("-membudget %q: %w", s, err))
			}
			env.MemBudgets = append(env.MemBudgets, b)
		}
	}
	defer env.Close()

	for _, name := range flag.Args() {
		if name == "env" {
			printEnv(env)
			continue
		}
		start := time.Now()
		if err := env.Run(name); err != nil {
			fatal(err)
		}
		fmt.Printf("\n[%s completed in %s]\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *metrics != "" {
		if err := writeMetrics(env, *metrics); err != nil {
			fatal(err)
		}
	}
}

// writeMetrics dumps the process-wide observability snapshot — query
// latency quantiles, storage flush/merge activity, cache and
// bloom-filter counters, plan-cache and admission totals — accumulated
// across every experiment that ran.
func writeMetrics(env *bench.Env, path string) error {
	db, err := env.DB()
	if err != nil {
		return err
	}
	data, err := db.Metrics().JSON()
	if err != nil {
		return err
	}
	if path == "-" {
		fmt.Println(string(data))
		return nil
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote metrics snapshot to %s\n", path)
	return nil
}

// printEnv mirrors the paper's Table 2 configuration listing.
func printEnv(env *bench.Env) {
	fmt.Println("=== Table 2 analogue: SimDB configuration ===")
	fmt.Printf("%-44s %v\n", "Simulated nodes", env.Nodes)
	fmt.Printf("%-44s %v\n", "Partitions per node", env.PartsPerNode)
	fmt.Printf("%-44s %v\n", "Amazon record count (scale)", env.Scale)
	fmt.Printf("%-44s %v\n", "Queries per selection data point", env.SelQueries)
	fmt.Printf("%-44s %v\n", "Queries per join data point", env.JoinQueries)
	fmt.Printf("%-44s %v\n", "Host CPUs", runtime.NumCPU())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchrunner:", err)
	os.Exit(1)
}
