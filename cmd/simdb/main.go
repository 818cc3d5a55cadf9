// Command simdb is an interactive AQL shell over a SimDB database:
//
//	simdb -data ./mydb
//	simdb> create dataset Reviews primary key id;
//	simdb> load dataset Reviews from 'amazon.jsonl'
//	simdb> for $r in dataset Reviews where edit-distance($r.reviewerName, 'marla') <= 1 return $r
//
// Statements end at a blank line or EOF; "\plan on" echoes optimized
// plans, "\quit" exits. Non-interactive use: simdb -data dir -q "<aql>".
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"

	"simdb/internal/adm"
	"simdb/internal/core"
)

var loadRe = regexp.MustCompile(`(?is)^\s*load\s+dataset\s+(\w+)\s+from\s+'([^']+)'\s*;?\s*$`)

func main() {
	core.MaybeRunWorker()
	var (
		dataDir   = flag.String("data", "", "database directory (required)")
		nodes     = flag.Int("nodes", 2, "simulated node count")
		parts     = flag.Int("parts", 2, "partitions per node")
		query     = flag.String("q", "", "run one request and exit")
		addr      = flag.String("addr", "", "also serve HTTP on this address (e.g. localhost:6060): queries, /metrics, /traces, pprof")
		transport = flag.String("transport", "", `frame transport: "inproc" (default, single process) or "tcp" (nodes run as child processes over TCP loopback)`)
	)
	flag.Parse()
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "simdb: -data is required")
		os.Exit(2)
	}
	db, err := core.Open(core.Config{DataDir: *dataDir, NumNodes: *nodes, PartitionsPerNode: *parts, ServeAddr: *addr, Transport: *transport})
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	if a := db.ServeAddr(); a != "" {
		fmt.Fprintf(os.Stderr, "serving on http://%s/\n", a)
	}
	sess := db.NewSession()

	if *query != "" {
		if err := run(db, sess, *query, false); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Println("SimDB shell — AQL statements end with a blank line; \\quit exits.")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	showPlan := false
	var buf strings.Builder
	prompt := func() { fmt.Print("simdb> ") }
	prompt()
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case "\\quit", "\\q":
			return
		case "\\plan on":
			showPlan = true
			prompt()
			continue
		case "\\plan off":
			showPlan = false
			prompt()
			continue
		}
		if strings.TrimSpace(line) != "" {
			buf.WriteString(line)
			buf.WriteByte('\n')
			prompt()
			continue
		}
		src := strings.TrimSpace(buf.String())
		buf.Reset()
		if src != "" {
			if err := run(db, sess, src, showPlan); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}
		prompt()
	}
}

func run(db *core.Database, sess *core.Session, src string, showPlan bool) error {
	if m := loadRe.FindStringSubmatch(src); m != nil {
		n, err := db.LoadJSONLines(m[1], m[2])
		if err != nil {
			return err
		}
		fmt.Printf("loaded %d records into %s\n", n, m[1])
		return nil
	}
	res, err := db.Execute(context.Background(), sess, src)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	for _, row := range res.Rows {
		if err := enc.Encode(adm.ToJSONish(row)); err != nil {
			return err
		}
	}
	if showPlan && res.Stats.LogicalPlan != "" {
		fmt.Println("--- optimized plan ---")
		fmt.Print(res.Stats.LogicalPlan)
	}
	if res.Stats.ExecNs > 0 {
		fmt.Printf("(%d rows, %.1f ms exec, %d plan ops)\n",
			len(res.Rows), float64(res.Stats.ExecNs)/1e6, res.Stats.PlanOps)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simdb:", err)
	os.Exit(1)
}
