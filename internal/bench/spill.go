package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"simdb/internal/datagen"
)

// defaultMemBudgets is the sweep used when Env.MemBudgets is empty:
// unlimited, a budget blocking operators fit in, one that forces a
// single spill generation, and two deep into recursive-spill territory.
// At -scale 2000 the join's table (≈ 260-300 KB) spills at 256 KiB only
// on some runs, and at 128 KiB on every run.
var defaultMemBudgets = []int64{0, 16 << 20, 2 << 20, 256 << 10, 128 << 10}

// SpillCell is one (query, budget) point of the spill sweep.
type SpillCell struct {
	Query        string  `json:"query"`
	BudgetBytes  int64   `json:"budget_bytes"`
	WallMs       float64 `json:"wall_ms"`
	Rows         int64   `json:"rows"`
	SpillRuns    int64   `json:"spill_runs"`
	SpilledBytes int64   `json:"spilled_bytes"`
	MemHighWater int64   `json:"mem_high_water"`
}

// SpillReport is the JSON emitted as BENCH_spill.json.
type SpillReport struct {
	Experiment string      `json:"experiment"`
	Scale      int         `json:"scale"`
	Nodes      int         `json:"nodes"`
	Cells      []SpillCell `json:"cells"`
}

// SpillSweep measures the memory-bounded operator runtime: sort,
// group-by, and join queries whose working sets exceed the smaller
// budgets, swept from unlimited down to a few hundred KiB. Every
// budget must produce the same row count — the sweep doubles as an
// end-to-end correctness check — while the spill counters and the
// accountant's high water show the memory/IO trade. Every query must
// spill at the smallest positive budget, or the sweep fails: a run that
// stops reaching an operator's spill path says so instead of passing.
// Results go to BENCH_spill.json under Env.ReportDir.
func (e *Env) SpillSweep() error {
	e.logf("\n=== Spill sweep: blocking operators under per-query memory budgets ===\n")
	if err := e.EnsureDataset(datagen.Amazon); err != nil {
		return err
	}
	db, err := e.DB()
	if err != nil {
		return err
	}
	name := datasetName(datagen.Amazon)
	jf, _, err := datagen.Fields(datagen.Amazon)
	if err != nil {
		return err
	}
	// The hash join builds its table on its first input: the whole
	// dataset. The outer records' id bound becomes a key range on the
	// second input's scan, so the probe side reads a tenth of it.
	joinOuter := maxInt(1, e.Scale/10)
	queries := []struct{ label, src string }{
		{"sort", fmt.Sprintf(
			`for $r in dataset %s order by $r.%s, $r.id return $r.id`, name, jf)},
		{"group", fmt.Sprintf(
			`for $r in dataset %[1]s /*+ hash */ group by $g := $r.%[2]s with $r
			 order by $g return { 'g': $g, 'n': count($r) }`, name, jf)},
		{"join", fmt.Sprintf(
			`count(for $i in dataset %[1]s for $o in dataset %[1]s
			 where $o.gid = $i.gid and $o.id < $i.id and $o.id <= %[2]d
			 return $o.id)`, name, joinOuter)},
	}
	budgets := e.MemBudgets
	if len(budgets) == 0 {
		budgets = defaultMemBudgets
	}
	smallest := int64(0) // the smallest positive budget, where every query must spill
	for _, b := range budgets {
		if b > 0 && (smallest == 0 || b < smallest) {
			smallest = b
		}
	}

	report := SpillReport{Experiment: "spill", Scale: e.Scale, Nodes: e.Nodes}
	e.logf("%-8s %12s %10s %10s %8s %14s %14s\n",
		"query", "budget", "wall(ms)", "rows", "spills", "spillbytes", "highwater")
	for _, q := range queries {
		baseRows := int64(-1)
		for _, b := range budgets {
			sess := db.NewSession()
			if b > 0 {
				sess.MemoryBudget = b
			} else {
				sess.MemoryBudget = -1 // explicitly unlimited
			}
			t0 := time.Now()
			res, err := db.Execute(context.Background(), sess, q.src)
			if err != nil {
				return fmt.Errorf("spill sweep %s at budget %d: %w", q.label, b, err)
			}
			wall := time.Since(t0)
			rows := int64(len(res.Rows))
			if len(res.Rows) == 1 && q.label == "join" {
				rows = res.Rows[0].Int()
			}
			if baseRows < 0 {
				baseRows = rows
			} else if rows != baseRows {
				return fmt.Errorf("spill sweep %s: budget %d returned %d rows, unlimited returned %d",
					q.label, b, rows, baseRows)
			}
			cell := SpillCell{
				Query:        q.label,
				BudgetBytes:  b,
				WallMs:       float64(wall.Microseconds()) / 1000,
				Rows:         rows,
				SpillRuns:    res.Stats.SpillRuns,
				SpilledBytes: res.Stats.SpilledBytes,
				MemHighWater: res.Stats.MemHighWater,
			}
			report.Cells = append(report.Cells, cell)
			budgetLabel := "unlimited"
			if b > 0 {
				budgetLabel = fmt.Sprintf("%dk", b>>10)
			}
			e.logf("%-8s %12s %10.1f %10d %8d %14d %14d\n",
				q.label, budgetLabel, cell.WallMs, cell.Rows,
				cell.SpillRuns, cell.SpilledBytes, cell.MemHighWater)
			if b == smallest && cell.SpillRuns == 0 {
				return fmt.Errorf("spill sweep %s: no spill run at the smallest budget %d (high water %d), so the sweep does not cover its spill path",
					q.label, b, cell.MemHighWater)
			}
		}
	}

	dir := e.ReportDir
	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, "BENCH_spill.json")
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	e.logf("wrote %s\n", path)
	return nil
}
