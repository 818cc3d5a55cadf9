package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"simdb/internal/adm"
	"simdb/internal/core"
	"simdb/internal/optimizer"
)

// ScanCell is one configuration point of the scan sweep: projection
// pushdown on or off, both running the same two-field similarity query.
type ScanCell struct {
	Label    string  `json:"label"`
	Pushdown bool    `json:"pushdown"`
	Rows     int64   `json:"rows"`
	WallMs   float64 `json:"wall_ms"`
}

// ScanReport is the JSON emitted as BENCH_scan.json.
type ScanReport struct {
	Experiment string     `json:"experiment"`
	Scale      int        `json:"scale"`
	Nodes      int        `json:"nodes"`
	Fields     int        `json:"fields_per_record"`
	Cells      []ScanCell `json:"cells"`
	// SpeedupPushdown is scan-all wall over pushdown wall: what reading
	// only the referenced columns gains for a query touching 2 of the
	// record's fields.
	SpeedupPushdown float64 `json:"speedup_pushdown"`
}

// ScanBench measures the full-scan similarity query path over columnar
// primary components with projection pushdown off and on. Every cell
// runs with the scan's record filter, which has no toggle. The dataset
// is deliberately wide — eight fields, most of them bulky payload the
// query never reads — so the two-field query (summary for the
// similarity predicate, id for the result) isolates how much decode
// and read work the projection avoids. Both cells query one freshly
// loaded database; results go to BENCH_scan.json.
func (e *Env) ScanBench() error {
	e.logf("\n=== Scan: projection pushdown over columnar components ===\n")
	query := `
		for $r in dataset ScanBench
		where similarity-jaccard(word-tokens($r.summary),
		                         word-tokens('orange banana cherry')) >= 0.4
		return $r.id`

	report := ScanReport{Experiment: "scan", Scale: e.Scale, Nodes: e.Nodes, Fields: wideFieldCount}
	dir := filepath.Join(e.Dir, "scan")
	db, err := openScanDB(dir, e.Nodes, e.PartsPerNode, genWideRecords(e.Scale))
	if err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	e.logf("%-22s %9s %8s %12s\n", "config", "pushdown", "rows", "wall(ms)")
	for _, pushdown := range []bool{false, true} {
		wall, rows, err := timeScanQuery(db, query, pushdown)
		if err != nil {
			db.Close()
			return fmt.Errorf("scan: %w", err)
		}
		label := "columnar/scan-all"
		if pushdown {
			label = "columnar/pushdown"
		}
		cell := ScanCell{Label: label, Pushdown: pushdown, Rows: rows, WallMs: float64(wall.Microseconds()) / 1000}
		report.Cells = append(report.Cells, cell)
		e.logf("%-22s %9v %8d %12.2f\n", label, pushdown, rows, cell.WallMs)
	}
	db.Close()
	_ = os.RemoveAll(dir)

	// Both cells answer the same query, so a row-count disagreement
	// means a correctness bug, not a performance difference.
	if a, b := report.Cells[0], report.Cells[1]; a.Rows != b.Rows {
		return fmt.Errorf("scan: cell %s returned %d rows, %s returned %d", b.Label, b.Rows, a.Label, a.Rows)
	}
	if w := report.Cells[1].WallMs; w > 0 {
		report.SpeedupPushdown = report.Cells[0].WallMs / w
	}
	e.logf("pushdown speedup over scan-all: %.2fx\n", report.SpeedupPushdown)

	out := e.ReportDir
	if out == "" {
		out = "."
	}
	path := filepath.Join(out, "BENCH_scan.json")
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

// wideFieldCount is the per-record field count of the scan dataset.
const wideFieldCount = 8

// genWideRecords builds n deterministic eight-field records: a short
// summary the similarity predicate tokenizes, and fat payload fields
// the two-field query never touches.
func genWideRecords(n int) []adm.Value {
	rng := rand.New(rand.NewSource(7))
	vocab := []string{"apple", "orange", "banana", "cherry", "grape", "mango",
		"peach", "plum", "melon", "kiwi", "fig", "lime"}
	payload := func(words int) string {
		var sb strings.Builder
		for i := 0; i < words; i++ {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(vocab[rng.Intn(len(vocab))])
			sb.WriteString(fmt.Sprintf("%04d", rng.Intn(10000)))
		}
		return sb.String()
	}
	recs := make([]adm.Value, 0, n)
	for i := 0; i < n; i++ {
		var sb strings.Builder
		for w, nw := 0, 2+rng.Intn(5); w < nw; w++ {
			if w > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(vocab[rng.Intn(len(vocab))])
		}
		rec := adm.EmptyRecord(wideFieldCount)
		rec.Set("id", adm.NewInt(int64(i)))
		rec.Set("summary", adm.NewString(sb.String()))
		rec.Set("category", adm.NewString(vocab[rng.Intn(len(vocab))]))
		rec.Set("score", adm.NewInt(int64(rng.Intn(100))))
		rec.Set("payload_a", adm.NewString(payload(24)))
		rec.Set("payload_b", adm.NewString(payload(24)))
		rec.Set("payload_c", adm.NewString(payload(24)))
		rec.Set("payload_d", adm.NewString(payload(24)))
		recs = append(recs, adm.NewRecord(rec))
	}
	return recs
}

// openScanDB opens a fresh database and bulk-loads the scan dataset
// into it.
func openScanDB(dir string, nodes, parts int, recs []adm.Value) (*core.Database, error) {
	db, err := core.Open(core.Config{
		DataDir:           dir,
		NumNodes:          nodes,
		PartitionsPerNode: parts,
	})
	if err != nil {
		return nil, err
	}
	if _, err := db.Query(`create dataset ScanBench primary key id;`); err != nil {
		db.Close()
		return nil, err
	}
	const batch = 512
	for off := 0; off < len(recs); off += batch {
		end := off + batch
		if end > len(recs) {
			end = len(recs)
		}
		if err := db.InsertBatch("ScanBench", recs[off:end]); err != nil {
			db.Close()
			return nil, err
		}
	}
	if err := db.Flush(); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// timeScanQuery runs the query with the given toggle — one warmup,
// then the median wall of three timed runs — and returns the median
// and the row count.
func timeScanQuery(db *core.Database, query string, pushdown bool) (time.Duration, int64, error) {
	sess := sessionWith(func(o *optimizer.Options) {
		o.ProjectionPushdown = pushdown
		o.UseIndexes = false
	})
	var rows int64
	run := func() (time.Duration, error) {
		res, err := db.Execute(context.Background(), sess, query)
		if err != nil {
			return 0, err
		}
		rows = int64(len(res.Rows))
		return time.Duration(res.Stats.ExecNs), nil
	}
	if _, err := run(); err != nil {
		return 0, 0, err
	}
	const repeats = 3
	walls := make([]time.Duration, 0, repeats)
	for i := 0; i < repeats; i++ {
		w, err := run()
		if err != nil {
			return 0, 0, err
		}
		walls = append(walls, w)
	}
	sort.Slice(walls, func(a, b int) bool { return walls[a] < walls[b] })
	return walls[len(walls)/2], rows, nil
}
