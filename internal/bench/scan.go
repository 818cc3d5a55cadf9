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

// ScanCell is one configuration point of the scan sweep: a storage
// format crossed with the projection-pushdown toggle, all running the
// same two-field similarity query.
type ScanCell struct {
	Label    string  `json:"label"`
	Format   string  `json:"format"`
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
	// SpeedupColumnar is row/scan-all wall over columnar/pushdown wall:
	// the end-to-end gain of columnar components plus projection for a
	// query touching 2 of the record's fields.
	SpeedupColumnar float64 `json:"speedup_columnar"`
}

// ScanBench measures the full-scan similarity query path across the
// storage-format toggles this reproduction adds on top of the paper:
// row versus columnar components, projection pushdown on versus off.
// Every cell runs with the scan's record filter, which has no toggle.
// The dataset
// is deliberately wide — eight fields, most of them bulky payload the
// query never reads — so the two-field query (summary for the
// similarity predicate, id for the result) isolates how much decode
// and read work each configuration avoids. Each format loads the same
// records into its own fresh database; results go to BENCH_scan.json.
func (e *Env) ScanBench() error {
	e.logf("\n=== Scan: columnar + projection pushdown ===\n")
	n := e.Scale
	recs := genWideRecords(n)

	query := `
		for $r in dataset ScanBench
		where similarity-jaccard(word-tokens($r.summary),
		                         word-tokens('orange banana cherry')) >= 0.4
		return $r.id`

	type cellSpec struct {
		format   string
		pushdown bool
	}
	specs := []cellSpec{
		{"row", false},
		{"row", true},
		{"columnar", false},
		{"columnar", true},
	}

	report := ScanReport{Experiment: "scan", Scale: n, Nodes: e.Nodes, Fields: wideFieldCount}
	e.logf("%-22s %10s %9s %8s %12s\n", "config", "format", "pushdown", "rows", "wall(ms)")
	walls := map[string]time.Duration{}
	for _, format := range []string{"row", "columnar"} {
		dir := filepath.Join(e.Dir, "scan-"+format)
		db, err := openScanDB(dir, e.Nodes, e.PartsPerNode, format, recs)
		if err != nil {
			return fmt.Errorf("scan %s: %w", format, err)
		}
		for _, spec := range specs {
			if spec.format != format {
				continue
			}
			wall, rows, err := timeScanQuery(db, query, spec.pushdown)
			if err != nil {
				db.Close()
				return fmt.Errorf("scan %s: %w", format, err)
			}
			label := spec.format
			if spec.pushdown {
				label += "/pushdown"
			} else {
				label += "/scan-all"
			}
			walls[label] = wall
			cell := ScanCell{
				Label:    label,
				Format:   spec.format,
				Pushdown: spec.pushdown,
				Rows:     rows,
				WallMs:   float64(wall.Microseconds()) / 1000,
			}
			report.Cells = append(report.Cells, cell)
			e.logf("%-22s %10s %9v %8d %12.2f\n",
				label, spec.format, spec.pushdown, rows, cell.WallMs)
		}
		db.Close()
		_ = os.RemoveAll(dir)
	}

	// Every cell answers the same query, so any row-count disagreement
	// means a correctness bug, not a performance difference.
	for _, c := range report.Cells {
		if c.Rows != report.Cells[0].Rows {
			return fmt.Errorf("scan: cell %s returned %d rows, %s returned %d",
				c.Label, c.Rows, report.Cells[0].Label, report.Cells[0].Rows)
		}
	}

	if w := walls["columnar/pushdown"]; w > 0 {
		report.SpeedupColumnar = float64(walls["row/scan-all"]) / float64(w)
	}
	e.logf("columnar+pushdown speedup over row scan-all: %.2fx\n", report.SpeedupColumnar)

	dir := e.ReportDir
	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, "BENCH_scan.json")
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

// openScanDB opens a fresh database with the given storage format and
// bulk-loads the scan dataset into it.
func openScanDB(dir string, nodes, parts int, format string, recs []adm.Value) (*core.Database, error) {
	db, err := core.Open(core.Config{
		DataDir:           dir,
		NumNodes:          nodes,
		PartitionsPerNode: parts,
		StorageFormat:     format,
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
