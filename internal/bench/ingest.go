package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"simdb/internal/adm"
	"simdb/internal/core"
	"simdb/internal/datagen"
)

// IngestCell is one configuration point of the ingestion sweep.
type IngestCell struct {
	Label         string  `json:"label"`
	BatchSize     int     `json:"batch_size"`
	WithIndex     bool    `json:"with_index"`
	WAL           string  `json:"wal"`
	Records       int     `json:"records"`
	WallMs        float64 `json:"wall_ms"`
	RecordsPerSec float64 `json:"records_per_sec"`
}

// IngestReport is the JSON emitted as BENCH_ingest.json.
type IngestReport struct {
	Experiment string       `json:"experiment"`
	Scale      int          `json:"scale"`
	Nodes      int          `json:"nodes"`
	Cells      []IngestCell `json:"cells"`
}

// IngestBench measures batched, partition-parallel ingestion: the same
// record stream loaded through per-record inserts (batch size 1) versus
// batches of increasing size, with and without a keyword index
// maintained inline (tokenization is the per-partition cost a batch
// applies in parallel). Each cell loads into a fresh database so no
// cell inherits another's components. Results go to BENCH_ingest.json
// under Env.ReportDir.
func (e *Env) IngestBench() error {
	e.logf("\n=== Ingestion: batched pipeline vs single-record path ===\n")
	n := e.Scale
	recs := make([]adm.Value, 0, n)
	if err := datagen.Generate(datagen.Amazon, n, datagen.Options{Seed: 1}, func(v adm.Value) error {
		recs = append(recs, v)
		return nil
	}); err != nil {
		return err
	}

	// The WAL column measures group-commit overhead: every cell runs
	// with the default commit-durable log unless marked wal=off, and the
	// batch512 twins make the commit-vs-off comparison directly (the
	// acceptance bar is commit within 2x of the no-WAL pipeline).
	cells := []IngestCell{
		{Label: "single", BatchSize: 1, WithIndex: false, WAL: "commit"},
		{Label: "batch64", BatchSize: 64, WithIndex: false, WAL: "commit"},
		{Label: "batch512", BatchSize: 512, WithIndex: false, WAL: "commit"},
		{Label: "batch512/wal=off", BatchSize: 512, WithIndex: false, WAL: "off"},
		{Label: "batch512/wal=interval", BatchSize: 512, WithIndex: false, WAL: "interval"},
		{Label: "single+kw", BatchSize: 1, WithIndex: true, WAL: "commit"},
		{Label: "batch64+kw", BatchSize: 64, WithIndex: true, WAL: "commit"},
		{Label: "batch512+kw", BatchSize: 512, WithIndex: true, WAL: "commit"},
		{Label: "batch512+kw/wal=off", BatchSize: 512, WithIndex: true, WAL: "off"},
	}

	// Each cell runs three times and reports the median, so one
	// disk-latency spike during a final flush cannot invert the
	// comparison the report exists to make.
	const repeats = 3
	report := IngestReport{Experiment: "ingest", Scale: n, Nodes: e.Nodes}
	e.logf("%-24s %8s %6s %9s %12s %14s\n",
		"config", "batch", "index", "wal", "wall(ms)", "records/sec")
	for i, cell := range cells {
		walls := make([]time.Duration, 0, repeats)
		for r := 0; r < repeats; r++ {
			dir := filepath.Join(e.Dir, fmt.Sprintf("ingest-cell%d-r%d", i, r))
			wall, err := e.runIngestCell(dir, recs, cell)
			if err != nil {
				return fmt.Errorf("ingest cell %s: %w", cell.Label, err)
			}
			walls = append(walls, wall)
			_ = os.RemoveAll(dir)
		}
		sort.Slice(walls, func(a, b int) bool { return walls[a] < walls[b] })
		wall := walls[len(walls)/2]
		cell.Records = n
		cell.WallMs = float64(wall.Microseconds()) / 1000
		cell.RecordsPerSec = float64(n) / wall.Seconds()
		report.Cells = append(report.Cells, cell)
		e.logf("%-24s %8d %6v %9s %12.1f %14.0f\n",
			cell.Label, cell.BatchSize, cell.WithIndex,
			cell.WAL, cell.WallMs, cell.RecordsPerSec)
	}

	dir := e.ReportDir
	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, "BENCH_ingest.json")
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

// runIngestCell loads recs into a fresh database per the cell's
// configuration and returns the ingest wall time (load + final flush).
func (e *Env) runIngestCell(dir string, recs []adm.Value, cell IngestCell) (time.Duration, error) {
	db, err := core.Open(core.Config{
		DataDir:           dir,
		NumNodes:          e.Nodes,
		PartitionsPerNode: e.PartsPerNode,
		WALSyncMode:       cell.WAL,
	})
	if err != nil {
		return 0, err
	}
	defer db.Close()
	if _, err := db.Query(`create dataset IngestBench primary key id;`); err != nil {
		return 0, err
	}
	if cell.WithIndex {
		if _, err := db.Query(`create index ib_kw on IngestBench(summary) type keyword;`); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	if cell.BatchSize <= 1 {
		for _, r := range recs {
			if err := db.Insert("IngestBench", r); err != nil {
				return 0, err
			}
		}
	} else {
		for off := 0; off < len(recs); off += cell.BatchSize {
			end := off + cell.BatchSize
			if end > len(recs) {
				end = len(recs)
			}
			if err := db.InsertBatch("IngestBench", recs[off:end]); err != nil {
				return 0, err
			}
		}
	}
	if err := db.Flush(); err != nil {
		return 0, err
	}
	wall := time.Since(t0)

	// The sweep doubles as a correctness check: every cell must land
	// every record.
	res, err := db.Query(`count(for $r in dataset IngestBench return $r)`)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || res.Rows[0].Int() != int64(len(recs)) {
		return 0, fmt.Errorf("loaded %v records, want %d", res.Rows, len(recs))
	}
	return wall, nil
}
