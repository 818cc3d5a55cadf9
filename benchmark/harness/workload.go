// Package harness is simbench proper: the six workloads, the drivers
// that load them, the metrics they report, and the comparison of two
// reports. Inputs come from benchmark/gen, answers are checked against
// benchmark/oracle, and the engine is reached only through the public
// functions of its packages.
package harness

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"simdb/benchmark/gen"
	"simdb/internal/adm"
	"simdb/internal/core"
)

// Workload is one set of inputs and the configuration it runs under.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Indexed loads dataset Reviews with its three secondary indexes;
	// otherwise the same records go into ReviewsPlain with none.
	Indexed bool
	// Clients is the number of closed-loop query clients.
	Clients int
	// Join replaces CANON by the three-stage self-join on the first
	// JoinRecords records.
	Join bool
	// Ingest adds the open-loop writer and the reopen check.
	Ingest bool
	// HTTP sends queries through the simdbd front end.
	HTTP bool
	// Tune applies the knobs that differ from core.Config's defaults.
	Tune func(*core.Config)
}

// Knob values that differ from the defaults; README.md says why.
const (
	// DefaultRecords is the canonical dataset size.
	DefaultRecords = 20000
	// scanCacheBytes is sel_scan's per-node buffer cache: about a sixth of
	// one node's share of the data, so scans read from disk pages.
	scanCacheBytes = 512 << 10
	// ingestMemBytes is ingest_query's per-tree memtable budget, sized so
	// that every tree flushes many times and merges at least once in a
	// window of ten to fifteen seconds at writeRate.
	ingestMemBytes = 128 << 10
	// joinMemBudget is join_3stage's per-query operator memory.
	joinMemBudget = "2m"
	// writeRate is the open-loop insert rate in records per second, sent
	// as batches of writeBatch.
	writeRate  = 2000
	writeBatch = 64
	// writeInterval is the time between two batches' due times.
	writeInterval = time.Second * writeBatch / writeRate
)

// joinRecords is how many records the join workload keeps. One client
// runs a join over 1000 records in about 40 ms, and a window of ten
// seconds needs 200 of them for a p95.
func joinRecords(records int) int { return max(records/20, 4*gen.JoinOuter) }

// Workloads lists the six workloads in report order.
var Workloads = []Workload{
	{
		Name:    "sel_index",
		Why:     "CANON selections through keyword/ngram indexes, embedded: invindex search, primary-key lookups, verification and compile cost",
		Indexed: true, Clients: 2,
	},
	{
		Name:    "sel_scan",
		Why:     "same queries, no secondary index, 512 KiB buffer cache: bypasses invindex; scan, decode, tokenize and evaluate once per record",
		Clients: 2,
		Tune:    func(c *core.Config) { c.DiskBufferCacheBytes = scanCacheBytes },
	},
	{
		Name:    "join_3stage",
		Why:     "Jaccard 0.8 self-join under a 2 MiB operator budget: hyracks sort/group/join, connectors and spill; index and plan cache idle",
		Clients: 1, Join: true,
	},
	{
		Name:    "ingest_query",
		Why:     "open-loop inserts at 2000 rec/s beside indexed reads, small memtables: flush, merge, WAL and index maintenance against read latency",
		Indexed: true, Clients: 1, Ingest: true,
		Tune: func(c *core.Config) { c.MemComponentBudgetBytes = ingestMemBytes },
	},
	{
		Name:    "sel_tcp",
		Why:     "sel_index with node 1 in a child process over loopback tcp: the difference to sel_index is the transport tax",
		Indexed: true, Clients: 2,
		Tune: func(c *core.Config) { c.Transport = "tcp" },
	},
	{
		Name:    "sel_http",
		Why:     "sel_index through the simdbd HTTP front end, NDJSON decoded by the client: the difference to sel_index is the serving tax",
		Indexed: true, Clients: 2, HTTP: true,
		Tune: func(c *core.Config) { c.ServeAddr = "127.0.0.1:0" },
	},
}

// Find returns the named workload.
func Find(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Dataset is the name of the dataset the workload queries.
func (w Workload) Dataset() string {
	if w.Indexed {
		return "Reviews"
	}
	return "ReviewsPlain"
}

// Config is the full engine configuration the workload opens with.
func (w Workload) Config(dataDir string) core.Config {
	cfg := core.Config{DataDir: dataDir}
	if w.Tune != nil {
		w.Tune(&cfg)
	}
	return cfg
}

var recordFields = []string{"id", "reviewerName", "summary", "overall", "asin", "helpful", "unixReviewTime", "reviewText"}

// toADM converts a generated record to the engine's value type.
func toADM(r gen.Record) adm.Value {
	return adm.NewRecord(adm.NewRecordFromFields(recordFields, []adm.Value{
		adm.NewInt(r.ID), adm.NewString(r.ReviewerName), adm.NewString(r.Summary),
		adm.NewInt(r.Overall), adm.NewString(r.ASIN), adm.NewInt(r.Helpful),
		adm.NewInt(r.UnixReviewTime), adm.NewString(r.ReviewText),
	}))
}

func toADMBatch(recs []gen.Record) []adm.Value {
	out := make([]adm.Value, len(recs))
	for i, r := range recs {
		out[i] = toADM(r)
	}
	return out
}

// jsonBytes is the size of the records as JSON lines: the user data
// space_amp is relative to.
func jsonBytes(recs []gen.Record) int64 {
	var n int64
	var buf []byte
	for _, r := range recs {
		buf = r.AppendJSON(buf[:0])
		n += int64(len(buf)) + 1
	}
	return n
}

// loadBatch is the set-up load's batch size (core.LoadJSONLines' own).
const loadBatch = 512

// setup opens a database in dir and makes it ready for the workload:
// open (+ worker start, + listen), create, load, build indexes, flush.
// This whole function is what setup_s times.
func setup(w Workload, recs []gen.Record, dir string) (*core.Database, error) {
	db, err := core.Open(w.Config(dir))
	if err != nil {
		return nil, err
	}
	ds := w.Dataset()
	fail := func(err error) (*core.Database, error) {
		db.Close()
		return nil, err
	}
	if _, err := db.Query("create dataset " + ds + " primary key id;"); err != nil {
		return fail(err)
	}
	for i := 0; i < len(recs); i += loadBatch {
		if err := db.InsertBatch(ds, toADMBatch(recs[i:min(i+loadBatch, len(recs))])); err != nil {
			return fail(err)
		}
	}
	// Indexes are built over the loaded data, as the paper's experiments
	// (and a user adding an index to a live dataset) do.
	if w.Indexed {
		for _, s := range []string{
			"create index rv_kw on " + ds + "(summary) type keyword;",
			"create index rv_ng on " + ds + "(reviewerName) type ngram(2);",
			"create index rv_bt on " + ds + "(reviewerName) type btree;",
		} {
			if _, err := db.Query(s); err != nil {
				return fail(fmt.Errorf("%s: %w", s, err))
			}
		}
	}
	if err := db.Flush(); err != nil {
		return fail(err)
	}
	return db, nil
}

// reopenAndCount opens dir again after the caller closed the database,
// re-declares the dataset (the catalog is in memory; the data is not)
// and returns the ids in [lo, hi) that are readable.
func reopenAndCount(w Workload, dir string, lo, hi int64) (map[int64]bool, error) {
	cfg := w.Config(dir)
	cfg.ServeAddr = ""
	db, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if _, err := db.Query("create dataset " + w.Dataset() + " primary key id;"); err != nil {
		return nil, err
	}
	res, err := db.Execute(context.Background(), nil, fmt.Sprintf(
		"for $r in dataset %s where $r.id >= %d and $r.id < %d return $r.id", w.Dataset(), lo, hi))
	if err != nil {
		return nil, err
	}
	got := make(map[int64]bool, len(res.Rows))
	for _, v := range res.Rows {
		got[v.Int()] = true
	}
	return got, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // a merge retired the file between listing and stat
			}
			return err
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n, err
}
