package cluster

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/optimizer"
	"simdb/internal/storage"
	"simdb/internal/storage/errfs"
)

// TestWALCrashRecoveryProperty is the randomized counterpart of the
// storage-level crash matrix: random batch sizes, a random kill point,
// a full cluster restart, then the durability contract of the active
// sync mode is checked for every submitted record. SIMDB_WAL_MODE
// narrows the run to one mode (the CI matrix sets it); by default all
// three modes run, each with several seeds.
func TestWALCrashRecoveryProperty(t *testing.T) {
	modes := []string{"commit", "interval", "off"}
	if m := os.Getenv("SIMDB_WAL_MODE"); m != "" {
		modes = []string{m}
	}
	for _, mode := range modes {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mode, seed), func(t *testing.T) {
				runWALCrashProperty(t, mode, seed)
			})
		}
	}
}

// walWorkload is one pass of the randomized ingest workload: a cluster
// on an injected filesystem plus the acknowledgement ledger the
// durability contract is checked against.
type walWorkload struct {
	fs        *errfs.FS
	cfg       Config
	submitted int
	acked     []bool
}

// runWALWorkload drives random-size batches against a fresh cluster
// until the crash plan fires or the workload ends. crashAt < 0 runs
// fault-free (the probe pass). Each record carries a unique keyword
// token, so row i acknowledged means both the primary row and the
// posting for tok_i were committed atomically.
func runWALWorkload(t *testing.T, mode string, seed int64, crashAt int) *walWorkload {
	t.Helper()
	fs := errfs.New()
	w := &walWorkload{
		fs: fs,
		cfg: Config{
			NumNodes:          2,
			PartitionsPerNode: 2,
			DataDir:           t.TempDir(),
			FS:                fs,
			WALSyncMode:       mode,
		},
	}
	fs.SetPlan(errfs.Plan{CrashAtOp: crashAt, Variant: errfs.Kill})
	c, err := New(w.cfg)
	if err != nil {
		// Crashed during startup: nothing was acknowledged.
		return w
	}
	sess := NewSession()
	exec(t, c, sess, `create dataset D primary key id;`)
	if err := c.Catalog.AddIndex("Default", "D", optimizer.IndexMeta{Name: "kix", Field: "summary", Type: "keyword"}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	const maxRecords = 600
	for w.submitted < maxRecords && !fs.Crashed() {
		n := 1 + rng.Intn(40)
		if w.submitted+n > maxRecords {
			n = maxRecords - w.submitted
		}
		recs := make([]adm.Value, 0, n)
		for i := 0; i < n; i++ {
			recs = append(recs, mkRec(int64(w.submitted+i), fmt.Sprintf("tok%04d", w.submitted+i)))
		}
		err := c.InsertBatch("Default", "D", recs)
		for i := 0; i < n; i++ {
			w.acked = append(w.acked, err == nil)
		}
		w.submitted += n
		if err != nil {
			break
		}
	}
	c.Close() // best-effort: the filesystem may already be "dead"
	return w
}

func runWALCrashProperty(t *testing.T, mode string, seed int64) {
	// Probe pass: run the workload fault-free to learn how many
	// filesystem operations it produces end to end, then aim the kill
	// uniformly inside that window. Group commit coalesces many records
	// into few writes (and mode "off" barely touches the filesystem
	// before close-time flushes), so a fixed op range would routinely
	// miss the interesting region entirely.
	probe := runWALWorkload(t, mode, seed, -1)
	if probe.fs.Crashed() {
		t.Fatal("probe pass crashed without a crash plan")
	}
	nops := len(probe.fs.Ops())
	rng := rand.New(rand.NewSource(seed * 7919))
	crashAt := 1 + rng.Intn(nops)

	w := runWALWorkload(t, mode, seed, crashAt)
	fs, cfg, submitted, acked := w.fs, w.cfg, w.submitted, w.acked
	crashed := fs.Crashed()

	// Process restart.
	fs.SetPlan(errfs.Plan{CrashAtOp: -1})
	fs.Reopen()
	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart after crash: %v", err)
	}
	defer c2.Close()
	sess2 := NewSession()
	exec(t, c2, sess2, `create dataset D primary key id;`)
	if err := c2.Catalog.AddIndex("Default", "D", optimizer.IndexMeta{Name: "kix", Field: "summary", Type: "keyword"}); err != nil {
		t.Fatal(err)
	}

	recovered := 0
	for i := 0; i < submitted; i++ {
		pk := adm.NewInt(int64(i))
		part := c2.partitionOfPK(pk)
		node := c2.nodeOfPartition(part)
		tree, err := node.primary("Default", "D", part)
		if err != nil {
			t.Fatalf("open primary partition %d: %v", part, err)
		}
		_, ok, err := tree.Get(adm.OrderedKey(pk))
		if err != nil {
			t.Fatalf("get record %d: %v", i, err)
		}
		ix, err := node.invIndex("Default", "D", "kix", part)
		if err != nil {
			t.Fatalf("open index partition %d: %v", part, err)
		}
		// Ingestion stores counted tokens ("tok#occurrences").
		pks, err := ix.Postings(fmt.Sprintf("tok%04d#1", i))
		if err != nil {
			t.Fatalf("postings for record %d: %v", i, err)
		}
		pok := len(pks) > 0
		if ok {
			recovered++
		}
		switch mode {
		case "commit":
			// Every acknowledged record must survive, and the atomic
			// row+posting group must never be torn apart.
			if acked[i] && !ok {
				t.Fatalf("record %d was acknowledged but is gone after recovery", i)
			}
			if pok != ok {
				t.Fatalf("record %d: row present=%v, posting present=%v (atomic group torn)", i, ok, pok)
			}
		case "interval":
			// Bounded loss is allowed, atomicity is not negotiable.
			if pok != ok {
				t.Fatalf("record %d: row present=%v, posting present=%v (atomic group torn)", i, ok, pok)
			}
		default:
			// off: unflushed data is legitimately gone, and a crash
			// between a primary flush and an index flush may tear a
			// group. Recovery just has to come back serving queries.
		}
	}

	// Queries must work on the recovered state.
	res := exec(t, c2, sess2, `count(for $r in dataset D return $r)`)
	if got := res.Rows[0].Int(); got != int64(recovered) {
		t.Errorf("count after recovery = %d, direct reads saw %d rows", got, recovered)
	}
	t.Logf("mode=%s seed=%d: ops=%d crashAt=%d crashed=%v submitted=%d recovered=%d",
		mode, seed, nops, crashAt, crashed, submitted, recovered)
}

// TestWALModesLeaveIdenticalState feeds the three sync modes the same
// seeded batches — same-PK overwrites inside and across batches,
// records without a primary key, and batches in which the ngram index
// refuses every record that has a title — and demands byte-identical
// primary scans and postings at the end: the mode chooses whether a
// log is written, not what reaches the trees.
func TestWALModesLeaveIdenticalState(t *testing.T) {
	var first string
	for _, mode := range []string{"commit", "interval", "off"} {
		state := runModeWorkload(t, mode)
		if first == "" {
			first = state
		} else if state != first {
			got, want := strings.Split(state, "\n"), strings.Split(first, "\n")
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Errorf("mode %s ends in a different state than commit (%d vs %d lines), first at line %d:\n%s\nwant\n%s",
				mode, len(got), len(want), i, strings.Join(got[i:min(i+3, len(got))], "\n"), strings.Join(want[i:min(i+3, len(want))], "\n"))
		}
	}
}

func runModeWorkload(t *testing.T, mode string) string {
	t.Helper()
	c, err := New(Config{
		NumNodes: 2, PartitionsPerNode: 2, DataDir: t.TempDir(), WALSyncMode: mode,
		// Small memtables: every mode flushes and merges mid-workload.
		MemComponentBudgetBytes: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess := NewSession()
	exec(t, c, sess, `create dataset D primary key id;`)
	if err := c.Catalog.AddIndex("Default", "D", optimizer.IndexMeta{Name: "kix", Field: "summary", Type: "keyword"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Catalog.AddIndex("Default", "D", optimizer.IndexMeta{Name: "nix", Field: "title", Type: "ngram", GramLen: 2}); err != nil {
		t.Fatal(err)
	}
	failNix := func(dv, ds, ix string) error {
		if ix == "nix" {
			return fmt.Errorf("injected index failure")
		}
		return nil
	}

	rng := rand.New(rand.NewSource(42))
	live := map[int64]string{} // pk → summary of the last accepted version
	for b := 0; b < 60; b++ {
		failing := b%3 == 2
		wantErr := false
		recs := make([]adm.Value, 0, 40)
		for i, n := 0, 1+rng.Intn(40); i < n; i++ {
			id := int64(rng.Intn(150))
			summary := fmt.Sprintf("tok%03d ver%d.%d", id, b, i)
			rec := adm.EmptyRecord(3)
			rec.Set("summary", adm.NewString(summary))
			titled := rng.Intn(2) == 0
			if titled {
				rec.Set("title", adm.NewString(fmt.Sprintf("title %d", id)))
			}
			switch {
			case rng.Intn(15) == 0: // no primary key: refused on the caller's side
				wantErr = true
			case failing && titled: // refused in prepare, by the index seam
				rec.Set("id", adm.NewInt(id))
				wantErr = true
			default:
				rec.Set("id", adm.NewInt(id))
				live[id] = summary
			}
			recs = append(recs, adm.NewRecord(rec))
		}
		if failing {
			c.testIndexFail.Store(&failNix)
		}
		err := c.InsertBatch("Default", "D", recs)
		c.testIndexFail.Store(nil)
		if (err != nil) != wantErr {
			t.Fatalf("mode %s batch %d: err = %v, want error: %v", mode, b, err, wantErr)
		}
	}

	// The accepted versions, and only those, are what queries see.
	if got := countDataset(t, c, sess, "D"); got != int64(len(live)) {
		t.Errorf("mode %s: count = %d, want %d", mode, got, len(live))
	}
	for id, summary := range live {
		res := exec(t, c, sess, fmt.Sprintf(`for $r in dataset D where $r.id = %d return $r.summary`, id))
		if len(res.Rows) != 1 || res.Rows[0].Str() != summary {
			t.Fatalf("mode %s: record %d = %v, want %q", mode, id, res.Rows, summary)
		}
	}

	var state strings.Builder
	dump := func(name string, tree *storage.LSMTree) {
		fmt.Fprintf(&state, "%s\n", name)
		err := tree.Scan(nil, nil, func(k, v []byte) bool {
			fmt.Fprintf(&state, "%x=%x\n", k, v)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for part := 0; part < c.cfg.Partitions(); part++ {
		node := c.nodeOfPartition(part)
		prim, err := node.primary("Default", "D", part)
		if err != nil {
			t.Fatal(err)
		}
		dump(fmt.Sprintf("primary/%d", part), prim)
		for _, ix := range []string{"kix", "nix"} {
			inv, err := node.invIndex("Default", "D", ix, part)
			if err != nil {
				t.Fatal(err)
			}
			dump(fmt.Sprintf("%s/%d", ix, part), inv.Tree())
		}
	}
	return state.String()
}

// TestCornerCaseQuerySurvivesCrash exercises the compile-time corner
// case end to end across a crash: an edit-distance predicate whose
// T-occurrence bound is <= 0 must fall back to a scan (and say so in
// the query stats) both before the crash and on the recovered store.
func TestCornerCaseQuerySurvivesCrash(t *testing.T) {
	fs := errfs.New()
	cfg := Config{NumNodes: 1, PartitionsPerNode: 2, DataDir: t.TempDir(), FS: fs, WALSyncMode: "commit"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession()
	exec(t, c, sess, `create dataset Users primary key id;`)
	if err := c.Catalog.AddIndex("Default", "Users", optimizer.IndexMeta{Name: "nix", Field: "name", Type: "ngram", GramLen: 2}); err != nil {
		t.Fatal(err)
	}
	user := func(id int64, name string) adm.Value {
		rec := adm.EmptyRecord(2)
		rec.Set("id", adm.NewInt(id))
		rec.Set("name", adm.NewString(name))
		return adm.NewRecord(rec)
	}
	names := []string{"mary", "maria", "mario", "henrietta"}
	for i, n := range names {
		if err := c.InsertBatch("Default", "Users", []adm.Value{user(int64(i), n)}); err != nil {
			t.Fatal(err)
		}
	}

	// 'ma' with k=3 and 2-grams: T <= 0, the optimizer must keep the
	// scan even though an applicable ngram index exists.
	query := `
		for $r in dataset Users
		where edit-distance($r.name, 'ma') <= 3
		return $r.id
	`
	res := exec(t, c, sess, query)
	if res.Stats.CornerCaseFallbacks == 0 {
		t.Fatal("corner-case fallback not counted in query stats")
	}
	if res.Stats.IndexSearches != 0 {
		t.Fatal("corner-case query must not search the index")
	}
	before := fmt.Sprint(rowInts(t, res.Rows))
	if len(res.Rows) < 3 {
		t.Fatalf("expected mary/maria/mario to match, got %s", before)
	}

	// Crash the next storage mutation: an insert that would not match
	// the query dies mid-commit, the "process" is gone.
	fs.SetPlan(errfs.Plan{CrashAtOp: len(fs.Ops()), Variant: errfs.Kill})
	if err := c.InsertBatch("Default", "Users", []adm.Value{user(99, "zzzz")}); err == nil {
		t.Fatal("insert during planned crash should fail")
	}
	c.Close()

	fs.SetPlan(errfs.Plan{CrashAtOp: -1})
	fs.Reopen()
	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer c2.Close()
	sess2 := NewSession()
	exec(t, c2, sess2, `create dataset Users primary key id;`)
	if err := c2.Catalog.AddIndex("Default", "Users", optimizer.IndexMeta{Name: "nix", Field: "name", Type: "ngram", GramLen: 2}); err != nil {
		t.Fatal(err)
	}
	res2 := exec(t, c2, sess2, query)
	if res2.Stats.CornerCaseFallbacks == 0 {
		t.Error("corner-case fallback not counted after recovery")
	}
	if res2.Stats.IndexSearches != 0 {
		t.Error("corner-case query used the index after recovery")
	}
	if after := fmt.Sprint(rowInts(t, res2.Rows)); after != before {
		t.Errorf("corner-case query changed across crash: %s then %s", before, after)
	}
}

// TestWALMetricsInClusterSnapshot pins the observability half of the
// durability contract: after a commit-mode ingest, the cluster metric
// snapshot must carry the storage.wal.* series (appends/fsyncs plus
// the group-size histogram from the syncer, and the refreshed segment
// gauge) so operators can watch the group-commit ratio live.
func TestWALMetricsInClusterSnapshot(t *testing.T) {
	c, err := New(Config{NumNodes: 1, PartitionsPerNode: 2, DataDir: t.TempDir(), WALSyncMode: "commit"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sess := NewSession()
	exec(t, c, sess, `create dataset D primary key id;`)
	recs := make([]adm.Value, 0, 64)
	for i := 0; i < 64; i++ {
		recs = append(recs, mkRec(int64(i), fmt.Sprintf("tok%04d", i)))
	}
	if err := c.InsertBatch("Default", "D", recs); err != nil {
		t.Fatal(err)
	}

	snap := c.Metrics()
	if snap.Counters["storage.wal.appends"] == 0 {
		t.Error("storage.wal.appends missing or zero in cluster snapshot")
	}
	if snap.Counters["storage.wal.fsyncs"] == 0 {
		t.Error("storage.wal.fsyncs missing or zero in cluster snapshot")
	}
	if _, ok := snap.Histograms["storage.wal.group_size"]; !ok {
		t.Error("storage.wal.group_size histogram missing from cluster snapshot")
	}
	if snap.Gauges["storage.wal.segments"] < 1 {
		t.Errorf("storage.wal.segments = %d, want >= 1", snap.Gauges["storage.wal.segments"])
	}
}
