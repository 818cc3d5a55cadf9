package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simdb/internal/adm"
	"simdb/internal/obs"
	"simdb/internal/optimizer"
)

func mkRec(id int64, summary string) adm.Value {
	rec := adm.EmptyRecord(2)
	rec.Set("id", adm.NewInt(id))
	rec.Set("summary", adm.NewString(summary))
	return adm.NewRecord(rec)
}

func countDataset(t *testing.T, c *Cluster, sess *Session, ds string) int64 {
	t.Helper()
	res := exec(t, c, sess, fmt.Sprintf(`count(for $r in dataset %s return $r)`, ds))
	if len(res.Rows) != 1 {
		t.Fatalf("count returned %d rows", len(res.Rows))
	}
	return res.Rows[0].Int()
}

func TestInsertBatchBasic(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	exec(t, c, sess, `create dataset D primary key id;`)

	const n = 500
	recs := make([]adm.Value, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, mkRec(int64(i), fmt.Sprintf("payload number %d", i)))
	}
	if err := c.InsertBatch("Default", "D", recs); err != nil {
		t.Fatal(err)
	}
	if got := countDataset(t, c, sess, "D"); got != n {
		t.Errorf("count = %d, want %d", got, n)
	}

	// Per-PK order: a later record in the same batch wins, also when
	// more than a commit chunk of its partition's records lies between
	// the two versions.
	dup := []adm.Value{mkRec(7, "first version")}
	part := c.partitionOfPK(adm.NewInt(7))
	for id := int64(n); len(dup) <= chunkRecords+1; id++ {
		if c.partitionOfPK(adm.NewInt(id)) == part {
			dup = append(dup, mkRec(id, "filler"))
		}
	}
	dup = append(dup, mkRec(7, "second version"))
	if err := c.InsertBatch("Default", "D", dup); err != nil {
		t.Fatal(err)
	}
	res := exec(t, c, sess, `for $r in dataset D where $r.id = 7 return $r.summary`)
	if len(res.Rows) != 1 || res.Rows[0].Str() != "second version" {
		t.Errorf("duplicate-PK batch: got %v", res.Rows)
	}
	if got, want := countDataset(t, c, sess, "D"), int64(n+len(dup)-2); got != want {
		t.Errorf("count after duplicate-PK batch = %d, want %d", got, want)
	}

	// Per-record validation errors are collected, valid records land.
	bad := adm.EmptyRecord(1)
	bad.Set("other", adm.NewString("no pk"))
	mixed := []adm.Value{mkRec(1000, "fine"), adm.NewRecord(bad), adm.NewString("not a record")}
	err := c.InsertBatch("Default", "D", mixed)
	if err == nil {
		t.Fatal("expected errors from invalid records")
	}
	if !strings.Contains(err.Error(), "primary key") || !strings.Contains(err.Error(), "non-record") {
		t.Errorf("joined error missing causes: %v", err)
	}
	res = exec(t, c, sess, `for $r in dataset D where $r.id = 1000 return $r.id`)
	if len(res.Rows) != 1 {
		t.Errorf("valid record in mixed batch not applied")
	}

	if err := c.InsertBatch("Default", "NoSuch", recs[:1]); err == nil {
		t.Error("unknown dataset should fail")
	}
	if err := c.InsertBatch("Default", "D", nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestInsertAtomicOnIndexFailure is the regression test for the
// partial-write inconsistency: when a secondary index cannot take a
// record, queries must never see a half-indexed one. Under every
// WALSyncMode the record's whole write group is prepared before
// anything is written, so a failure leaves no primary row and no
// posting — there is nothing to undo.
func TestInsertAtomicOnIndexFailure(t *testing.T) {
	for _, mode := range []string{"commit", "interval", "off"} {
		t.Run(mode, func(t *testing.T) { testInsertAtomicOnIndexFailure(t, mode) })
	}
}

func testInsertAtomicOnIndexFailure(t *testing.T, mode string) {
	c, err := New(Config{NumNodes: 1, PartitionsPerNode: 2, DataDir: t.TempDir(), WALSyncMode: mode})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sess := NewSession()
	exec(t, c, sess, `create dataset D primary key id;`)
	if err := c.Catalog.AddIndex("Default", "D", optimizer.IndexMeta{Name: "kix", Field: "summary", Type: "keyword"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Catalog.AddIndex("Default", "D", optimizer.IndexMeta{Name: "nix", Field: "summary", Type: "ngram", GramLen: 2}); err != nil {
		t.Fatal(err)
	}

	// Failing the SECOND index: by then the group already holds the
	// primary row and the first index's postings, none of which may
	// reach a memtable.
	hook := func(dv, ds, ix string) error {
		if ix == "nix" {
			return fmt.Errorf("injected index failure")
		}
		return nil
	}
	c.testIndexFail.Store(&hook)
	err = c.Insert("Default", "D", mkRec(1, "zebra quagga"))
	c.testIndexFail.Store(nil)
	if err == nil || !strings.Contains(err.Error(), "injected index failure") {
		t.Fatalf("expected injected failure, got %v", err)
	}

	if got := countDataset(t, c, sess, "D"); got != 0 {
		t.Errorf("primary entry survived failed insert: count = %d", got)
	}
	for part := 0; part < c.cfg.Partitions(); part++ {
		inv, ierr := c.nodeOfPartition(part).invIndex("Default", "D", "kix", part)
		if ierr != nil {
			t.Fatal(ierr)
		}
		if pks, perr := inv.Postings("zebra#1"); perr != nil || len(pks) != 0 {
			t.Errorf("part %d: orphaned postings after failed insert: %v, %v", part, pks, perr)
		}
	}

	// A failed overwrite leaves the old version.
	if err := c.Insert("Default", "D", mkRec(2, "original text")); err != nil {
		t.Fatal(err)
	}
	c.testIndexFail.Store(&hook)
	err = c.Insert("Default", "D", mkRec(2, "replacement text"))
	c.testIndexFail.Store(nil)
	if err == nil {
		t.Fatal("expected injected failure on overwrite")
	}
	res := exec(t, c, sess, `for $r in dataset D where $r.id = 2 return $r.summary`)
	if len(res.Rows) != 1 || res.Rows[0].Str() != "original text" {
		t.Errorf("old version did not survive the failed overwrite: %v", res.Rows)
	}

	// With the hook cleared the same inserts succeed and are indexed.
	if err := c.Insert("Default", "D", mkRec(1, "zebra quagga")); err != nil {
		t.Fatal(err)
	}
	found := 0
	for part := 0; part < c.cfg.Partitions(); part++ {
		inv, ierr := c.nodeOfPartition(part).invIndex("Default", "D", "kix", part)
		if ierr != nil {
			t.Fatal(ierr)
		}
		pks, perr := inv.Postings("zebra#1")
		if perr != nil {
			t.Fatal(perr)
		}
		found += len(pks)
	}
	if found != 1 {
		t.Errorf("postings after successful insert = %d, want 1", found)
	}
}

// TestIngestDurability closes a cluster mid-ingest — with records at
// every stage: flushed components, rotated immutable memtables, the
// active memtable — reopens it, and checks every record and its index
// postings survived.
func TestIngestDurability(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		NumNodes: 1, PartitionsPerNode: 2, DataDir: dir,
		// Tiny budget: rotations happen every few records, so at Close
		// time some records are only in flush-pending immutable
		// memtables.
		MemComponentBudgetBytes: 1 << 10,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Catalog.CreateDataset("Default", "D", "id", false); err != nil {
		t.Fatal(err)
	}
	if err := c.Catalog.AddIndex("Default", "D", optimizer.IndexMeta{Name: "kix", Field: "summary", Type: "keyword"}); err != nil {
		t.Fatal(err)
	}

	const n = 300
	var recs []adm.Value
	for i := 0; i < n; i++ {
		recs = append(recs, mkRec(int64(i), fmt.Sprintf("zebra record number %d", i)))
	}
	// First half flushed to disk components, second half left wherever
	// the pipeline put it (memtables and rotations included).
	if err := c.InsertBatch("Default", "D", recs[:n/2]); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertBatch("Default", "D", recs[n/2:]); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Fresh in-memory catalog: re-register; storage recovers from disk.
	if _, err := c2.Catalog.CreateDataset("Default", "D", "id", false); err != nil {
		t.Fatal(err)
	}
	if err := c2.Catalog.AddIndex("Default", "D", optimizer.IndexMeta{Name: "kix", Field: "summary", Type: "keyword"}); err != nil {
		t.Fatal(err)
	}
	sess := NewSession()
	if got := countDataset(t, c2, sess, "D"); got != n {
		t.Errorf("records after restart = %d, want %d", got, n)
	}
	// Every record's summary contains "zebra", so the keyword index
	// must hold exactly n postings for its counted token.
	postings := 0
	for part := 0; part < cfg.WithDefaults().Partitions(); part++ {
		inv, ierr := c2.nodeOfPartition(part).invIndex("Default", "D", "kix", part)
		if ierr != nil {
			t.Fatal(ierr)
		}
		pks, perr := inv.Postings("zebra#1")
		if perr != nil {
			t.Fatal(perr)
		}
		postings += len(pks)
	}
	if postings != n {
		t.Errorf("index postings after restart = %d, want %d", postings, n)
	}
}

// TestIngestQueryStress mixes batched ingestion, point and similarity
// queries, forced flushes, and background merges; run under -race it
// is the write path's concurrency gate.
func TestIngestQueryStress(t *testing.T) {
	c, err := New(Config{
		NumNodes: 2, PartitionsPerNode: 2, DataDir: t.TempDir(),
		MemComponentBudgetBytes: 4 << 10, // constant rotation + merge pressure
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

	words := []string{"great", "product", "fantastic", "zebra", "charger", "movie"}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	report := func(err error) {
		if err != nil {
			select {
			case errs <- err:
			default:
			}
		}
	}

	var inserted atomic.Int64
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]adm.Value, 0, 16)
				for j := 0; j < 16; j++ {
					id := int64(w)*1_000_000 + int64(i)*16 + int64(j)
					summary := fmt.Sprintf("%s %s %d", words[r.Intn(len(words))], words[r.Intn(len(words))], id)
					batch = append(batch, mkRec(id, summary))
				}
				if err := c.InsertBatch("Default", "D", batch); err != nil {
					report(err)
					return
				}
				inserted.Add(16)
			}
		}(w)
	}
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qsess := NewSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := c.Execute(context.Background(), qsess, `
					for $r in dataset D
					where similarity-jaccard(word-tokens($r.summary), word-tokens('great product')) >= 0.4
					return $r.id
				`)
				report(err)
				_, err = c.Execute(context.Background(), qsess, `for $r in dataset D where $r.id = 42 return $r`)
				report(err)
			}
		}()
	}

	time.Sleep(800 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := countDataset(t, c, sess, "D"); got != inserted.Load() {
		t.Errorf("count = %d, want %d", got, inserted.Load())
	}
}

// TestIngestSoak is the CI soak job: a sustained ingest into 2 KiB
// memtables, so rotations outrun the node's flush workers and write
// stalls engage at the engine's own stall bound, verified for
// completeness at the end. Scaled down unless SIMDB_SOAK is set;
// SIMDB_WAL_MODE picks the sync mode (the CI job runs "commit" and
// "off").
func TestIngestSoak(t *testing.T) {
	batches := 40
	if os.Getenv("SIMDB_SOAK") == "" {
		batches = 8
	}
	c, err := New(Config{
		NumNodes: 2, PartitionsPerNode: 2, DataDir: t.TempDir(),
		MemComponentBudgetBytes: 2 << 10,
		WALSyncMode:             os.Getenv("SIMDB_WAL_MODE"),
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

	const batchSize = 64
	stalls := obs.C("storage.stall.count").Load()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]adm.Value, 0, batchSize)
				for j := 0; j < batchSize; j++ {
					id := int64(w)*10_000_000 + int64(b)*batchSize + int64(j)
					batch = append(batch, mkRec(id, fmt.Sprintf("soak payload zebra %d", id)))
				}
				if err := c.InsertBatch("Default", "D", batch); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	want := int64(4 * batches * batchSize)
	if got := countDataset(t, c, sess, "D"); got != want {
		t.Fatalf("soak lost records: count = %d, want %d", got, want)
	}
	postings := 0
	for part := 0; part < c.cfg.Partitions(); part++ {
		inv, ierr := c.nodeOfPartition(part).invIndex("Default", "D", "kix", part)
		if ierr != nil {
			t.Fatal(ierr)
		}
		pks, perr := inv.Postings("zebra#1")
		if perr != nil {
			t.Fatal(perr)
		}
		postings += len(pks)
	}
	if int64(postings) != want {
		t.Fatalf("soak lost postings: %d, want %d", postings, want)
	}
	got := obs.C("storage.stall.count").Load()
	if got <= stalls {
		t.Errorf("no write stalled during the soak: storage.stall.count %d → %d", stalls, got)
	}
	t.Logf("%d writes stalled", got-stalls)
}
