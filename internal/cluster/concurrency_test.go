package cluster

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simdb/internal/adm"
	"simdb/internal/optimizer"
	"simdb/internal/storage"
)

func TestQueryManagerAdmission(t *testing.T) {
	qm := newQueryManager(2, 0, 0)
	ctx := context.Background()

	_, rel1, _, err := qm.admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, rel2, _, err := qm.admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := qm.Stats().Active; got != 2 {
		t.Fatalf("active = %d, want 2", got)
	}

	// Third caller must wait; a cancelled context gives up cleanly.
	shortCtx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, _, _, err := qm.admit(shortCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("admit over capacity: err = %v, want deadline exceeded", err)
	}
	if got := qm.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}

	// Freeing a slot admits the next waiter.
	done := make(chan struct{})
	go func() {
		_, rel3, waitNs, err := qm.admit(ctx)
		if err != nil {
			t.Error(err)
		} else {
			if waitNs <= 0 {
				t.Error("expected a positive admission wait")
			}
			rel3(nil)
		}
		close(done)
	}()
	time.Sleep(30 * time.Millisecond)
	rel1(nil)
	<-done
	rel2(errors.New("boom"))

	st := qm.Stats()
	if st.Active != 0 || st.Completed != 2 || st.Failed != 1 || st.PeakActive != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueryTimeoutCancelsScan(t *testing.T) {
	c, err := New(Config{NumNodes: 1, PartitionsPerNode: 1, DataDir: t.TempDir(),
		QueryTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// DDL paths don't consult the deadline; seed without a timeout by
	// inserting directly.
	if _, err := c.Catalog.CreateDataset("Default", "D", "id", false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		rec := adm.EmptyRecord(2)
		rec.Set("id", adm.NewInt(int64(i)))
		rec.Set("text", adm.NewString(fmt.Sprintf("row number %d", i)))
		if err := c.Insert("Default", "D", adm.NewRecord(rec)); err != nil {
			t.Fatal(err)
		}
	}
	_, qerr := c.Execute(context.Background(), nil, `count(for $d in dataset D return $d)`)
	if qerr == nil {
		t.Skip("scan finished inside a nanosecond deadline")
	}
	if !errors.Is(qerr, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", qerr)
	}
	if !errors.Is(qerr, ErrQueryTimeout) {
		t.Fatalf("err = %v, want ErrQueryTimeout", qerr)
	}
	if errors.Is(qerr, ErrAdmissionTimeout) {
		t.Fatalf("execution timeout misclassified as admission timeout: %v", qerr)
	}
	st := c.qm.Stats()
	if st.Failed == 0 {
		t.Fatalf("timeout not counted as failure: %+v", st)
	}
	if st.TimedOut == 0 {
		t.Fatalf("timeout not counted as timed out: %+v", st)
	}
}

// TestConcurrentServingStress is the satellite end-to-end race test: N
// query clients against M insert clients with one create index DDL
// mid-flight, under -race. After the storm quiesces, the index path and
// the scan path must agree, and the plan cache must not have served any
// pre-DDL plan after the DDL (checked structurally by epoch in
// TestPlanCacheDDLInvalidation; here the full storm runs it for real).
func TestConcurrentServingStress(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	setup := NewSession()
	exec(t, c, setup, `create dataset Msgs primary key id;`)

	vocab := []string{"great", "product", "fantastic", "quality", "terrible",
		"movie", "charger", "gift", "works", "fine", "best", "ever"}
	insertMsg := func(id int64) error {
		rec := adm.EmptyRecord(2)
		rec.Set("id", adm.NewInt(id))
		text := vocab[id%int64(len(vocab))] + " " +
			vocab[(id*7+3)%int64(len(vocab))] + " " +
			vocab[(id*13+5)%int64(len(vocab))]
		if id%5 == 0 {
			// Every fifth record shares >= 2 of the probe's 3 tokens, so
			// Jaccard("great product X", probe) >= 0.5 — these are the rows
			// the stress query must find on both the index and scan paths.
			text = "great product " + vocab[(id/5)%int64(len(vocab))]
		}
		rec.Set("text", adm.NewString(text))
		return c.Insert("Default", "Msgs", adm.NewRecord(rec))
	}
	for i := int64(1); i <= 64; i++ {
		if err := insertMsg(i); err != nil {
			t.Fatal(err)
		}
	}

	const (
		writers = 3
		readers = 4
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var nextID atomic.Int64
	nextID.Store(1000)
	errCh := make(chan error, writers+readers+1)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := insertMsg(nextID.Add(1)); err != nil {
					errCh <- fmt.Errorf("insert: %w", err)
					return
				}
			}
		}()
	}
	query := `for $m in dataset Msgs
		where similarity-jaccard(word-tokens($m.text), word-tokens('great product fantastic')) >= 0.4
		return $m.id`
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := NewSession() // sessions are single-goroutine: one each
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Execute(context.Background(), sess, query); err != nil {
					errCh <- fmt.Errorf("query: %w", err)
					return
				}
			}
		}()
	}

	// One DDL mid-flight: the keyword index appears while queries and
	// inserts are in progress.
	time.Sleep(50 * time.Millisecond)
	ddl := NewSession()
	if _, err := c.Execute(context.Background(), ddl,
		`create index mtext on Msgs(text) type keyword;`); err != nil {
		t.Fatalf("mid-flight create index: %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Quiesce check: index-backed results must equal scan results.
	ixSess := NewSession()
	ixRes := exec(t, c, ixSess, query)
	scanOpts := optimizer.DefaultOptions()
	scanOpts.UseIndexes = false
	scanSess := NewSession()
	scanSess.Opts = &scanOpts
	scanRes := exec(t, c, scanSess, query)
	ix, scan := rowInts(t, ixRes.Rows), rowInts(t, scanRes.Rows)
	if len(ix) != len(scan) {
		t.Fatalf("index path found %d rows, scan path %d", len(ix), len(scan))
	}
	for i := range ix {
		if ix[i] != scan[i] {
			t.Fatalf("index path %v != scan path %v", ix, scan)
		}
	}
	if len(ix) == 0 {
		t.Fatal("stress query matched nothing; workload is vacuous")
	}
	if !ixRes.Stats.PlanCacheHit && ixRes.Stats.IndexSearches == 0 {
		t.Fatalf("post-DDL query did not use the index: %+v", ixRes.Stats)
	}

	qs := c.qm.Stats()
	if qs.Active != 0 {
		t.Fatalf("queries still marked active after quiesce: %+v", qs)
	}
	if qs.Admitted != qs.Completed+qs.Failed {
		t.Fatalf("admission accounting broken: %+v", qs)
	}
	if qs.Failed != 0 {
		t.Fatalf("queries failed during the storm: %+v", qs)
	}
}

// TestLookupSnapshotReleasedOnEveryExit kills index-plan queries while
// their index searches hold posting cursors and their primary-lookup
// operators hold a tree snapshot — once by a runtime error raised in the
// verification select above the lookup, then by client deadlines of a
// few lengths — and then forces a full merge of every primary and every
// inverted-index partition. A snapshot or cursor the dying operator did
// not close would pin the merged-away components: their files would
// stay on disk although the tree no longer lists them.
func TestLookupSnapshotReleasedOnEveryExit(t *testing.T) {
	c, err := New(Config{NumNodes: 1, PartitionsPerNode: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess := NewSession()
	exec(t, c, sess, `create dataset Leak primary key id;`)
	insert := func(from, to int) {
		for i := from; i < to; i++ {
			rec := adm.EmptyRecord(2)
			rec.Set("id", adm.NewInt(int64(i)))
			rec.Set("summary", adm.NewString(fmt.Sprintf("common words here w%d", i%7)))
			if err := c.Insert("Default", "Leak", adm.NewRecord(rec)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	// Two flushes, one before the index build and one after: every primary
	// and every index partition has two components for Merge to retire.
	insert(0, 1500)
	exec(t, c, sess, `create index lkx on Leak(summary) type keyword;`)
	insert(1500, 3000)

	// Every record is a candidate; id 1700 divides by zero in the select
	// above the lookup, which fails the job while lookups are streaming.
	const sel = `for $r in dataset Leak
		where similarity-jaccard(word-tokens($r.summary), word-tokens('common words here')) >= 0.5`
	res, qerr := c.Execute(context.Background(), NewSession(), sel+` and 100 / ($r.id - 1700) > -1000 return $r.id`)
	if qerr == nil {
		t.Fatalf("division by zero did not fail the query (%d rows)", len(res.Rows))
	}
	for _, delay := range []time.Duration{200 * time.Microsecond, time.Millisecond, 4 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), delay)
		c.Execute(ctx, NewSession(), sel+` return $r.id`) // may also finish in time
		cancel()
	}
	ok := exec(t, c, NewSession(), sel+` return $r.id`)
	if ok.Stats.IndexSearches == 0 || len(ok.Rows) != 3000 {
		t.Fatalf("selection ran %d index searches and returned %d rows, want the index plan and 3000",
			ok.Stats.IndexSearches, len(ok.Rows))
	}

	for part := 0; part < c.Config().Partitions(); part++ {
		node := c.nodeOfPartition(part)
		primary, err := node.primary("Default", "Leak", part)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := node.invIndex("Default", "Leak", "lkx", part)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range []struct {
			name, dir string
			tree      *storage.LSMTree
		}{
			{"primary", "", primary},
			{"index", "idx_lkx", inv.Tree()},
		} {
			if before := tr.tree.Stats().DiskComponents; before < 2 {
				t.Fatalf("partition %d %s: %d components before the merge, want at least 2", part, tr.name, before)
			}
			if err := tr.tree.Merge(); err != nil {
				t.Fatal(err)
			}
			st := tr.tree.Stats()
			files, err := filepath.Glob(filepath.Join(c.Config().DataDir, "*", "Default", "Leak", tr.dir, fmt.Sprintf("p%d", part), "*.cmp"))
			if err != nil {
				t.Fatal(err)
			}
			if st.DiskComponents != 1 || len(files) != st.DiskComponents {
				t.Errorf("partition %d %s after merge: Stats() has %d disk components, the directory has %v",
					part, tr.name, st.DiskComponents, files)
			}
		}
	}
}
