package storage

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

func newConcTree(t *testing.T, budget int64) *LSMTree {
	t.Helper()
	tree, err := OpenLSM(t.TempDir(), LSMOptions{MemBudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tree.Close() })
	return tree
}

func put(t *testing.T, tree *LSMTree, k, v string) {
	t.Helper()
	if err := tree.Put([]byte(k), []byte(v)); err != nil {
		t.Fatal(err)
	}
}

// TestSlowScanDoesNotBlockPut is the regression test for the latent
// lock-hold bug: Scan used to run its callback (operator pipelines,
// i.e. arbitrary user code) under the tree's RLock, starving writers
// for the whole iteration. With snapshot reads a deliberately slow scan
// must not delay a concurrent Put beyond a small bound.
func TestSlowScanDoesNotBlockPut(t *testing.T) {
	tree := newConcTree(t, 1<<30)
	for i := 0; i < 64; i++ {
		put(t, tree, fmt.Sprintf("k%04d", i), "v")
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}

	scanEntered := make(chan struct{})
	scanRelease := make(chan struct{})
	scanDone := make(chan error, 1)
	go func() {
		first := true
		scanDone <- tree.Scan(nil, nil, func(key, value []byte) bool {
			if first {
				first = false
				close(scanEntered)
				<-scanRelease // hold the scan mid-iteration
			}
			return true
		})
	}()

	<-scanEntered
	// The scan is now parked inside its callback. A Put must still
	// complete promptly.
	start := time.Now()
	put(t, tree, "zzz-new", "fresh")
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("Put blocked %v behind a slow scan", d)
	}
	// Flush and merge must also proceed while the scan is parked.
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tree.Merge(); err != nil {
		t.Fatal(err)
	}
	close(scanRelease)
	if err := <-scanDone; err != nil {
		t.Fatalf("scan: %v", err)
	}

	// The scan's snapshot predates the Put; the new key is visible to a
	// fresh read afterwards.
	if _, ok, err := tree.Get([]byte("zzz-new")); err != nil || !ok {
		t.Fatalf("Get(zzz-new) = %v, %v", ok, err)
	}
}

// TestSnapshotSurvivesMerge verifies component-lifecycle discipline: a
// snapshot taken before a merge keeps reading the retired components,
// and their files are deleted only once the snapshot closes.
func TestSnapshotSurvivesMerge(t *testing.T) {
	tree := newConcTree(t, 1<<30)
	for i := 0; i < 100; i++ {
		put(t, tree, fmt.Sprintf("k%04d", i), fmt.Sprintf("v%d", i))
		if i%25 == 24 {
			if err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := tree.Snapshot()
	defer snap.Close()
	if snap.Components() < 2 {
		t.Fatalf("want >=2 components in snapshot, got %d", snap.Components())
	}
	var retired []string
	for _, c := range snap.components {
		retired = append(retired, c.Path())
	}

	if err := tree.Merge(); err != nil {
		t.Fatal(err)
	}
	// Old component files must still exist: the snapshot holds them.
	for _, p := range retired {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("retired component %s vanished under a live snapshot: %v", p, err)
		}
	}
	// The snapshot still reads a complete, consistent view.
	n := 0
	if _, err := snap.ScanProjected(nil, nil, nil, nil, nil, func(key, value []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("snapshot scan saw %d keys, want 100", n)
	}
	snap.Close()
	for _, p := range retired {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("retired component %s not deleted after snapshot close (err=%v)", p, err)
		}
	}
}

// TestScanContextCancel verifies cooperative cancellation: a cancelled
// context stops a scan early with the context's error — also a filtered
// scan of columnar groups whose filter rejects every row, so that the
// callback never runs and only the rows read can count towards the
// check.
func TestScanContextCancel(t *testing.T) {
	tree := newConcTree(t, 1<<30)
	for i := 0; i < 5000; i++ {
		put(t, tree, fmt.Sprintf("k%06d", i), "v")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 0
	_, err := tree.ScanProjectedContext(ctx, nil, nil, nil, nil, func(key, value []byte) bool { n++; return true })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n >= 5000 {
		t.Fatalf("cancelled scan still visited all %d keys", n)
	}

	const rows = 12 * colMaxGroupRows
	col, err := OpenLSM(t.TempDir(), LSMOptions{MemBudgetBytes: 1 << 30, Columnar: true})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	for i := 0; i < rows; i++ {
		if err := col.Put(colTestKey(i), colTestRecord(i)[1:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := col.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	groups := len(snap.components[0].groups)
	snap.Close()
	if groups < 10 {
		t.Fatalf("%d rows made %d groups, want at least 10", rows, groups)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	judged := 0
	filter := &RowFilter{Field: "text", Pass: func([]byte) bool {
		if judged++; judged == rows/3 {
			cancel()
		}
		return false
	}}
	read, err := col.ScanProjectedContext(ctx, nil, nil, []string{"id"}, filter, func(key, value []byte) bool {
		t.Fatalf("a rejected row reached the callback: %q", key)
		return false
	})
	if err != context.Canceled || read >= rows || judged >= rows {
		t.Fatalf("filtered scan cancelled after %d rows: err %v, %d of %d rows read, %d judged", rows/3, err, read, rows, judged)
	}
}

// TestConcurrentReadersWriters hammers the tree with parallel scans,
// gets, puts, flushes, and merges under -race.
func TestConcurrentReadersWriters(t *testing.T) {
	tree := newConcTree(t, 4<<10) // tiny budget: frequent flush/merge
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

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				report(tree.Put([]byte(fmt.Sprintf("w%d-%05d", w, i%500)), []byte(fmt.Sprintf("v%d", i))))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				report(tree.Scan(nil, nil, func(key, value []byte) bool { return true }))
				_, _, err := tree.Get([]byte("w0-00001"))
				report(err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			report(tree.Merge())
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
