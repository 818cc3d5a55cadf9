package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestPutNeverBlocksOnMaintenance is the acceptance test for the
// ingestion-pipeline refactor: a Put issued while a merge is
// artificially held mid-flight must return without waiting for the
// merge (the old write path ran flush + full merge on the writer's
// goroutine under the tree mutex).
func TestPutNeverBlocksOnMaintenance(t *testing.T) {
	tree, err := OpenLSM(t.TempDir(), LSMOptions{MemBudgetBytes: 1 << 30, MaxComponents: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	mergeEntered := make(chan struct{})
	mergeRelease := make(chan struct{})
	tree.testMergeDelay = func() {
		close(mergeEntered)
		<-mergeRelease
	}

	// Build up components past the policy threshold so the background
	// merge kicks in and parks on the hook.
	for c := 0; c < 3; c++ {
		for i := 0; i < 32; i++ {
			if err := tree.Put([]byte(fmt.Sprintf("c%d-%04d", c, i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tree.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-mergeEntered:
	case <-time.After(5 * time.Second):
		t.Fatal("background merge never started")
	}

	// The merge is parked mid-flight. Puts — including ones that rotate
	// the memtable — must complete promptly.
	start := time.Now()
	for i := 0; i < 1000; i++ {
		if err := tree.Put([]byte(fmt.Sprintf("during-%05d", i)), []byte("fresh")); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("Puts blocked %v behind an in-flight merge", d)
	}
	close(mergeRelease)

	if err := tree.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := tree.Get([]byte("during-00042")); err != nil || !ok || string(v) != "fresh" {
		t.Fatalf("Get(during-00042) = %q, %v, %v", v, ok, err)
	}
	if v, ok, err := tree.Get([]byte("c1-0007")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get(c1-0007) = %q, %v, %v", v, ok, err)
	}
}

// TestRotationDurability covers the immutable-memtable stage: writes
// that rotated but were never flushed must survive Close + reopen.
func TestRotationDurability(t *testing.T) {
	dir := t.TempDir()
	// MaxImmutable is high so the gated flusher below piles up
	// rotations without stalling the writer.
	tree, err := OpenLSM(dir, LSMOptions{MemBudgetBytes: 256, MaxImmutable: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the background flusher so rotations pile up in the
	// immutable stage.
	flushRelease := make(chan struct{})
	tree.testFlushDelay = func() { <-flushRelease }

	const n = 200
	for i := 0; i < n; i++ {
		if err := tree.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s := tree.Stats(); s.ImmMemtables == 0 {
		t.Fatal("test setup: expected rotated memtables pending flush")
	}
	close(flushRelease)
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%04d", i)
		v, ok, err := re.Get([]byte(k))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("after restart Get(%s) = %q, %v, %v", k, v, ok, err)
		}
	}
}

// TestWriteStallBackpressure verifies that writers stall — rather than
// grow memory without bound — once rotated memtables pile past
// MaxImmutable, and resume when the flusher catches up.
func TestWriteStallBackpressure(t *testing.T) {
	tree, err := OpenLSM(t.TempDir(), LSMOptions{MemBudgetBytes: 256, MaxImmutable: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	flushGate := make(chan struct{})
	tree.testFlushDelay = func() { <-flushGate }

	before := stallCount.Load()
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 500 && err == nil; i++ {
			err = tree.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("0123456789012345678901234567890123456789"))
		}
		done <- err
	}()

	select {
	case err := <-done:
		t.Fatalf("writer finished without stalling (err=%v); backpressure never engaged", err)
	case <-time.After(200 * time.Millisecond):
		// Writer is stalled behind the gated flusher, as intended.
	}
	close(flushGate) // let maintenance drain; the writer must resume
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := stallCount.Load(); got <= before {
		t.Errorf("stall counter did not increase (before=%d after=%d)", before, got)
	}
	if err := tree.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tree.Get([]byte("k00499")); !ok || err != nil {
		t.Fatalf("post-stall Get = %v, %v", ok, err)
	}
}

// TestBackgroundMaintenanceStress mixes writers, snapshot scans, point
// reads, forced flushes, and background merges under -race, and then
// checks the surviving state against a model.
func TestBackgroundMaintenanceStress(t *testing.T) {
	sched := NewScheduler(2)
	defer sched.Close()
	tree, err := OpenLSM(t.TempDir(), LSMOptions{
		MemBudgetBytes: 2 << 10,
		MaxComponents:  3,
		Maintenance:    sched,
		MaxImmutable:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

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

	var mu sync.Mutex
	model := map[string]string{} // final write per key, by writer section
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
				k := fmt.Sprintf("w%d-%03d", w, r.Intn(200))
				v := fmt.Sprintf("v%d", i)
				if err := tree.Put([]byte(k), []byte(v)); err != nil {
					report(err)
					return
				}
				mu.Lock()
				model[k] = v
				mu.Unlock()
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// A scan must never observe a torn view: keys strictly
				// ascending, each at most once.
				last := ""
				report(tree.Scan(nil, nil, func(k, v []byte) bool {
					if string(k) <= last && last != "" {
						report(fmt.Errorf("scan order violated: %q after %q", k, last))
						return false
					}
					last = string(k)
					return true
				}))
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
			report(tree.Flush())
			time.Sleep(2 * time.Millisecond)
		}
	}()

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if err := tree.Quiesce(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	checked := 0
	for k, want := range model {
		v, ok, err := tree.Get([]byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("model mismatch at %s: got %q ok=%v err=%v want %q", k, v, ok, err, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("stress produced no writes")
	}
}

// TestSchedulerSharedAcrossTrees runs many trees on one small pool —
// the per-node topology the cluster layer uses — and quiesces them all.
func TestSchedulerSharedAcrossTrees(t *testing.T) {
	sched := NewScheduler(2)
	defer sched.Close()
	var trees []*LSMTree
	for i := 0; i < 6; i++ {
		tree, err := OpenLSM(t.TempDir(), LSMOptions{MemBudgetBytes: 512, Maintenance: sched})
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	for i, tree := range trees {
		for j := 0; j < 100; j++ {
			if err := tree.Put([]byte(fmt.Sprintf("t%d-%04d", i, j)), []byte("payload-payload")); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, tree := range trees {
		if err := tree.Quiesce(); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := tree.Get([]byte(fmt.Sprintf("t%d-0099", i))); !ok || err != nil {
			t.Fatalf("tree %d lost data: ok=%v err=%v", i, ok, err)
		}
		if err := tree.Close(); err != nil {
			t.Fatal(err)
		}
	}
	st := sched.Stats()
	if st.Pending != 0 || st.Running != 0 {
		t.Errorf("scheduler not drained after closes: %+v", st)
	}
}

// TestFlushedMemtableIsCollectable: once its component is installed a
// flushed memtable is garbage. The flush queue used to be popped by
// reslicing alone, which left the memtable reachable from the queue's
// backing array until the tree's next rotation — on a loaded, read-only
// tree, for ever.
func TestFlushedMemtableIsCollectable(t *testing.T) {
	tree := newTestLSM(t, LSMOptions{MemBudgetBytes: 1 << 30})
	for i := 0; i < 1000; i++ {
		if err := tree.Put([]byte(fmt.Sprintf("k%05d", i)), make([]byte, 256)); err != nil {
			t.Fatal(err)
		}
	}
	collected := make(chan struct{})
	func() { // its own frame, so no reference stays on this stack
		tree.mu.RLock()
		defer tree.mu.RUnlock()
		runtime.SetFinalizer(tree.mem, func(*memtable) { close(collected) })
	}()
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("the flushed memtable is still reachable after Flush and 50 collections")
}
