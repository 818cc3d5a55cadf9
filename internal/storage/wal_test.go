package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func openTestWAL(t *testing.T, dir string, opts WALOptions) *WAL {
	t.Helper()
	w, err := OpenWAL(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// commitOne appends one record and waits for it to be durable, so the
// syncer drains exactly one record per wake — segment rotation points
// become deterministic functions of record sizes.
func commitOne(t *testing.T, w *WAL, tree string, key, val string) uint64 {
	t.Helper()
	lsn, err := w.appendOpsBatch([][]walOp{{{tree: tree, key: []byte(key), val: []byte(val)}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	return lsn
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	var lsns []uint64
	for i := 0; i < 5; i++ {
		lsns = append(lsns, commitOne(t, w, "p", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)))
	}
	// A tombstone and a multi-tree group in one record.
	glsn, err := w.appendOpsBatch([][]walOp{{
		{tree: "p", key: []byte("k1"), tombstone: true},
		{tree: "i:kw", key: []byte("tok#1")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(glsn); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openTestWAL(t, dir, WALOptions{})
	defer w2.Close()
	pOps := w2.Attach("p")
	if len(pOps) != 6 {
		t.Fatalf("replayed %d ops for p, want 6", len(pOps))
	}
	for i := 0; i < 5; i++ {
		op := pOps[i]
		if op.LSN != lsns[i] || string(op.Key) != fmt.Sprintf("k%d", i) || string(op.Val) != fmt.Sprintf("v%d", i) || op.Tombstone {
			t.Errorf("op %d: got %+v", i, op)
		}
	}
	if last := pOps[5]; !last.Tombstone || string(last.Key) != "k1" || last.LSN != glsn {
		t.Errorf("tombstone op: got %+v", last)
	}
	iOps := w2.Attach("i:kw")
	if len(iOps) != 1 || string(iOps[0].Key) != "tok#1" || iOps[0].LSN != glsn {
		t.Errorf("index replay: got %+v", iOps)
	}
	// Attach claims: a second attach sees nothing.
	if again := w2.Attach("p"); len(again) != 0 {
		t.Errorf("second attach returned %d ops", len(again))
	}
}

func TestWALRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{SegmentBytes: 128})
	last := uint64(0)
	for i := 0; i < 30; i++ {
		last = commitOne(t, w, "p", fmt.Sprintf("key-%02d", i), "some value payload")
	}
	if err := w.Barrier(); err != nil {
		t.Fatal(err)
	}
	if n := w.SegmentCount(); n < 3 {
		t.Fatalf("SegmentCount = %d after 30 oversized appends, want >= 3", n)
	}
	// Checkpointing everything retires all sealed segments. Writing the
	// checkpoint record itself may seal one more segment, so up to two
	// files (one sealed + the active tail) can remain.
	w.Checkpoint("p", last)
	if err := w.Barrier(); err != nil {
		t.Fatal(err)
	}
	if n := w.SegmentCount(); n > 2 {
		t.Fatalf("SegmentCount = %d after full checkpoint, want <= 2", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Nothing replays: the checkpoint covered every op.
	w2 := openTestWAL(t, dir, WALOptions{})
	defer w2.Close()
	if ops := w2.Attach("p"); len(ops) != 0 {
		t.Errorf("replay after full checkpoint: %d ops", len(ops))
	}
}

func TestWALCheckpointSkipsPrefixOnly(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	var lsns []uint64
	for i := 0; i < 6; i++ {
		lsns = append(lsns, commitOne(t, w, "p", fmt.Sprintf("k%d", i), "v"))
	}
	w.Checkpoint("p", lsns[2]) // k0..k2 flushed
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openTestWAL(t, dir, WALOptions{})
	defer w2.Close()
	ops := w2.Attach("p")
	if len(ops) != 3 {
		t.Fatalf("replayed %d ops, want 3 (k3..k5)", len(ops))
	}
	for i, op := range ops {
		if want := fmt.Sprintf("k%d", i+3); string(op.Key) != want {
			t.Errorf("replay op %d: key %q, want %q", i, op.Key, want)
		}
	}
}

func TestWALTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	for i := 0; i < 4; i++ {
		commitOne(t, w, "p", fmt.Sprintf("k%d", i), "v")
	}
	if err := w.Barrier(); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	segName := w.curName
	w.mu.Unlock()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Append a torn record: a frame header promising more bytes than
	// follow, as a crashed mid-write append would leave.
	path := filepath.Join(dir, segName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	garbage := append([]byte(nil), full...)
	garbage = append(garbage, 0xFF, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02)
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := openTestWAL(t, dir, WALOptions{})
	if ops := w2.Attach("p"); len(ops) != 4 {
		t.Fatalf("replayed %d ops, want the 4 intact ones", len(ops))
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	// The tail was physically truncated: the file is byte-identical to
	// the pre-corruption log, and a second recovery sees the same state.
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repaired, full) {
		t.Errorf("torn tail not truncated: %d bytes, want %d", len(repaired), len(full))
	}
	w3 := openTestWAL(t, dir, WALOptions{})
	defer w3.Close()
	if ops := w3.Attach("p"); len(ops) != 4 {
		t.Errorf("second recovery replayed %d ops, want 4", len(ops))
	}
}

func TestWALTornTailMidLogRemovesLaterSegments(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{SegmentBytes: 128})
	for i := 0; i < 12; i++ {
		commitOne(t, w, "p", fmt.Sprintf("key-%02d", i), "padding padding padding")
	}
	if err := w.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range names {
		if strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, have %d", len(segs))
	}
	// Corrupt the middle of segment 1 (CRC break): everything from that
	// record on — including all later segments — is unreachable log.
	victim := filepath.Join(dir, segs[1])
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := openTestWAL(t, dir, WALOptions{SegmentBytes: 128})
	ops := w2.Attach("p")
	if len(ops) == 0 || len(ops) >= 12 {
		t.Fatalf("replayed %d ops, want a proper prefix", len(ops))
	}
	// Replay is a prefix: keys 0..n-1 in order.
	for i, op := range ops {
		if want := fmt.Sprintf("key-%02d", i); string(op.Key) != want {
			t.Fatalf("replay op %d: key %q, want %q (not a prefix)", i, op.Key, want)
		}
	}
	// Appending after repair works and survives another cycle.
	lsn := commitOne(t, w2, "p", "after-repair", "v")
	if err := w2.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3 := openTestWAL(t, dir, WALOptions{SegmentBytes: 128})
	defer w3.Close()
	ops3 := w3.Attach("p")
	if len(ops3) != len(ops)+1 || string(ops3[len(ops3)-1].Key) != "after-repair" {
		t.Errorf("post-repair replay: %d ops, want %d", len(ops3), len(ops)+1)
	}
}

func TestWALGroupCommitCoalescesFsyncs(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	defer w.Close()
	appends0 := walAppends.Load()
	fsyncs0 := walFsyncs.Load()
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsn, err := w.appendOpsBatch([][]walOp{{{tree: "p", key: []byte(fmt.Sprintf("g%d-%d", g, i))}}})
				if err != nil {
					t.Error(err)
					return
				}
				if err := w.WaitDurable(lsn); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	appends := walAppends.Load() - appends0
	fsyncs := walFsyncs.Load() - fsyncs0
	if appends != writers*each {
		t.Fatalf("appends = %d, want %d", appends, writers*each)
	}
	if fsyncs == 0 || fsyncs > appends {
		t.Errorf("fsyncs = %d for %d appends", fsyncs, appends)
	}
	t.Logf("group commit: %d appends, %d fsyncs", appends, fsyncs)
}

func TestWALIntervalModeSyncsInBackground(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{Mode: WALSyncInterval, SyncInterval: time.Millisecond})
	lsn := commitOne(t, w, "p", "k", "v")
	// WaitDurable does not block in interval mode.
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	// The ticker makes it durable shortly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.mu.Lock()
		d := w.durableLSN
		w.mu.Unlock()
		if d >= lsn {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval sync never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openTestWAL(t, dir, WALOptions{Mode: WALSyncInterval, SyncInterval: time.Millisecond})
	defer w2.Close()
	if ops := w2.Attach("p"); len(ops) != 1 {
		t.Errorf("interval-mode replay: %d ops, want 1", len(ops))
	}
}

func TestWALModeValidation(t *testing.T) {
	for _, ok := range []string{"", "commit", "interval", "off"} {
		if !ValidWALSyncMode(ok) {
			t.Errorf("ValidWALSyncMode(%q) = false", ok)
		}
	}
	for _, bad := range []string{"always", "COMMIT", "on"} {
		if ValidWALSyncMode(bad) {
			t.Errorf("ValidWALSyncMode(%q) = true", bad)
		}
	}
	if _, err := OpenWAL(t.TempDir(), WALOptions{Mode: WALSyncOff}); err == nil {
		t.Error("OpenWAL with mode off should fail")
	}
}

func TestWALCheckpointRecordSurvivesTruncation(t *testing.T) {
	// The checkpoint record lives at an LSN above the boundary it
	// declares, so truncation can never delete the segment holding the
	// newest checkpoint: recovery must not forget the boundary and
	// re-replay flushed ops.
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{SegmentBytes: 96})
	last := uint64(0)
	for i := 0; i < 10; i++ {
		last = commitOne(t, w, "p", fmt.Sprintf("key-%02d", i), "vvvv")
	}
	w.Checkpoint("p", last)
	if err := w.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openTestWAL(t, dir, WALOptions{SegmentBytes: 96})
	defer w2.Close()
	if ops := w2.Attach("p"); len(ops) != 0 {
		t.Errorf("flushed ops re-replayed after truncation: %d", len(ops))
	}
}

func TestWALRecoverLSNFloorEmptySegment(t *testing.T) {
	// Checkpoint truncation deletes fully-covered segments immediately,
	// while the checkpoint record itself is not force-synced — so a
	// crash can leave a single freshly rotated segment with no synced
	// record in it. Recovery must not let the LSN counter regress below
	// that segment's start, or later rotations would mint lower-named
	// segments and the next recovery would replay out of LSN order.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walSegmentName(100)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w := openTestWAL(t, dir, WALOptions{})
	lsn := commitOne(t, w, "p", "k", "v")
	if lsn != 100 {
		t.Fatalf("first LSN after empty-segment recovery = %d, want 100", lsn)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openTestWAL(t, dir, WALOptions{})
	defer w2.Close()
	ops := w2.Attach("p")
	if len(ops) != 1 || ops[0].LSN != 100 {
		t.Fatalf("replay after reopen: %+v, want one op at LSN 100", ops)
	}
}

func TestWALRecoverTornTailDoesNotResurrectRemovedSegments(t *testing.T) {
	// A tear in an early segment makes every later segment unreachable
	// log; recovery removes them and continues appending in the torn
	// segment itself. The tail must be the surviving segment — not a
	// silently recreated copy of a removed one — and the LSN floor is
	// that segment's start.
	dir := t.TempDir()
	// All-garbage segment at start 50: a zero frame header is a tear at
	// offset 0, so its entire contents are discarded.
	if err := os.WriteFile(filepath.Join(dir, walSegmentName(50)), make([]byte, 16), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walSegmentName(100)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w := openTestWAL(t, dir, WALOptions{})
	lsn := commitOne(t, w, "p", "k", "v")
	if lsn != 50 {
		t.Fatalf("first LSN = %d, want 50 (the torn tail's start)", lsn)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, walSegmentName(100))); !os.IsNotExist(err) {
		t.Errorf("removed segment resurrected (stat err = %v)", err)
	}
	w2 := openTestWAL(t, dir, WALOptions{})
	defer w2.Close()
	ops := w2.Attach("p")
	if len(ops) != 1 || ops[0].LSN != 50 {
		t.Fatalf("replay: %+v, want one op at LSN 50", ops)
	}
}

func TestLSMWALRecoversUnflushedWrites(t *testing.T) {
	// End-to-end through the tree API on the real filesystem: writes
	// that never flushed reappear after reopen via WAL replay. The tree
	// is deliberately NOT closed — a clean Close flushes and checkpoints,
	// leaving nothing to replay. Closing only the WAL mimics a crash
	// where the memtable evaporates but the synced log survives.
	dir := t.TempDir()
	wdir := filepath.Join(dir, "w")
	tdir := filepath.Join(dir, "t")
	w := openTestWAL(t, wdir, WALOptions{})
	tree, err := OpenLSM(tdir, LSMOptions{WAL: w, WALTree: "p"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := tree.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Delete([]byte("k03")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// tree is abandoned: its memtable contents exist only in the log.
	w2 := openTestWAL(t, wdir, WALOptions{})
	tree2, err := OpenLSM(tdir, LSMOptions{WAL: w2, WALTree: "p"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		tree2.Close()
		w2.Close()
	}()
	for i := 0; i < 20; i++ {
		v, ok, err := tree2.Get([]byte(fmt.Sprintf("k%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if ok {
				t.Errorf("deleted key k03 resurrected: %q", v)
			}
			continue
		}
		if !ok || string(v) != fmt.Sprintf("v%02d", i) {
			t.Errorf("k%02d: ok=%v v=%q", i, ok, v)
		}
	}
}
