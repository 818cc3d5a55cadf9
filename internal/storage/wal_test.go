package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
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

// walSegmentFiles lists dir's segment files, oldest first, with sizes.
func walSegmentFiles(t *testing.T, dir string) (names []string, bytes int64) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if _, ok := parseWALSegmentName(e.Name()); !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, e.Name())
		bytes += info.Size()
	}
	return names, bytes
}

// walFileRecords decodes every record of one segment file.
func walFileRecords(t *testing.T, path string) []walRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []walRecord
	if n := scanWALRecords(data, func(r walRecord) { recs = append(recs, r) }); n != int64(len(data)) {
		t.Fatalf("%s: %d of %d bytes decode", path, n, len(data))
	}
	return recs
}

func TestWALRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	const segBytes = 128
	w := openTestWAL(t, dir, WALOptions{SegmentBytes: segBytes})
	// The size trigger, replayed from the frame sizes: a segment that
	// holds something is sealed when the next write would pass segBytes,
	// and its successor is named by the write's first LSN.
	var lsns []uint64
	want := []string{walSegmentName(1)}
	size := int64(0)
	for i := 0; i < 30; i++ {
		key, val := fmt.Sprintf("key-%02d", i), "some value payload"
		lsn := commitOne(t, w, "p", key, val)
		lsns = append(lsns, lsn)
		frame := int64(len(appendWALFrame(nil, encodeCommit(lsn, []walOp{{tree: "p", key: []byte(key), val: []byte(val)}}))))
		if size > 0 && size+frame > segBytes {
			want = append(want, walSegmentName(lsn))
			size = 0
		}
		size += frame
	}
	if err := w.Barrier(); err != nil {
		t.Fatal(err)
	}
	if got, _ := walSegmentFiles(t, dir); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("segments after 30 oversized appends:\n got %v\nwant %v", got, want)
	}
	if n := w.SegmentCount(); n != len(want) || n < 3 {
		t.Fatalf("SegmentCount = %d, want %d (>= 3)", n, len(want))
	}
	// A checkpoint that leaves a commit to replay retires the sealed
	// segments wholly below it and keeps the one holding that commit (its
	// own record may seal that one for size and start another).
	w.Checkpoint("p", lsns[len(lsns)-2])
	if err := w.Barrier(); err != nil {
		t.Fatal(err)
	}
	if got, _ := walSegmentFiles(t, dir); got[0] != want[len(want)-1] || len(got) > 2 {
		t.Fatalf("segments after a partial checkpoint: %v, want %s and at most one after it", got, want[len(want)-1])
	}
	// Checkpointing everything covers the active segment too: it is
	// rotated out and deleted, and the checkpoint record alone remains.
	w.Checkpoint("p", lsns[len(lsns)-1])
	if n := w.SegmentCount(); n != 1 {
		t.Fatalf("SegmentCount = %d after full checkpoint, want 1", n)
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

// flushTree logs what a tree's flush logs around its component: a
// force-synced flush-begin through the given LSN, then the checkpoint.
func flushTree(t *testing.T, w *WAL, tree string, seq, through uint64) {
	t.Helper()
	fb, err := w.FlushBegin(tree, seq, through)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SyncThrough(fb); err != nil {
		t.Fatal(err)
	}
	w.Checkpoint(tree, through)
}

func TestWALCoveringCheckpointRotatesActiveSegment(t *testing.T) {
	// Two trees share the log; neither flush alone covers it. Once both
	// are checkpointed, the active segment — far under SegmentBytes — is
	// rotated out and deleted before Checkpoint returns: one segment is
	// left, named above every commit, holding only checkpoint records.
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	var lastP, lastQ uint64
	for i := 0; i < 20; i++ {
		lastP = commitOne(t, w, "p", fmt.Sprintf("k%02d", i), "v")
		lastQ = commitOne(t, w, "i:kw", fmt.Sprintf("tok%02d", i), "")
	}
	flushTree(t, w, "p", 1, lastP)
	if names, _ := walSegmentFiles(t, dir); len(names) != 1 || names[0] != walSegmentName(1) {
		t.Fatalf("after one tree's flush: %v, want the first segment kept", names)
	}
	flushTree(t, w, "i:kw", 1, lastQ)
	names, bytes := walSegmentFiles(t, dir)
	if w.SegmentCount() != 1 || len(names) != 1 {
		t.Fatalf("after both flushes: SegmentCount %d, files %v, want one", w.SegmentCount(), names)
	}
	if start, _ := parseWALSegmentName(names[0]); start <= lastQ {
		t.Fatalf("live segment %s starts at or below the last commit %d", names[0], lastQ)
	}
	for _, r := range walFileRecords(t, filepath.Join(dir, names[0])) {
		if r.typ != walRecCheckpoint {
			t.Errorf("live segment holds a record of type %d at LSN %d", r.typ, r.lsn)
		}
	}
	if got := w.LiveBytes(); got != bytes {
		t.Errorf("LiveBytes = %d, segment files hold %d", got, bytes)
	}
	// The LSN floor holds across a reopen, and nothing replays.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openTestWAL(t, dir, WALOptions{})
	defer w2.Close()
	if ops := append(w2.Attach("p"), w2.Attach("i:kw")...); len(ops) != 0 {
		t.Errorf("%d ops replayed from a covered log", len(ops))
	}
	if lsn := commitOne(t, w2, "p", "after", "v"); lsn <= lastQ {
		t.Errorf("first LSN after reopen = %d, at or below the pre-rotation commit %d", lsn, lastQ)
	}
}

// TestWALCoveredSegmentReappearingRecoversAlike: a crash between a
// coverage rotation and the directory sync that publishes the covered
// segment's deletion can bring that segment back beside its successor.
// A hard link keeps its bytes; putting it back under its name must
// recover to the same replay set and the same next LSN as without it.
func TestWALCoveredSegmentReappearingRecoversAlike(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	var last uint64
	for i := 0; i < 5; i++ {
		last = commitOne(t, w, "p", fmt.Sprintf("k%d", i), "v")
	}
	covered := walSegmentName(1)
	keep := filepath.Join(t.TempDir(), covered)
	if err := os.Link(filepath.Join(dir, covered), keep); err != nil {
		t.Fatal(err)
	}
	flushTree(t, w, "p", 1, last)
	after := commitOne(t, w, "p", "after", "v")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recoverFrom := func(dir string) (lsns []uint64, next uint64) {
		w := openTestWAL(t, dir, WALOptions{})
		defer w.Close()
		for _, op := range w.Attach("p") {
			lsns = append(lsns, op.LSN)
		}
		return lsns, commitOne(t, w, "p", "next", "v")
	}
	back := t.TempDir()
	copyFile := func(src, dst string) {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := walSegmentFiles(t, dir)
	if len(names) != 1 || names[0] == covered {
		t.Fatalf("segments after the covering flush: %v", names)
	}
	copyFile(filepath.Join(dir, names[0]), filepath.Join(back, names[0]))
	copyFile(keep, filepath.Join(back, covered))
	goneOps, goneNext := recoverFrom(dir)
	backOps, backNext := recoverFrom(back)
	if fmt.Sprint(goneOps) != fmt.Sprint([]uint64{after}) || fmt.Sprint(backOps) != fmt.Sprint(goneOps) {
		t.Fatalf("replay with the covered segment back %v, without %v, want [%d]", backOps, goneOps, after)
	}
	if backNext != goneNext {
		t.Fatalf("next LSN with the covered segment back %d, without %d", backNext, goneNext)
	}
}

// TestWALLiveBytesProperty drives two trees sharing one log through
// random commits and flushes — some of a tree's whole backlog, some of
// an older generation only — with a small SegmentBytes so both rotation
// triggers fire. After every step the log's own byte accounting matches
// its files, the live bytes never exceed the records from the oldest
// one some tree still needs onward plus one segment, and a log whose
// every commit is checkpointed is one segment of checkpoint records. At
// the end recovery replays exactly the unflushed commits.
func TestWALLiveBytesProperty(t *testing.T) {
	const segBytes = 256
	trees := []string{"p", "i:kw"}
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			w := openTestWAL(t, dir, WALOptions{SegmentBytes: segBytes})
			type rec struct {
				lsn   uint64
				bytes int64
			}
			var log []rec // every record appended, in LSN order
			commits := map[string][]uint64{}
			ckpt := map[string]uint64{}
			seq := uint64(0)
			maxFrame := int64(0)
			note := func(lsn uint64, payload []byte) {
				n := int64(len(appendWALFrame(nil, payload)))
				log = append(log, rec{lsn, n})
				maxFrame = max(maxFrame, n)
			}
			for step := 0; step < 60; step++ {
				tree := trees[rng.Intn(len(trees))]
				backlog := []uint64{}
				for _, l := range commits[tree] {
					if l > ckpt[tree] {
						backlog = append(backlog, l)
					}
				}
				if len(backlog) == 0 || rng.Intn(3) > 0 {
					key, val := fmt.Sprintf("k%d", step), strings.Repeat("v", rng.Intn(40))
					lsn := commitOne(t, w, tree, key, val)
					note(lsn, encodeCommit(lsn, []walOp{{tree: tree, key: []byte(key), val: []byte(val)}}))
					commits[tree] = append(commits[tree], lsn)
				} else {
					through := backlog[len(backlog)-1]
					if rng.Intn(2) == 0 {
						through = backlog[rng.Intn(len(backlog))]
					}
					seq++
					fb, err := w.FlushBegin(tree, seq, through)
					if err != nil {
						t.Fatal(err)
					}
					note(fb, encodeFlushBegin(fb, seq, through, tree))
					if err := w.SyncThrough(fb); err != nil {
						t.Fatal(err)
					}
					w.Checkpoint(tree, through)
					note(fb+1, encodeCheckpoint(fb+1, through, tree))
					ckpt[tree] = through
				}
				if err := w.Barrier(); err != nil {
					t.Fatal(err)
				}

				names, files := walSegmentFiles(t, dir)
				live := w.LiveBytes()
				if live != files || w.SegmentCount() != len(names) {
					t.Fatalf("step %d: LiveBytes %d, SegmentCount %d; files %v hold %d", step, live, w.SegmentCount(), names, files)
				}
				// The oldest LSN some tree still needs: past its checkpoint.
				need := uint64(math.MaxUint64)
				for _, tr := range trees {
					if c := commits[tr]; len(c) > 0 && c[len(c)-1] > ckpt[tr] {
						need = min(need, ckpt[tr]+1)
					}
				}
				needed := int64(0)
				for _, r := range log {
					if r.lsn >= need {
						needed += r.bytes
					}
				}
				if live > needed+segBytes+maxFrame {
					t.Fatalf("step %d: %d live bytes, %d needed from LSN %d on, plus one segment", step, live, needed, need)
				}
				if need == math.MaxUint64 && len(log) > 0 {
					if len(names) != 1 {
						t.Fatalf("step %d: covered log has segments %v", step, names)
					}
					for _, r := range walFileRecords(t, filepath.Join(dir, names[0])) {
						if r.typ != walRecCheckpoint {
							t.Fatalf("step %d: covered log holds a record of type %d", step, r.typ)
						}
					}
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2 := openTestWAL(t, dir, WALOptions{SegmentBytes: segBytes})
			defer w2.Close()
			for _, tr := range trees {
				var want []uint64
				for _, l := range commits[tr] {
					if l > ckpt[tr] {
						want = append(want, l)
					}
				}
				var got []uint64
				for _, op := range w2.Attach(tr) {
					got = append(got, op.LSN)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("tree %s replays LSNs %v, want %v", tr, got, want)
				}
			}
		})
	}
}

// TestWALCoverageRotationUnderConcurrentCommits: writers commit groups
// to two trees sharing a log while a flusher flushes both, so covering
// checkpoints (which wait for the syncer while the flushing tree is
// locked) race commits that arrive between the coverage decision and
// the rotation. Every acknowledged group reads back after a reopen, and
// a final flush of both trees leaves one segment.
func TestWALCoverageRotationUnderConcurrentCommits(t *testing.T) {
	dir := t.TempDir()
	open := func() (*WAL, *LSMTree, *LSMTree) {
		w := openTestWAL(t, filepath.Join(dir, "w"), WALOptions{})
		p, err := OpenLSM(filepath.Join(dir, "p"), LSMOptions{WAL: w, WALTree: "p", MemBudgetBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		q, err := OpenLSM(filepath.Join(dir, "q"), LSMOptions{WAL: w, WALTree: "i:kw", MemBudgetBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		return w, p, q
	}
	w, p, q := open()
	const writers, each = 3, 150
	done := make(chan struct{})
	var flushErr error
	var fwg sync.WaitGroup
	fwg.Add(1)
	go func() {
		defer fwg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, tr := range []*LSMTree{p, q} {
				if err := tr.Flush(); err != nil && flushErr == nil {
					flushErr = err
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := []byte(fmt.Sprintf("g%d-%03d", g, i))
				lsns, err := CommitGroups(w, [][]GroupWrite{{{Tree: p, Key: key, Val: key}, {Tree: q, Key: key}}})
				if err == nil {
					err = w.WaitDurable(lsns[0])
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	fwg.Wait()
	if flushErr != nil {
		t.Fatal(flushErr)
	}
	for _, tr := range []*LSMTree{p, q} {
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if n := w.SegmentCount(); n != 1 {
		t.Errorf("SegmentCount = %d after flushing both trees, want 1", n)
	}
	p.Close()
	q.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, p, q = open()
	defer func() {
		p.Close()
		q.Close()
		w.Close()
	}()
	for g := 0; g < writers; g++ {
		for i := 0; i < each; i++ {
			key := []byte(fmt.Sprintf("g%d-%03d", g, i))
			for _, tr := range []*LSMTree{p, q} {
				if _, ok, err := tr.Get(key); err != nil || !ok {
					t.Fatalf("%s in %s after reopen: ok=%v err=%v", key, tr.dir, ok, err)
				}
			}
		}
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
