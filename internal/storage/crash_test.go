// Crash-recovery harness: a fixed single-threaded workload runs over
// the fault-injecting filesystem, every mutating filesystem operation
// it performs becomes a crash point, and each crash point is replayed
// under every applicable failure variant. After each simulated crash
// the database is reopened and must contain exactly a prefix of the
// submitted records — at least every acknowledged one, never a gap,
// and never a primary row without its index postings or vice versa.
package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/obs"
	"simdb/internal/storage"
	"simdb/internal/storage/errfs"
)

const crashRecords = 18

func crashKey(i int) string { return fmt.Sprintf("k%03d", i) }
func crashVal(i int) string { return fmt.Sprintf("v%03d", i) }

// crashValBytes is the stored value for row i. The columnar variant
// stores ADM-encoded records (entry payloads the columnar writer will
// shred into column blocks) so the v2 flush and merge paths are the
// ones actually exercised; the row variant keeps the original opaque
// strings.
func crashValBytes(i int, columnar bool) []byte {
	if !columnar {
		return []byte(crashVal(i))
	}
	rec := adm.EmptyRecord(2)
	rec.Set("id", adm.NewInt(int64(i)))
	rec.Set("text", adm.NewString(crashVal(i)))
	return adm.Append(nil, adm.NewRecord(rec))
}

// crashToks are the two secondary-index postings committed atomically
// with row i, as entry keys on the "i:kw" tree.
func crashToks(i int) [2]string {
	return [2]string{fmt.Sprintf("t%03d-a", i), fmt.Sprintf("t%03d-b", i)}
}

type crashEnv struct {
	wal      *storage.WAL
	prim     *storage.LSMTree
	kw       *storage.LSMTree
	columnar bool
}

// openCrashEnv opens the per-partition WAL and the two trees sharing
// it (primary and one secondary index), exactly as a node does. The
// tiny segment size forces rotations during the workload; the large
// memtable budget keeps flushes under explicit test control. When
// columnar is set the primary flushes version-2 components while the
// index tree stays row-format, mirroring the node configuration.
func openCrashEnv(fs *errfs.FS, columnar bool) (*crashEnv, error) {
	w, err := storage.OpenWAL("wal", storage.WALOptions{SegmentBytes: 256, FS: fs})
	if err != nil {
		return nil, err
	}
	prim, err := storage.OpenLSM("prim", storage.LSMOptions{
		FS: fs, WAL: w, WALTree: "p", MemBudgetBytes: 1 << 20, Columnar: columnar,
	})
	if err != nil {
		w.Close()
		return nil, err
	}
	kw, err := storage.OpenLSM("kw", storage.LSMOptions{
		FS: fs, WAL: w, WALTree: "i:kw", MemBudgetBytes: 1 << 20,
	})
	if err != nil {
		prim.Close()
		w.Close()
		return nil, err
	}
	return &crashEnv{wal: w, prim: prim, kw: kw, columnar: columnar}, nil
}

// close tears down in dependency order: trees first (their final flush
// checkpoints through the still-open log), then the WAL. Idempotent.
func (e *crashEnv) close() error {
	err := e.kw.Close()
	if perr := e.prim.Close(); err == nil {
		err = perr
	}
	if werr := e.wal.Close(); err == nil {
		err = werr
	}
	return err
}

// runCrashScript drives the deterministic workload and returns how
// many records were acknowledged (commit logged AND fsynced) before
// the injected fault stopped progress. It aborts at the first error,
// like an application that gives up once the engine reports a failure.
//
// Determinism: the script is single-threaded, every put in commit mode
// is a lock-step WAL write+fsync pair (WaitDurable returns only after
// the syncer drained exactly that record), and wal.Barrier() after
// each phase quiesces the asynchronous checkpoint-record writes the
// flush path enqueues — so the Nth filesystem operation is the same
// operation in every run.
func runCrashScript(fs *errfs.FS, columnar bool) (acked int) {
	fs.SetPhase("open")
	env, err := openCrashEnv(fs, columnar)
	if err != nil {
		return 0
	}
	defer env.close()

	barrier := func() bool { return env.wal.Barrier() == nil }
	put := func(i int) bool {
		toks := crashToks(i)
		lsns, err := storage.CommitGroups(env.wal, [][]storage.GroupWrite{{
			{Tree: env.prim, Key: []byte(crashKey(i)), Val: crashValBytes(i, columnar)},
			{Tree: env.kw, Key: []byte(toks[0])},
			{Tree: env.kw, Key: []byte(toks[1])},
		}})
		if err != nil {
			return false
		}
		if env.wal.WaitDurable(lsns[0]) != nil {
			return false
		}
		acked++
		return true
	}

	fs.SetPhase("put")
	for i := 0; i < 6; i++ {
		if !put(i) {
			return
		}
	}
	if !barrier() {
		return
	}

	fs.SetPhase("flush")
	if env.prim.Flush() != nil || !barrier() {
		return
	}
	if env.kw.Flush() != nil || !barrier() {
		return
	}

	fs.SetPhase("put2")
	for i := 6; i < 12; i++ {
		if !put(i) {
			return
		}
	}
	if !barrier() {
		return
	}

	fs.SetPhase("merge")
	if env.prim.Flush() != nil || !barrier() {
		return
	}
	if env.prim.Merge() != nil || !barrier() {
		return
	}
	if env.kw.Flush() != nil || !barrier() {
		return
	}
	if env.kw.Merge() != nil || !barrier() {
		return
	}

	fs.SetPhase("put3")
	for i := 12; i < crashRecords; i++ {
		if !put(i) {
			return
		}
	}
	if !barrier() {
		return
	}

	fs.SetPhase("close")
	env.close()
	return
}

// crashPrefix asserts the recovered database holds exactly a prefix of
// the submitted records — values intact, postings present iff their
// row is, no acknowledged record missing — and returns its length.
func crashPrefix(t *testing.T, env *crashEnv, acked int, label string) int {
	t.Helper()
	k := 0
	for i := 0; i < crashRecords; i++ {
		v, ok, err := env.prim.Get([]byte(crashKey(i)))
		if err != nil {
			t.Fatalf("%s: get row %d: %v", label, i, err)
		}
		if ok {
			if i != k {
				t.Fatalf("%s: row %d present but row %d missing — recovered set is not a prefix", label, i, k)
			}
			if want := crashValBytes(i, env.columnar); !bytes.Equal(v, want) {
				t.Fatalf("%s: row %d = %q, want %q", label, i, v, want)
			}
			k++
		}
		for _, tok := range crashToks(i) {
			_, pok, err := env.kw.Get([]byte(tok))
			if err != nil {
				t.Fatalf("%s: get posting %q: %v", label, tok, err)
			}
			if pok != ok {
				t.Fatalf("%s: posting %q present=%v but row %d present=%v — atomic group torn apart",
					label, tok, pok, i, ok)
			}
		}
	}
	if k < acked {
		t.Fatalf("%s: lost acknowledged writes: recovered %d rows < %d acked", label, k, acked)
	}
	return k
}

// verifyCrashRecovery restarts the "process" after a planned fault and
// checks the recovered state, then does a clean close / crash / reopen
// cycle to check that recovery itself (quarantine renames, WAL tail
// truncation, checkpoints) left the database re-recoverable and stable.
func verifyCrashRecovery(t *testing.T, fs *errfs.FS, acked int, columnar bool, label string) {
	t.Helper()
	fs.SetPlan(errfs.Plan{CrashAtOp: -1})
	fs.SetPhase("recover")
	fs.Reopen()
	env, err := openCrashEnv(fs, columnar)
	if err != nil {
		t.Fatalf("%s: recovery open failed: %v", label, err)
	}
	k := crashPrefix(t, env, acked, label)
	if err := env.close(); err != nil {
		t.Fatalf("%s: clean close after recovery: %v", label, err)
	}
	fs.Reopen()
	env2, err := openCrashEnv(fs, columnar)
	if err != nil {
		t.Fatalf("%s: second recovery open failed: %v", label, err)
	}
	if k2 := crashPrefix(t, env2, acked, label+" (second recovery)"); k2 != k {
		t.Fatalf("%s: state drifted across clean cycle: %d rows then %d", label, k, k2)
	}
	if err := env2.close(); err != nil {
		t.Fatalf("%s: final close: %v", label, err)
	}
}

func variantName(v errfs.Variant) string {
	switch v {
	case errfs.Kill:
		return "kill"
	case errfs.Torn:
		return "torn"
	default:
		return "failop"
	}
}

// TestCrashRecoveryMatrix is the tentpole harness: one fault-free pass
// records the workload's operation trace, then every operation is
// failed under every applicable variant — Kill everywhere, Torn and
// FailOp additionally on writes and fsyncs — and recovery is verified
// after each.
func TestCrashRecoveryMatrix(t *testing.T) {
	fs := errfs.New()
	acked := runCrashScript(fs, false)
	ops := fs.Ops()
	if acked != crashRecords {
		t.Fatalf("fault-free run acknowledged %d/%d records", acked, crashRecords)
	}
	verifyCrashRecovery(t, fs, acked, false, "fault-free")

	distinct := make(map[string]bool)
	for _, op := range ops {
		distinct[op] = true
	}
	if len(distinct) < 25 {
		labels := make([]string, 0, len(distinct))
		for l := range distinct {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		t.Fatalf("only %d distinct crash-point labels, want >= 25:\n%s",
			len(distinct), strings.Join(labels, "\n"))
	}
	t.Logf("workload: %d ops, %d distinct crash-point labels", len(ops), len(distinct))

	runs := 0
	for i, op := range ops {
		variants := []errfs.Variant{errfs.Kill}
		if strings.Contains(op, ":write") || strings.Contains(op, ":sync") {
			variants = append(variants, errfs.Torn, errfs.FailOp)
		}
		for _, v := range variants {
			label := fmt.Sprintf("op %d %s [%s]", i, op, variantName(v))
			ffs := errfs.New()
			ffs.SetPlan(errfs.Plan{CrashAtOp: i, Variant: v})
			acked := runCrashScript(ffs, false)
			verifyCrashRecovery(t, ffs, acked, false, label)
			runs++
		}
	}
	t.Logf("verified %d crash scenarios", runs)
}

// TestCrashRecoveryMatrixColumnar re-runs the crash matrix with the
// primary tree flushing columnar (version-2) components and ADM-record
// values, restricted to the flush, merge, and close phases — the only
// ops whose filesystem traffic the columnar writer changes (the
// put/WAL phases are byte-for-byte the row workload). Columnar flush
// and merge must honor the same WAL-barrier, crash-atomic-install, and
// quarantine contracts as row components.
func TestCrashRecoveryMatrixColumnar(t *testing.T) {
	fs := errfs.New()
	acked := runCrashScript(fs, true)
	ops := fs.Ops()
	if acked != crashRecords {
		t.Fatalf("fault-free columnar run acknowledged %d/%d records", acked, crashRecords)
	}
	verifyCrashRecovery(t, fs, acked, true, "fault-free")

	runs := 0
	for i, op := range ops {
		if !strings.HasPrefix(op, "flush/") && !strings.HasPrefix(op, "merge/") &&
			!strings.HasPrefix(op, "close/") {
			continue
		}
		variants := []errfs.Variant{errfs.Kill}
		if strings.Contains(op, ":write") || strings.Contains(op, ":sync") {
			variants = append(variants, errfs.Torn, errfs.FailOp)
		}
		for _, v := range variants {
			label := fmt.Sprintf("op %d %s [%s columnar]", i, op, variantName(v))
			ffs := errfs.New()
			ffs.SetPlan(errfs.Plan{CrashAtOp: i, Variant: v})
			acked := runCrashScript(ffs, true)
			verifyCrashRecovery(t, ffs, acked, true, label)
			runs++
		}
	}
	if runs == 0 {
		t.Fatal("no flush/merge/close crash points found in the columnar op trace")
	}
	t.Logf("verified %d columnar crash scenarios", runs)
}

// TestWALReplayIdempotent recovers the same un-checkpointed log twice
// and asserts both replays deliver identical op streams: applying the
// log is idempotent, so a crash during recovery costs nothing.
func TestWALReplayIdempotent(t *testing.T) {
	fs := errfs.New()
	fs.SetPhase("run")
	env, err := openCrashEnv(fs, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		toks := crashToks(i)
		lsns, err := storage.CommitGroups(env.wal, [][]storage.GroupWrite{{
			{Tree: env.prim, Key: []byte(crashKey(i)), Val: []byte(crashVal(i))},
			{Tree: env.kw, Key: []byte(toks[0])},
			{Tree: env.kw, Key: []byte(toks[1])},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := env.wal.WaitDurable(lsns[0]); err != nil {
			t.Fatal(err)
		}
	}
	// Close only the WAL: the trees never flush, so nothing checkpoints
	// and the whole log remains replayable. The trees are abandoned, as
	// a crash would abandon their memtables.
	if err := env.wal.Close(); err != nil {
		t.Fatal(err)
	}

	replay := func() []storage.ReplayOp {
		fs.Reopen()
		w, err := storage.OpenWAL("wal", storage.WALOptions{SegmentBytes: 256, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		ops := w.Attach("p")
		ops = append(ops, w.Attach("i:kw")...)
		// No checkpoint: closing must leave the log intact.
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return ops
	}
	first := replay()
	second := replay()
	if len(first) != 15 {
		t.Fatalf("first replay: %d ops, want 15", len(first))
	}
	if len(second) != len(first) {
		t.Fatalf("second replay: %d ops, first had %d", len(second), len(first))
	}
	for i := range first {
		a, b := first[i], second[i]
		if a.LSN != b.LSN || string(a.Key) != string(b.Key) ||
			string(a.Val) != string(b.Val) || a.Tombstone != b.Tombstone {
			t.Fatalf("replay op %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// corruptOnlyComponent finds the single .cmp file under dir and cuts
// it in half, destroying the footer so it can no longer open.
func corruptOnlyComponent(t *testing.T, fs *errfs.FS, dir string) string {
	t.Helper()
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := ""
	for _, name := range names {
		if strings.HasSuffix(name, ".cmp") {
			if path != "" {
				t.Fatalf("more than one component in %s: %v", dir, names)
			}
			path = dir + "/" + name
		}
	}
	if path == "" {
		t.Fatalf("no component in %s: %v", dir, names)
	}
	h, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.Stat()
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	if err := fs.Truncate(path, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	return path
}

// crashNow kills the simulated process at the next filesystem op and
// resets the plan so post-restart operations run clean.
func crashNow(fs *errfs.FS) {
	fs.SetPlan(errfs.Plan{CrashAtOp: len(fs.Ops()), Variant: errfs.Kill})
	fs.MkdirAll("crash-trigger") // any mutating op fires the plan
	fs.SetPlan(errfs.Plan{CrashAtOp: -1})
}

// TestCorruptedUncheckpointedComponentQuarantined: a flushed component
// whose checkpoint record died with the crash still has its full
// contents in the log (the force-synced flush-begin proves it), so
// corruption of that component is quarantined and the ops replay.
func TestCorruptedUncheckpointedComponentQuarantined(t *testing.T) {
	fs := errfs.New()
	fs.SetPhase("run")
	w, err := storage.OpenWAL("wal", storage.WALOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := storage.OpenLSM("d", storage.LSMOptions{
		FS: fs, WAL: w, WALTree: "p", MemBudgetBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Put([]byte("k0"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	// Flush installs the component and appends — but does not force-
	// sync — its checkpoint record; the crash below loses it.
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	crashNow(fs)
	tree.Close()
	w.Close()
	fs.Reopen()

	fs.SetPhase("recover")
	corruptOnlyComponent(t, fs, "d")
	w2, err := storage.OpenWAL("wal", storage.WALOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	tree2, err := storage.OpenLSM("d", storage.LSMOptions{
		FS: fs, WAL: w2, WALTree: "p", MemBudgetBytes: 1 << 20,
	})
	if err != nil {
		t.Fatalf("open with WAL-covered corrupt component: %v, want quarantine", err)
	}
	v, ok, err := tree2.Get([]byte("k0"))
	if err != nil || !ok || string(v) != "v0" {
		t.Fatalf("k0 after quarantine+replay: v=%q ok=%v err=%v", v, ok, err)
	}
	names, err := fs.ReadDir("d")
	if err != nil {
		t.Fatal(err)
	}
	bad := false
	for _, name := range names {
		bad = bad || strings.HasSuffix(name, ".cmp.bad")
	}
	if !bad {
		t.Fatalf("corrupt component not quarantined to .bad: %v", names)
	}
	if err := tree2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptedCheckpointedComponentSurfaces: once a component's
// checkpoint record is durable its ops are gone from the log, so
// corrupting the sole copy must fail the open — even while unrelated
// un-checkpointed ops are pending replay (the condition that made the
// old any-pending-replay quarantine gate silently drop data).
func TestCorruptedCheckpointedComponentSurfaces(t *testing.T) {
	fs := errfs.New()
	fs.SetPhase("run")
	w, err := storage.OpenWAL("wal", storage.WALOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := storage.OpenLSM("d", storage.LSMOptions{
		FS: fs, WAL: w, WALTree: "p", MemBudgetBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Put([]byte("k0"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	// This durable commit's fsync also hardens the checkpoint record
	// the flush appended just before it — and leaves k1 as pending
	// replay across the crash.
	if err := tree.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	crashNow(fs)
	tree.Close()
	w.Close()
	fs.Reopen()

	fs.SetPhase("recover")
	corruptOnlyComponent(t, fs, "d")
	w2, err := storage.OpenWAL("wal", storage.WALOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	tree2, err := storage.OpenLSM("d", storage.LSMOptions{
		FS: fs, WAL: w2, WALTree: "p", MemBudgetBytes: 1 << 20,
	})
	if err == nil {
		tree2.Close()
		t.Fatal("open succeeded with a checkpointed component corrupted: sole-copy loss must surface")
	}
}

// TestFlushFailureSticky covers the maintenance-failure surface: an
// injected fsync failure during flush must surface through Flush and
// Close, raise the storage.maintenance.failed gauge, and leave the
// tree refusing writes rather than silently dropping the memtable.
func TestFlushFailureSticky(t *testing.T) {
	script := func(fs *errfs.FS) *storage.LSMTree {
		t.Helper()
		fs.SetPhase("setup")
		tree, err := storage.OpenLSM("d", storage.LSMOptions{FS: fs, MemBudgetBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := tree.Put([]byte(crashKey(i)), []byte(crashVal(i))); err != nil {
				t.Fatal(err)
			}
		}
		fs.SetPhase("flush")
		return tree
	}

	// Probe pass: locate the flush's component fsync in the op trace.
	probe := errfs.New()
	ptree := script(probe)
	if err := ptree.Flush(); err != nil {
		t.Fatal(err)
	}
	ptree.Close()
	syncAt := -1
	for i, op := range probe.Ops() {
		if op == "flush/cmp:sync" {
			syncAt = i
			break
		}
	}
	if syncAt < 0 {
		t.Fatalf("no flush/cmp:sync in op trace %v", probe.Ops())
	}

	fs := errfs.New()
	tree := script(fs)
	failedBefore := obs.G("storage.maintenance.failed").Load()
	fs.SetPlan(errfs.Plan{CrashAtOp: syncAt, Variant: errfs.FailOp})
	err := tree.Flush()
	if !errors.Is(err, errfs.ErrInjected) {
		t.Fatalf("Flush after injected fsync failure = %v, want ErrInjected", err)
	}
	if got := obs.G("storage.maintenance.failed").Load(); got != failedBefore+1 {
		t.Errorf("storage.maintenance.failed = %d, want %d", got, failedBefore+1)
	}
	if err := tree.Put([]byte("late"), []byte("write")); err == nil {
		t.Error("write after failed flush succeeded; the error must be sticky")
	}
	if err := tree.Close(); !errors.Is(err, errfs.ErrInjected) {
		t.Errorf("Close = %v, want the sticky flush error", err)
	}
}
