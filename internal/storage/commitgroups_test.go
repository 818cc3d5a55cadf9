package storage_test

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"simdb/internal/obs"
	"simdb/internal/storage"
	"simdb/internal/storage/errfs"
)

// groupEnv is a primary tree and two index trees, sharing one log or
// having none — the shape of one dataset partition.
type groupEnv struct {
	dir   string
	wal   *storage.WAL
	trees [3]*storage.LSMTree
}

func openGroupEnv(t *testing.T, dir string, logged bool) *groupEnv {
	t.Helper()
	e := &groupEnv{dir: dir}
	if logged {
		w, err := storage.OpenWAL(filepath.Join(dir, "wal"), storage.WALOptions{SegmentBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		e.wal = w
	}
	for i := range e.trees {
		// A budget of a few groups: the sequence rotates and flushes
		// dozens of times, in the middle of chunks and of groups' runs.
		opts := storage.LSMOptions{MemBudgetBytes: 600, MaxComponents: 3}
		if logged {
			opts.WAL, opts.WALTree = e.wal, fmt.Sprintf("t%d", i)
		}
		tr, err := storage.OpenLSM(filepath.Join(dir, fmt.Sprintf("t%d", i)), opts)
		if err != nil {
			t.Fatal(err)
		}
		e.trees[i] = tr
	}
	return e
}

func (e *groupEnv) close(t *testing.T) {
	t.Helper()
	for _, tr := range e.trees {
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if e.wal != nil {
		if err := e.wal.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// dump renders every tree's full scan.
func (e *groupEnv) dump(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for i, tr := range e.trees {
		fmt.Fprintf(&b, "tree %d\n", i)
		err := tr.Scan(nil, nil, func(k, v []byte) bool {
			fmt.Fprintf(&b, "%q=%q\n", k, v)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// groupOp is one write of a generated group; tree indexes a groupEnv.
type groupOp struct {
	tree      int
	key, val  []byte
	tombstone bool
}

func (e *groupEnv) writes(ops []groupOp) []storage.GroupWrite {
	out := make([]storage.GroupWrite, len(ops))
	for i, op := range ops {
		out[i] = storage.GroupWrite{Tree: e.trees[op.tree], Key: op.key, Val: op.val, Tombstone: op.tombstone}
	}
	return out
}

// randomGroups draws multi-tree groups over a small key space: puts,
// tombstones, keys repeated inside a group and across groups, trees
// revisited within a group (several runs), and the occasional group
// big enough to rotate a memtable by itself.
func randomGroups(rng *rand.Rand, n int) [][]groupOp {
	groups := make([][]groupOp, n)
	for gi := range groups {
		size := 1 + rng.Intn(6)
		if rng.Intn(12) == 0 {
			size = 40
		}
		g := make([]groupOp, size)
		for i := range g {
			op := groupOp{tree: rng.Intn(3), key: []byte(fmt.Sprintf("k%03d", rng.Intn(120)))}
			if i > 0 && rng.Intn(2) == 0 {
				op.tree = g[i-1].tree
			}
			if i > 0 && rng.Intn(8) == 0 {
				op.key = g[i-1].key
			}
			if rng.Intn(5) == 0 {
				op.tombstone = true
			} else {
				op.val = []byte(fmt.Sprintf("g%d.%d-%s", gi, i, strings.Repeat("x", rng.Intn(30))))
			}
			g[i] = op
		}
		groups[gi] = g
	}
	return groups
}

// TestCommitGroupsLoglessMatchesLoggedAndPuts is the property the one
// write path rests on: the same groups leave the same trees whether
// they commit without a log, through a log, or as the equivalent
// Put/Delete sequence — before and after a restart.
func TestCommitGroupsLoglessMatchesLoggedAndPuts(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			groups := randomGroups(rng, 300)
			base := t.TempDir()
			logless := openGroupEnv(t, filepath.Join(base, "logless"), false)
			logged := openGroupEnv(t, filepath.Join(base, "logged"), true)
			puts := openGroupEnv(t, filepath.Join(base, "puts"), false)

			for off := 0; off < len(groups); {
				n := 1 + rng.Intn(32)
				if off+n > len(groups) {
					n = len(groups) - off
				}
				chunk := groups[off : off+n]
				off += n

				for _, e := range []*groupEnv{logless, logged} {
					gw := make([][]storage.GroupWrite, len(chunk))
					for i, g := range chunk {
						gw[i] = e.writes(g)
					}
					lsns, err := storage.CommitGroups(e.wal, gw)
					if err != nil {
						t.Fatal(err)
					}
					if len(lsns) != len(chunk) {
						t.Fatalf("%d lsns for %d groups", len(lsns), len(chunk))
					}
					for i, lsn := range lsns {
						if e.wal == nil && lsn != 0 {
							t.Fatalf("logless group %d got lsn %d, want 0", i, lsn)
						}
						if e.wal != nil && (lsn == 0 || i > 0 && lsn != lsns[i-1]+1) {
							t.Fatalf("logged lsns not consecutive: %v", lsns)
						}
					}
				}
				for _, g := range chunk {
					for _, op := range g {
						var err error
						if op.tombstone {
							err = puts.trees[op.tree].Delete(op.key)
						} else {
							err = puts.trees[op.tree].Put(op.key, op.val)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
				}
			}

			want := puts.dump(t)
			if got := logless.dump(t); got != want {
				t.Errorf("logless groups differ from the Put/Delete sequence:\n%s\nwant\n%s", got, want)
			}
			if got := logged.dump(t); got != want {
				t.Errorf("logged groups differ from the Put/Delete sequence:\n%s\nwant\n%s", got, want)
			}
			if s := logless.trees[0].Stats(); s.DiskComponents == 0 && s.ImmMemtables == 0 {
				t.Error("the sequence never rotated a memtable; the budget is too large to test rotation")
			}

			for _, e := range []*groupEnv{logless, logged, puts} {
				e.close(t)
				re := openGroupEnv(t, e.dir, e.wal != nil)
				if got := re.dump(t); got != want {
					t.Errorf("%s differs after restart:\n%s\nwant\n%s", filepath.Base(e.dir), got, want)
				}
				re.close(t)
			}
		})
	}
}

// TestCommitGroupsRejectsForeignTree: a group naming a tree that does
// not belong to the committing log — in either direction — is refused
// before anything is written.
func TestCommitGroupsRejectsForeignTree(t *testing.T) {
	base := t.TempDir()
	logless := openGroupEnv(t, filepath.Join(base, "logless"), false)
	defer logless.close(t)
	logged := openGroupEnv(t, filepath.Join(base, "logged"), true)
	defer logged.close(t)

	mixed := [][]storage.GroupWrite{{
		{Tree: logless.trees[0], Key: []byte("a"), Val: []byte("1")},
		{Tree: logged.trees[0], Key: []byte("a"), Val: []byte("1")},
	}}
	for name, w := range map[string]*storage.WAL{"nil log": nil, "log": logged.wal} {
		if _, err := storage.CommitGroups(w, mixed); err == nil {
			t.Errorf("%s: mixed group committed", name)
		}
	}
	for _, tr := range []*storage.LSMTree{logless.trees[0], logged.trees[0]} {
		if _, ok, err := tr.Get([]byte("a")); ok || err != nil {
			t.Errorf("refused group left a write behind (found=%v err=%v)", ok, err)
		}
	}
}

// gatedFS holds every component create until the test sends a token, so
// a test decides when each flush may start.
type gatedFS struct {
	*errfs.FS
	gate chan struct{}
}

func (g *gatedFS) Create(name string) (storage.File, error) {
	if strings.HasSuffix(name, ".cmp.tmp") {
		<-g.gate
	}
	return g.FS.Create(name)
}

// TestLoglessCommitStallsAndSurfacesStickyError: a commit without a log
// into a tree at MaxImmutable blocks until a flush completes, and one
// waiting behind a flush that fails returns that flush's error — as
// does every commit after it, with nothing written.
func TestLoglessCommitStallsAndSurfacesStickyError(t *testing.T) {
	fs := &gatedFS{FS: errfs.New(), gate: make(chan struct{})}
	tree, err := storage.OpenLSM("d", storage.LSMOptions{FS: fs, MemBudgetBytes: 64, MaxImmutable: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Every group is over budget, so each commit rotates the memtable.
	commit := func(key string) error {
		_, err := storage.CommitGroups(nil, [][]storage.GroupWrite{{
			{Tree: tree, Key: []byte(key), Val: []byte(strings.Repeat("v", 100))},
		}})
		return err
	}
	for _, k := range []string{"k1", "k2"} {
		if err := commit(k); err != nil {
			t.Fatal(err)
		}
	}
	if s := tree.Stats(); s.ImmMemtables != 2 {
		t.Fatalf("ImmMemtables = %d, want 2 (at MaxImmutable)", s.ImmMemtables)
	}

	stalls := obs.C("storage.stall.count").Load()
	blocked := func(key string) chan error {
		done := make(chan error, 1)
		go func() { done <- commit(key) }()
		select {
		case err := <-done:
			t.Fatalf("commit of %s returned (%v) with the tree at MaxImmutable and no flush done", key, err)
		case <-time.After(100 * time.Millisecond):
		}
		return done
	}
	done := blocked("k3")
	fs.gate <- struct{}{} // one flush may run
	if err := <-done; err != nil {
		t.Fatalf("stalled commit after the flush: %v", err)
	}
	if got := obs.C("storage.stall.count").Load(); got <= stalls {
		t.Errorf("storage.stall.count did not move (%d → %d)", stalls, got)
	}

	// k3 rotated again: the tree is back at MaxImmutable and the flusher
	// waits at the gate before the next component's first operation.
	done = blocked("k4")
	fs.SetPlan(errfs.Plan{CrashAtOp: len(fs.Ops()), Variant: errfs.FailOp})
	fs.gate <- struct{}{}
	if err := <-done; !errors.Is(err, errfs.ErrInjected) {
		t.Fatalf("commit stalled behind a failed flush = %v, want ErrInjected", err)
	}
	if err := commit("k5"); !errors.Is(err, errfs.ErrInjected) {
		t.Fatalf("commit after a failed flush = %v, want the sticky ErrInjected", err)
	}
	if err := tree.Put([]byte("k6"), []byte("v")); !errors.Is(err, errfs.ErrInjected) {
		t.Fatalf("Put after a failed flush = %v, want the sticky ErrInjected", err)
	}
	for _, k := range []string{"k4", "k5", "k6"} {
		if _, ok, err := tree.Get([]byte(k)); ok || err != nil {
			t.Errorf("refused write %s is readable (found=%v err=%v)", k, ok, err)
		}
	}
	close(fs.gate)
	if err := tree.Close(); !errors.Is(err, errfs.ErrInjected) {
		t.Errorf("Close = %v, want the sticky flush error", err)
	}
}

// TestLoglessWriteRacingCloseIsNotLost: no commitMu keeps Close out of
// a log-less commit, so every Put that was acknowledged while Close ran
// must still have made the final flush.
func TestLoglessWriteRacingCloseIsNotLost(t *testing.T) {
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		tree, err := storage.OpenLSM(dir, storage.LSMOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		acked := make([]int, 4)
		started := make(chan struct{})
		for g := range acked {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					if tree.Put([]byte(fmt.Sprintf("w%d-%06d", g, i)), []byte("v")) != nil {
						return
					}
					acked[g] = i + 1
					if g == 0 && i == 50 {
						close(started)
					}
				}
			}(g)
		}
		<-started
		if err := tree.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()

		re, err := storage.OpenLSM(dir, storage.LSMOptions{})
		if err != nil {
			t.Fatal(err)
		}
		found := map[string]bool{}
		if err := re.Scan(nil, nil, func(k, _ []byte) bool { found[string(k)] = true; return true }); err != nil {
			t.Fatal(err)
		}
		for g, n := range acked {
			for i := 0; i < n; i++ {
				if k := fmt.Sprintf("w%d-%06d", g, i); !found[k] {
					t.Fatalf("round %d: acknowledged %s is gone after Close", round, k)
				}
			}
		}
		re.Close()
	}
}
