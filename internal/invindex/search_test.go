package invindex

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"simdb/internal/storage"
)

var allSolvers = []Algorithm{ScanCount, MergeSkip, DivideSkip}

// layeredIndex builds an index whose postings sit in every layer a
// search can meet: disk components left by flushes and merges (small
// pages, so lists cross fence keys), rotated memtables whose flush is
// held back, and the active memtable — with Removed postings shadowing
// older layers. It returns the index and its vocabulary; release lets
// the held flushes run and must be called before the index closes.
func layeredIndex(t *testing.T, r *rand.Rand) (ix *Index, vocab []string, release func()) {
	t.Helper()
	sched := storage.NewScheduler(1)
	ix, err := Open(t.TempDir(), storage.LSMOptions{
		PageSize: 128, MemBudgetBytes: 1500, MaxImmutable: 1000, MaxComponents: 1000, Maintenance: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		vocab = append(vocab, fmt.Sprintf("w%d", i))
	}
	model := map[int64][]string{}
	mutate := func(n int) {
		for i := 0; i < n; i++ {
			id := int64(r.Intn(300))
			if toks, ok := model[id]; ok {
				if err := ix.Remove(toks, pkOf(id)); err != nil {
					t.Fatal(err)
				}
				delete(model, id)
				if r.Intn(2) == 0 {
					continue
				}
			}
			toks := make([]string, 1+r.Intn(6))
			for j := range toks {
				// Skewed: low-numbered tokens are on most records.
				toks[j] = vocab[min(r.Intn(len(vocab)), r.Intn(len(vocab)))]
			}
			if err := ix.Insert(toks, pkOf(id)); err != nil {
				t.Fatal(err)
			}
			model[id] = toks
		}
	}
	for round := 1 + r.Intn(4); round > 0; round-- {
		mutate(50 + r.Intn(250))
		if err := ix.Flush(); err != nil {
			t.Fatal(err)
		}
		if r.Intn(4) == 0 {
			if err := ix.Tree().Merge(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The scheduler's one worker waits on the gate: from here on a full
	// memtable rotates and stays an immutable generation.
	gate := make(chan struct{})
	sched.Submit(func() { <-gate })
	mutate(r.Intn(400))
	return ix, vocab, func() {
		close(gate)
		if err := ix.Close(); err != nil {
			t.Error(err)
		}
		sched.Close()
	}
}

// TestSolversAgreeOverIndexProperty extends the list-level agreement
// property to real trees: over a layered index, every solver returns for
// every T in 1..|q| what counting the tokens' Postings (read through
// Scan, not through cursors) gives.
func TestSolversAgreeOverIndexProperty(t *testing.T) {
	layers := map[string]int{}
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		ix, vocab, release := layeredIndex(t, r)
		st := ix.Stats()
		if st.ImmMemtables > 0 {
			layers["immutable memtables"]++
		}
		if st.DiskComponents > 1 {
			layers["several components"]++
		}
		for q := 0; q < 12; q++ {
			query := append([]string(nil), vocab...)
			r.Shuffle(len(query), func(i, j int) { query[i], query[j] = query[j], query[i] })
			query = query[:1+r.Intn(len(query))]
			if r.Intn(3) == 0 {
				query = append(query, "absent", query[0]) // an empty list and a duplicate
			}
			lists := [][]PK{}
			for tok := range distinct(query) {
				l, err := ix.Postings(tok)
				if err != nil {
					t.Fatal(err)
				}
				lists = append(lists, l)
			}
			for tt := 1; tt <= len(lists); tt++ {
				want := naiveTOccurrence(lists, tt)
				for _, algo := range allSolvers {
					got, stats, err := ix.Search(query, tt, algo)
					if err != nil {
						t.Fatal(err)
					}
					if !equalPKs(got, want) {
						t.Fatalf("seed %d query %v T=%d %v: %d candidates, counting the lists gives %d (lists %v, stats %+v)",
							seed, query, tt, algo, len(got), len(want), listLens(lists), stats)
					}
					if stats.Lists != len(lists) || stats.Candidates != len(want) {
						t.Fatalf("seed %d %v: stats %+v for %d lists and %d candidates", seed, algo, stats, len(lists), len(want))
					}
				}
			}
		}
		release()
	}
	if layers["immutable memtables"] == 0 || layers["several components"] == 0 {
		t.Fatalf("the generated indexes never had every layer: %v", layers)
	}
}

// TestSearchAboveTokenCountTouchesNothing: a T above the number of
// distinct query tokens is decided before any page is read.
func TestSearchAboveTokenCountTouchesNothing(t *testing.T) {
	cache := storage.NewBufferCache(1<<20, 4096)
	ix, err := Open(t.TempDir(), storage.LSMOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for id := int64(0); id < 100; id++ {
		if err := ix.Insert([]string{"a", "b"}, pkOf(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, algo := range allSolvers {
		before := cache.Stats()
		got, stats, err := ix.Search([]string{"a", "b", "a"}, 3, algo)
		after := cache.Stats()
		if err != nil || len(got) != 0 || stats.Lists != 2 || stats.PostingsRead != 0 {
			t.Errorf("%v: T=3 over two distinct tokens: %d candidates, stats %+v, err %v", algo, len(got), stats, err)
		}
		if reads := (after.Hits + after.Misses) - (before.Hits + before.Misses); reads != 0 {
			t.Errorf("%v: an unanswerable T read %d pages", algo, reads)
		}
	}
	// The same tokens at a T they can reach do read.
	if got, stats, err := ix.Search([]string{"a", "b"}, 2, DivideSkip); err != nil || len(got) != 100 || stats.PostingsRead == 0 {
		t.Errorf("T=2: %d candidates, stats %+v, err %v", len(got), stats, err)
	}
}

// TestSkippingSolversReadLess: with one short list and long ones at a
// high T, the skipping solvers decode a fraction of what ScanCount does,
// and DivideSkip, which only probes the long lists, the least.
func TestSkippingSolversReadLess(t *testing.T) {
	ix, err := Open(t.TempDir(), storage.LSMOptions{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for id := int64(0); id < 20000; id++ {
		toks := []string{"common", "usual"}
		if id%4000 == 1999 {
			toks = append(toks, "rare")
		}
		if err := ix.Insert(toks, pkOf(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	read := map[Algorithm]int64{}
	for _, algo := range allSolvers {
		got, stats, err := ix.Search([]string{"common", "usual", "rare"}, 3, algo)
		if err != nil || len(got) != 5 {
			t.Fatalf("%v: %d candidates, err %v", algo, len(got), err)
		}
		read[algo] = stats.PostingsRead
	}
	if read[ScanCount] != 40005 {
		t.Errorf("ScanCount read %d postings of 40005", read[ScanCount])
	}
	if read[MergeSkip] > read[ScanCount]/10 || read[DivideSkip] > read[MergeSkip] {
		t.Errorf("postings read: %v", read)
	}
}

// TestSearchConcurrentWithMaintenance runs searches under every solver
// while a writer inserts, removes and flushes and a merger compacts.
// Records 0..199 carry the three query tokens throughout, so every
// answer must hold them, sorted and without duplicates, whatever layer
// each posting is in at that moment. Run under -race.
func TestSearchConcurrentWithMaintenance(t *testing.T) {
	ix, err := Open(t.TempDir(), storage.LSMOptions{PageSize: 256, MemBudgetBytes: 4 << 10, MaxComponents: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	query := []string{"x", "y", "z"}
	const stable = 200
	for id := int64(0); id < stable; id++ {
		if err := ix.Insert(query, pkOf(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: transient records beside the stable ones
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := int64(stable + i%500)
			toks := query[:1+i%3]
			if err := ix.Insert(toks, pkOf(id)); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				if err := ix.Remove(toks, pkOf(id)); err != nil {
					t.Error(err)
					return
				}
			}
			if i%200 == 199 {
				if err := ix.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() { // merger
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := ix.Tree().Merge(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var searchers sync.WaitGroup
	for _, algo := range allSolvers {
		searchers.Add(1)
		go func(algo Algorithm) {
			defer searchers.Done()
			for i := 0; i < 150; i++ {
				got, _, err := ix.Search(query, 3, algo)
				if err != nil {
					t.Errorf("%v: %v", algo, err)
					return
				}
				seen := 0
				for j, pk := range got {
					if j > 0 && got[j-1] >= pk {
						t.Errorf("%v: answer not strictly sorted at %d", algo, j)
						return
					}
					if pk <= pkOf(stable-1) {
						seen++
					}
				}
				if seen != stable {
					t.Errorf("%v: %d of the %d stable records in the answer", algo, seen, stable)
					return
				}
			}
		}(algo)
	}
	searchers.Wait()
	close(stop)
	wg.Wait()
}

// flakyFS is the real filesystem with page reads that fail on demand.
type flakyFS struct {
	storage.VFS
	fail atomic.Bool
}

type flakyFile struct {
	storage.File
	fs *flakyFS
}

func (f *flakyFS) Open(name string) (storage.File, error) {
	file, err := f.VFS.Open(name)
	if err != nil {
		return nil, err
	}
	return flakyFile{File: file, fs: f}, nil
}

func (f flakyFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.fail.Load() {
		return 0, errors.New("flakyFS: read failed")
	}
	return f.File.ReadAt(p, off)
}

// threeComponentIndex flushes three components of 1000 records each:
// "every" is on all records, "even" on half, "once" on record 10.
func threeComponentIndex(t *testing.T, dir string, opts storage.LSMOptions) *Index {
	t.Helper()
	opts.MaxComponents = 1000 // no background merge
	ix, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 3000; id++ {
		toks := []string{"every"}
		if id%2 == 0 {
			toks = append(toks, "even")
		}
		if id == 10 {
			toks = append(toks, "once")
		}
		if err := ix.Insert(toks, pkOf(id)); err != nil {
			t.Fatal(err)
		}
		if id%1000 == 999 {
			if err := ix.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ix
}

func componentFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.cmp"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestSearchReleasesCursorsOnEveryExit: searches that end early — a
// page read that fails, an unanswerable T, a skipping solver that stops
// before the lists do — close their cursors like searches that run to
// the end. A cursor left open would pin the components a full merge
// retires: their files would stay on disk.
func TestSearchReleasesCursorsOnEveryExit(t *testing.T) {
	dir := t.TempDir()
	fs := &flakyFS{VFS: storage.OS}
	// A cache of four pages: nearly every page a search touches is read
	// from the file, so a failing read is met at once.
	ix := threeComponentIndex(t, dir, storage.LSMOptions{PageSize: 512, Cache: storage.NewBufferCache(4*512, 512), FS: fs})
	defer ix.Close()
	for _, algo := range allSolvers {
		fs.fail.Store(true)
		if got, _, err := ix.Search([]string{"every", "even"}, 2, algo); err == nil {
			t.Errorf("%v: %d candidates from an index whose reads fail", algo, len(got))
		}
		fs.fail.Store(false)
		if got, _, err := ix.Search([]string{"every", "even"}, 3, algo); err != nil || len(got) != 0 {
			t.Errorf("%v: unanswerable T: %d candidates, %v", algo, len(got), err)
		}
		got, stats, err := ix.Search([]string{"once", "every", "even"}, 3, algo)
		if err != nil || len(got) != 1 {
			t.Errorf("%v: %d candidates, %v", algo, len(got), err)
		}
		if algo != ScanCount && stats.PostingsRead > 100 {
			t.Errorf("%v read %d postings for one that ends after record 10", algo, stats.PostingsRead)
		}
		if got, _, err := ix.Search([]string{"every", "even"}, 1, algo); err != nil || len(got) != 3000 {
			t.Errorf("%v: full run: %d candidates, %v", algo, len(got), err)
		}
	}
	if err := ix.Tree().Merge(); err != nil {
		t.Fatal(err)
	}
	if st, files := ix.Stats(), componentFiles(t, dir); st.DiskComponents != 1 || len(files) != 1 {
		t.Errorf("after the merge Stats() has %d components and the directory holds %v", st.DiskComponents, files)
	}
}

// TestSearchCorruptPage: a damaged posting page surfaces as a corruption
// error from every solver — never a panic, never a shorter answer.
func TestSearchCorruptPage(t *testing.T) {
	dir := t.TempDir()
	if err := threeComponentIndex(t, dir, storage.LSMOptions{PageSize: 512}).Close(); err != nil {
		t.Fatal(err)
	}
	files := componentFiles(t, dir)
	if len(files) != 3 {
		t.Fatalf("component files: %v", files)
	}
	// Data pages fill the front of a component file: a run of 0xFF a third
	// of the way in lands inside one and reads as a key length far past
	// the page's end.
	info, err := os.Stat(files[1])
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(files[1], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte(strings.Repeat("\xff", 64)), info.Size()/3); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(dir, storage.LSMOptions{PageSize: 512, MaxComponents: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, algo := range allSolvers {
		for _, tt := range []int{1, 2} {
			got, _, err := ix.Search([]string{"every", "even"}, tt, algo)
			if err == nil || !strings.Contains(err.Error(), "corrupt component") {
				t.Errorf("%v T=%d over a damaged page: %d candidates, error %v, want a corruption error", algo, tt, len(got), err)
			}
		}
	}
}
