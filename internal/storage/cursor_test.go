package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"
)

// cursorTestTree fills a tree the way a cursor can meet one: disk
// components left by flushes and merges (tiny pages, so a range crosses
// many fence keys), rotated memtables whose flush is held back, and an
// active memtable, with puts, overwrites and deletes in every layer. It
// returns the keys it ever deleted. The caller must call release before
// closing the tree.
func cursorTestTree(t *testing.T, r *rand.Rand, columnar bool) (tree *LSMTree, deleted [][]byte, release func()) {
	t.Helper()
	tree, err := OpenLSM(t.TempDir(), LSMOptions{
		PageSize: 96, MemBudgetBytes: 1 << 20, MaxComponents: 1000, MaxImmutable: 100, Columnar: columnar,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := func() []byte {
		k := fmt.Sprintf("k%03d", r.Intn(200))
		if r.Intn(3) == 0 {
			k += string([]byte{'a', 0, 0xFF}[r.Intn(3)])
		}
		return []byte(k)
	}
	write := func(n int) {
		for i := 0; i < n; i++ {
			k := key()
			var err error
			if r.Intn(4) == 0 {
				deleted = append(deleted, k)
				err = tree.Delete(k)
			} else {
				err = tree.Put(k, []byte(fmt.Sprintf("v%d", r.Intn(1000))))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := r.Intn(5); round > 0; round-- {
		write(20 + r.Intn(150))
		if err := tree.Flush(); err != nil {
			t.Fatal(err)
		}
		if r.Intn(4) == 0 {
			if err := tree.Merge(); err != nil {
				t.Fatal(err)
			}
		}
	}
	gate := make(chan struct{})
	tree.mu.Lock()
	tree.testFlushDelay = func() { <-gate }
	tree.mu.Unlock()
	for gen := r.Intn(4); gen > 0; gen-- {
		write(1 + r.Intn(60))
		tree.mu.Lock()
		tree.rotateLocked()
		tree.mu.Unlock()
	}
	write(r.Intn(60))
	return tree, deleted, func() { close(gate) }
}

// TestCursorMatchesScanProperty: over random trees, cursors opened on
// random sorted disjoint ranges yield, under any interleaving of Next
// and forward SeekGE, exactly the keys Scan yields for the range on the
// same snapshot. Seek targets are drawn from the places a seek can go
// wrong: a live key, just past one, a fence key of a component, a
// deleted key, before the range, past its end, and behind the cursor.
func TestCursorMatchesScanProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree, deleted, release := cursorTestTree(t, r, seed%2 == 0)
		defer tree.Close()
		defer release()
		snap := tree.Snapshot()
		defer snap.Close()

		// Sorted disjoint ranges from sorted cut points; the first may be
		// open below, the last open above.
		cuts := make([][]byte, 2+r.Intn(6))
		for i := range cuts {
			cuts[i] = []byte(fmt.Sprintf("k%03d", r.Intn(220)))
		}
		sort.Slice(cuts, func(i, j int) bool { return bytes.Compare(cuts[i], cuts[j]) < 0 })
		var ranges []KeyRange
		for i := 0; i+1 < len(cuts); i += 1 + r.Intn(2) {
			ranges = append(ranges, KeyRange{Start: cuts[i], End: cuts[i+1]})
		}
		if r.Intn(3) == 0 {
			ranges[0].Start = nil
		}
		if r.Intn(3) == 0 {
			ranges[len(ranges)-1].End = nil
		}
		var fences [][]byte
		for _, c := range snap.components {
			for _, p := range c.pages {
				fences = append(fences, p.firstKey)
			}
		}

		cursors := snap.Cursors(ranges)
		for ci, c := range cursors {
			rng := ranges[ci]
			var ref [][]byte
			if err := snap.Scan(nil, rng.Start, rng.End, func(k, _ []byte) bool {
				ref = append(ref, append([]byte(nil), k...))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			pos := -1 // index in ref the cursor stands on; len(ref) = exhausted
			landed := false
			target := func() []byte {
				pick := func(keys [][]byte) []byte {
					if len(keys) == 0 {
						return []byte("k100")
					}
					return keys[r.Intn(len(keys))]
				}
				switch r.Intn(8) {
				case 0:
					return pick(ref)
				case 1:
					return append(append([]byte(nil), pick(ref)...), 0)
				case 2:
					return pick(fences)
				case 3:
					return pick(deleted)
				case 4:
					return []byte("a") // before every key
				case 5:
					return []byte("z") // past every key
				case 6:
					if pos >= 0 && pos < len(ref) {
						return ref[r.Intn(pos+1)] // at or behind the cursor
					}
				}
				return []byte(fmt.Sprintf("k%03d", r.Intn(220)))
			}
			for step := 0; step < 40 && pos < len(ref)+1; step++ {
				var ok bool
				var what string
				if r.Intn(2) == 0 {
					ok, what = c.Next(), "Next"
					pos = min(pos+1, len(ref))
				} else {
					tg := target()
					ok, what = c.SeekGE(tg), fmt.Sprintf("SeekGE(%q)", tg)
					// A seek never moves back: from its position (or the
					// start) on, the first key >= target.
					pos = max(pos, 0)
					for pos < len(ref) && bytes.Compare(ref[pos], tg) < 0 {
						pos++
					}
				}
				if c.Err() != nil {
					t.Fatalf("seed %d: %s: %v", seed, what, c.Err())
				}
				if ok != (pos < len(ref)) || (ok && !bytes.Equal(c.Key(), ref[pos])) {
					t.Logf("seed %d range [%q,%q) step %d %s: ok=%v key=%q, want ref[%d] of %d",
						seed, rng.Start, rng.End, step, what, ok, c.Key(), pos, len(ref))
					return false
				}
				landed = landed || ok
			}
			if st := c.Stats(); landed && st.Entries == 0 {
				t.Logf("seed %d: cursor stood on a key and counted no entry", seed)
				return false
			}
			c.Close()
			c.Close()
			if c.Next() || c.SeekGE([]byte("k")) {
				t.Logf("seed %d: a closed cursor moved", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// TestCursorSkipsPages: a seek across a long range fetches the page it
// lands on and none of the pages in between.
func TestCursorSkipsPages(t *testing.T) {
	cache := NewBufferCache(1<<20, 256)
	tree, err := OpenLSM(t.TempDir(), LSMOptions{PageSize: 256, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tree.Put([]byte(fmt.Sprintf("k%05d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := tree.Snapshot()
	defer snap.Close()
	pages := len(snap.components[0].pages)
	c := snap.Cursors([]KeyRange{{}})[0]
	defer c.Close()
	before := cache.Stats()
	if !c.Next() || !c.SeekGE([]byte("k01000")) || string(c.Key()) != "k01000" || !c.SeekGE([]byte("k01999")) {
		t.Fatalf("cursor lost its way: key %q err %v", c.Key(), c.Err())
	}
	after := cache.Stats()
	st := c.Stats()
	if reads := (after.Hits + after.Misses) - (before.Hits + before.Misses); reads != st.Pages || st.Pages > 4 {
		t.Errorf("3 moves over %d pages fetched %d (cursor counted %d), want at most 4", pages, reads, st.Pages)
	}
	if hint := c.SizeHint(); hint < n/2 || hint > 2*n {
		t.Errorf("SizeHint = %d for a %d-entry range over %d pages", hint, n, pages)
	}
	if st.Entries >= n/4 {
		t.Errorf("two long seeks decoded %d of %d entries", st.Entries, n)
	}
}

// TestCursorCorruptPage: a damaged data page ends the cursor with a
// corruption error instead of a panic or a silently shorter range.
func TestCursorCorruptPage(t *testing.T) {
	dir := t.TempDir()
	tree, err := OpenLSM(dir, LSMOptions{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tree.Put([]byte(fmt.Sprintf("k%05d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.cmp"))
	if len(files) != 1 {
		t.Fatalf("component files: %v", files)
	}
	// An impossible key length in the first entry of the third page.
	probe, err := OpenComponent(files[0], NewBufferCache(1<<20, 256))
	if err != nil {
		t.Fatal(err)
	}
	off := probe.pages[2].off + 2
	probe.Close()
	f, err := os.OpenFile(files[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0x7F}, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tree, err = OpenLSM(dir, LSMOptions{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	snap := tree.Snapshot()
	defer snap.Close()
	for name, move := range map[string]func(c *Cursor) bool{
		"Next":   func(c *Cursor) bool { return c.Next() },
		"SeekGE": func(c *Cursor) bool { return c.SeekGE(snap.components[0].pages[2].firstKey) || c.Next() },
	} {
		c := snap.Cursors([]KeyRange{{}})[0]
		n := 0
		for move(c) {
			if n++; n > 500 {
				t.Fatalf("%s: the cursor never ended", name)
			}
		}
		if !errors.As(c.Err(), new(corruptError)) {
			t.Errorf("%s over a damaged page: %d keys, then error %v, want a corruption error", name, n, c.Err())
		}
		c.Close()
	}
}
