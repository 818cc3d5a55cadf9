package storage

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"simdb/internal/adm"
)

// cursorTestTree fills a tree the way a reader can meet one: disk
// components left by flushes and merges (tiny pages, so a range crosses
// many fence keys), rotated memtables whose flush is held back, and an
// active memtable, with puts, overwrites and deletes in every layer.
// Values are records (propRecord: a projection has something to drop, a
// filter field of every kind, in a column or in overflow) and now and
// then an opaque string. It returns the model the reader is checked
// against — the last write of every key ever written, nil for a delete —
// which is kept by the writer and never read back from the tree. The
// caller must call release before closing the tree.
func cursorTestTree(t *testing.T, r *rand.Rand, columnar bool) (tree *LSMTree, model map[string][]byte, release func()) {
	t.Helper()
	tree, err := OpenLSM(t.TempDir(), LSMOptions{
		PageSize: 96, MemBudgetBytes: 1 << 20, MaxComponents: 1000, MaxImmutable: 100, Columnar: columnar,
	})
	if err != nil {
		t.Fatal(err)
	}
	model = map[string][]byte{}
	key := func() []byte {
		k := fmt.Sprintf("k%03d", r.Intn(200))
		if r.Intn(3) == 0 {
			k += string([]byte{'a', 0, 0xFF}[r.Intn(3)])
		}
		return []byte(k)
	}
	write := func(n int) {
		wide := r.Intn(3) == 0
		for i := 0; i < n; i++ {
			k := key()
			var err error
			switch r.Intn(8) {
			case 0, 1:
				model[string(k)] = nil
				err = tree.Delete(k)
			case 2:
				v := []byte(fmt.Sprintf("v%d", r.Intn(1000)))
				model[string(k)] = v
				err = tree.Put(k, v)
			default:
				v := propRecord(r, wide)
				model[string(k)] = v
				err = tree.Put(k, v)
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
	return tree, model, func() { close(gate) }
}

// propWide is the number of extra fields a wide round's records share.
const propWide = colMaxColumns + 6

// propRecord builds a record for the reader properties: id, text, and in
// two of three records f — a string, an int or a list, so a filter on f
// meets every kind. The records of a wide round also share propWide
// fields w00, w01, ...: more than a group has columns, and every one of
// them more frequent than f, so a columnar flush of the round puts f in
// the overflow stream. One record in eight has an over-long field count,
// which the columnar writer cannot split and stores opaque.
func propRecord(r *rand.Rand, wide bool) []byte {
	rec := adm.EmptyRecord(3)
	rec.Set("id", adm.NewInt(int64(r.Intn(1000))))
	rec.Set("text", adm.NewString(fmt.Sprintf("payload %d", r.Intn(50))))
	words := []string{"great", "product", "marla", ""}
	switch r.Intn(6) {
	case 0, 1:
		rec.Set("f", adm.NewString(words[r.Intn(len(words))]))
	case 2:
		rec.Set("f", adm.NewInt(int64(r.Intn(3))))
	case 3:
		rec.Set("f", adm.NewStringList([]string{words[r.Intn(len(words))]}))
	}
	if wide {
		for i := 0; i < propWide; i++ {
			rec.Set(fmt.Sprintf("w%02d", i), adm.NewInt(int64(i)))
		}
	}
	v := adm.Encode(adm.NewRecord(rec))
	if r.Intn(8) == 0 && v[1] < 0x80 {
		// The same record with its one-byte field count spelt in two.
		v = append([]byte{v[0], v[1] | 0x80, 0}, v[2:]...)
	}
	return v
}

// componentCursor opens a cursor over one component alone with
// tombstones surfaced — the read compaction performs. Its entry() is the
// stored entry, flag byte first.
func componentCursor(c *Component, start, end []byte, fields []string) *Cursor {
	return openCursors([]KeyRange{{Start: start, End: end}}, nil, []*Component{c}, NewProjection(fields), nil, true)[0]
}

// modelRange returns the model's live keys in [start, end), sorted.
func modelRange(model map[string][]byte, start, end []byte) [][]byte {
	var keys [][]byte
	for k, v := range model {
		if v != nil && (start == nil || k >= string(start)) && (end == nil || k < string(end)) {
			keys = append(keys, []byte(k))
		}
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	return keys
}

// sameUnder reports whether got is what a read under the projection may
// return for a stored value want: the value itself without a projection
// or for a value that is no record, otherwise any record whose kept
// fields are want's.
func sameUnder(fields []string, got, want []byte) bool {
	if fields == nil {
		return bytes.Equal(got, want)
	}
	keep := adm.NewKeepSet(fields)
	w, isRecord := adm.DecodeRecordProjected(want, keep)
	if !isRecord {
		return bytes.Equal(got, want)
	}
	g, ok := adm.DecodeRecordProjected(got, keep)
	return ok && bytes.Equal(adm.Encode(g), adm.Encode(w))
}

// scanMatchesModel runs scan and reports how what it yields differs from
// the model's live entries of rng under the projection: nil when it is
// exactly them, in order.
func scanMatchesModel(model map[string][]byte, rng KeyRange, fields []string, scan func(fn func(k, v []byte) bool) error) error {
	ref := modelRange(model, rng.Start, rng.End)
	n := 0
	good := true
	err := scan(func(k, v []byte) bool {
		good = n < len(ref) && bytes.Equal(k, ref[n]) && sameUnder(fields, v, model[string(k)])
		n++
		return good
	})
	if err != nil || !good || n != len(ref) {
		return fmt.Errorf("scan of [%q,%q) fields %v: entry %d of %d wrong (err %v)", rng.Start, rng.End, fields, n, len(ref), err)
	}
	return nil
}

// readerViews are the projections the reader is checked under: none,
// one column, a column and two fields that are in overflow after a wide
// round, and keys only.
var readerViews = [][]string{nil, {"id"}, {"text", "f", "w69"}, {}}

// propFilters are the row filters the reader is checked under: on a
// field of every kind, on a column every record has, and on a field no
// record has. Pass is a fixed function of the stored bytes, so versions
// of one key differ in pass or fail at random.
var propFilters = []string{"f", "f", "text", "nowhere"}

func propPass(val []byte) bool { return crc32.ChecksumIEEE(val)%3 != 0 }

// modelPasses is the filter applied to a model value, by a full decode:
// a value that is no record, or a record without the field, passes.
func modelPasses(field string, val []byte) bool {
	v, _, err := adm.Decode(val)
	if err != nil || v.Kind() != adm.KindRecord {
		return true
	}
	f, ok := v.Rec().Get(field)
	return !ok || propPass(adm.Encode(f))
}

// TestReaderMatchesModelProperty: over random trees, row and columnar,
// everything the one merged reader serves agrees with a model kept by
// the writer. Cursors opened on random sorted disjoint ranges yield,
// under any interleaving of Next and forward SeekGE, exactly the model's
// live keys of the range with their values; Scan and ScanProjected
// (whole and projected) yield the same entries; a filtered ScanProjected
// yields the model's entries after newest-wins, then the filter, then
// dropping the dead — an older version that passes never comes back
// from under a newer one that fails — and counts every live row as read;
// Get and GetProjected find every live key and no deleted or unwritten
// one. Seek targets are
// drawn from the places a seek can go wrong: a live key, just past one,
// a fence key of a component, a deleted key, before the range, past its
// end, and behind the cursor.
func TestReaderMatchesModelProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree, model, release := cursorTestTree(t, r, seed%2 == 0)
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
		var fences, deleted [][]byte
		for _, c := range snap.components {
			for _, p := range c.pages {
				fences = append(fences, p.firstKey)
			}
		}
		for k, v := range model {
			if v == nil {
				deleted = append(deleted, []byte(k))
			}
		}
		sort.Slice(deleted, func(i, j int) bool { return bytes.Compare(deleted[i], deleted[j]) < 0 })

		cursors := snap.Cursors(ranges)
		for ci, c := range cursors {
			rng := ranges[ci]
			ref := modelRange(model, rng.Start, rng.End)
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
				if ok && !bytes.Equal(c.Value(), model[string(c.Key())]) {
					t.Logf("seed %d %s: key %q has value %x, model %x", seed, what, c.Key(), c.Value(), model[string(c.Key())])
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

		// Scans: the whole tree and one of the ranges, under every view.
		var scanErr error
		for _, rng := range []KeyRange{{}, ranges[r.Intn(len(ranges))]} {
			scanErr = errors.Join(scanErr, scanMatchesModel(model, rng, nil, func(fn func(k, v []byte) bool) error {
				return tree.Scan(rng.Start, rng.End, fn)
			}))
			for _, fields := range readerViews {
				scanErr = errors.Join(scanErr, scanMatchesModel(model, rng, fields, func(fn func(k, v []byte) bool) error {
					_, err := snap.ScanProjected(nil, rng.Start, rng.End, fields, nil, fn)
					return err
				}))
			}
		}
		field := propFilters[r.Intn(len(propFilters))]
		passing := map[string][]byte{}
		for k, v := range model {
			if v != nil && modelPasses(field, v) {
				passing[k] = v
			}
		}
		for _, rng := range []KeyRange{{}, ranges[r.Intn(len(ranges))]} {
			live := int64(len(modelRange(model, rng.Start, rng.End)))
			for _, fields := range readerViews {
				filter := &RowFilter{Field: field, Pass: propPass}
				scanErr = errors.Join(scanErr, scanMatchesModel(passing, rng, fields, func(fn func(k, v []byte) bool) error {
					read, err := snap.ScanProjected(nil, rng.Start, rng.End, fields, filter, func(k, v []byte) bool {
						// A passing value may live in scratch the scan reuses.
						return fn(k, append([]byte(nil), v...))
					})
					if err == nil && read != live {
						err = fmt.Errorf("filter on %s read %d rows, %d are live", field, read, live)
					}
					return err
				}))
			}
		}
		if scanErr != nil {
			t.Logf("seed %d: %v", seed, scanErr)
			return false
		}

		// Point reads of every key ever written and of some never written.
		probes := [][]byte{[]byte("a"), []byte("k100\x01"), []byte("z"), {}}
		for k := range model {
			probes = append(probes, []byte(k))
		}
		for _, fields := range readerViews {
			proj := NewProjection(fields)
			for _, k := range probes {
				want := model[string(k)]
				v, found, err := snap.GetProjected(k, proj)
				if err != nil || found != (want != nil) || (found && !sameUnder(fields, v, want)) {
					t.Logf("seed %d: GetProjected(%q, %v) = %x, %v, %v; model %x", seed, k, fields, v, found, err, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionMatchesModel: a merge is one cursor over its input
// components only, tombstones surfaced. Merging the newest components of
// a tree with drop unset must write the last version of every key those
// components hold — tombstones included, or a deleted key of the oldest
// component would come back — and merging all of them with drop set must
// write the live keys alone. The merged component is read back entry by
// entry against the writer's own fold of what it wrote.
func TestCompactionMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		tree := newTestLSM(t, LSMOptions{PageSize: 96, MemBudgetBytes: 1 << 20, MaxComponents: 1000, Columnar: seed%2 == 1})
		// One component per round; the oldest holds every key, so later
		// deletes always shadow something.
		rounds := make([]map[string][]byte, 3+r.Intn(3))
		for ri := range rounds {
			rounds[ri] = map[string][]byte{}
			for i := 0; i < 80; i++ {
				k := fmt.Sprintf("k%03d", i)
				switch {
				case ri == 0 || r.Intn(6) == 0:
					v := colTestRecord(r.Intn(1000))[1:]
					rounds[ri][k] = v
					if err := tree.Put([]byte(k), v); err != nil {
						t.Fatal(err)
					}
				case r.Intn(6) == 0:
					rounds[ri][k] = nil
					if err := tree.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		fold := func(rounds []map[string][]byte) map[string][]byte {
			m := map[string][]byte{}
			for _, round := range rounds {
				for k, v := range round {
					m[k] = v
				}
			}
			return m
		}
		// matches reads component c whole and compares it with want, where
		// a nil value stands for a tombstone entry.
		matches := func(c *Component, want map[string][]byte) (tombstones int) {
			t.Helper()
			cur := componentCursor(c, nil, nil, nil)
			defer cur.Close()
			n := 0
			for cur.Next() {
				v, written := want[string(cur.Key())]
				if !written {
					t.Fatalf("seed %d: merged component holds unwritten key %q", seed, cur.Key())
				}
				entry := append([]byte{0}, v...)
				if v == nil {
					entry = []byte{1}
					tombstones++
				}
				if !bytes.Equal(cur.entry(), entry) {
					t.Fatalf("seed %d: key %q merged to %x, want %x", seed, cur.Key(), cur.entry(), entry)
				}
				n++
			}
			if cur.Err() != nil || n != len(want) {
				t.Fatalf("seed %d: merged component has %d entries, want %d (err %v)", seed, n, len(want), cur.Err())
			}
			return tombstones
		}
		scanMatches := func(want map[string][]byte) {
			t.Helper()
			if err := scanMatchesModel(want, KeyRange{}, nil, func(fn func(k, v []byte) bool) error { return tree.Scan(nil, nil, fn) }); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		all := fold(rounds)

		// Newest n of the components, something older left below.
		n := 2 + r.Intn(len(rounds)-2)
		tree.mu.RLock()
		inputs := append([]*Component(nil), tree.components[:n]...)
		tree.mu.RUnlock()
		if err := tree.mergeComponents(inputs, false, nil); err != nil {
			t.Fatal(err)
		}
		tree.mu.RLock()
		merged, left := tree.components[0], len(tree.components)
		tree.mu.RUnlock()
		if left != len(rounds)-n+1 {
			t.Fatalf("seed %d: %d components after merging %d of %d", seed, left, n, len(rounds))
		}
		if matches(merged, fold(rounds[len(rounds)-n:])) == 0 {
			t.Fatalf("seed %d: the merged rounds deleted nothing; the case tests no tombstone", seed)
		}
		scanMatches(all)

		// Everything, tombstones dropped.
		if err := tree.Merge(); err != nil {
			t.Fatal(err)
		}
		live := map[string][]byte{}
		for k, v := range all {
			if v != nil {
				live[k] = v
			}
		}
		tree.mu.RLock()
		merged, left = tree.components[0], len(tree.components)
		tree.mu.RUnlock()
		if left != 1 || matches(merged, live) != 0 {
			t.Fatalf("seed %d: full merge left %d components or a tombstone", seed, left)
		}
		scanMatches(all)
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
