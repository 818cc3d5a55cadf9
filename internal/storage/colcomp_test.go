package storage

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"simdb/internal/adm"
)

// colTestRecord builds an encoded record entry ([0] tombstone flag +
// record bytes) with stable fields id/text plus i%3 extra open-type
// fields, so every group mixes column hits with overflow fields.
func colTestRecord(i int) []byte {
	rec := adm.EmptyRecord(4)
	rec.Set("id", adm.NewInt(int64(i)))
	rec.Set("text", adm.NewString(fmt.Sprintf("payload %d lorem ipsum", i)))
	for j := 0; j < i%3; j++ {
		rec.Set(fmt.Sprintf("open_%d_%d", i, j), adm.NewDouble(float64(i)/3))
	}
	entry := []byte{0}
	return adm.Append(entry, adm.NewRecord(rec))
}

func colTestKey(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

// writeColumnarFixture writes n entries: mostly records, every 17th an
// opaque non-record value, every 23rd a tombstone, every 41st a
// value[0]==0 prefix followed by bytes the splitter must reject.
func writeColumnarFixture(t *testing.T, path string, n int) map[string][]byte {
	t.Helper()
	cw, err := NewColumnarComponentWriterFS(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < n; i++ {
		var entry []byte
		switch {
		case i%23 == 0:
			entry = []byte{1}
		case i%17 == 0:
			entry = append([]byte{0}, []byte(fmt.Sprintf("opaque-%d", i))...)
		case i%41 == 0:
			entry = []byte{0, byte(adm.KindRecord), 0xFF, 0xFF, 0x01}
		default:
			entry = colTestRecord(i)
		}
		if err := cw.Add(colTestKey(i), entry); err != nil {
			t.Fatal(err)
		}
		want[string(colTestKey(i))] = entry
	}
	if err := cw.Finish(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestColumnarComponentRoundTrip: every entry written into a columnar
// component must come back byte-identical through both a cursor and
// point lookups — records reassembled from their columns, opaque and
// tombstone entries straight from the overflow stream.
func TestColumnarComponentRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.cmp")
	const n = 3000 // several groups (colMaxGroupRows = 1024)
	want := writeColumnarFixture(t, path, n)

	c, err := OpenComponent(path, NewBufferCache(1<<20, 4096))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	if len(c.groups) < 2 {
		t.Fatalf("expected multiple row groups, got %d", len(c.groups))
	}
	it := componentCursor(c, nil, nil, nil)
	defer it.Close()
	seen := 0
	for it.Next() {
		w, ok := want[string(it.Key())]
		if !ok {
			t.Fatalf("unexpected key %q", it.Key())
		}
		if !bytes.Equal(it.entry(), w) {
			t.Fatalf("key %q: value %x, want %x", it.Key(), it.entry(), w)
		}
		seen++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if seen != n {
		t.Fatalf("iterated %d entries, want %d", seen, n)
	}
	for i := 0; i < n; i += 13 {
		v, ok, err := c.Get(colTestKey(i))
		if err != nil || !ok {
			t.Fatalf("Get(%q) = %v, %v", colTestKey(i), ok, err)
		}
		if !bytes.Equal(v, want[string(colTestKey(i))]) {
			t.Fatalf("Get(%q) wrong bytes", colTestKey(i))
		}
	}
	// Range iteration must behave like the row format.
	rit := componentCursor(c, colTestKey(100), colTestKey(110), nil)
	defer rit.Close()
	var got []string
	for rit.Next() {
		got = append(got, string(rit.Key()))
	}
	if rit.Err() != nil || len(got) != 10 || got[0] != string(colTestKey(100)) {
		t.Fatalf("range scan = %v (err %v)", got, rit.Err())
	}
}

// TestColumnarProjectedIterator: a projected read must deliver partial
// records holding exactly the kept fields (in record order), pass
// opaque entries and tombstones through whole, and never touch the
// unreferenced column blocks.
func TestColumnarProjectedIterator(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.cmp")
	const n = 1500
	want := writeColumnarFixture(t, path, n)

	c, err := OpenComponent(path, NewBufferCache(1<<20, 4096))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keep := map[string]bool{"id": true}
	it := componentCursor(c, nil, nil, []string{"id"})
	defer it.Close()
	seen := 0
	for it.Next() {
		w := want[string(it.Key())]
		var expect []byte
		if fields, ok := adm.SplitRecord(w[1:]); len(w) > 1 && w[0] == 0 && ok {
			kept := fields[:0:0]
			for _, f := range fields {
				if keep[string(f.Name)] {
					kept = append(kept, f)
				}
			}
			expect = adm.AppendRecordFromRaw([]byte{0}, kept)
		} else {
			expect = w // opaque or tombstone: passes through whole
		}
		if !bytes.Equal(it.entry(), expect) {
			t.Fatalf("key %q: projected value %x, want %x", it.Key(), it.entry(), expect)
		}
		seen++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if seen != n {
		t.Fatalf("projected scan saw %d entries, want %d", seen, n)
	}
}

// TestColumnarColumnCapOverflow: a group with more distinct fields than
// colMaxColumns must spill the infrequent ones to the overflow stream
// and still round-trip byte-identically.
func TestColumnarColumnCapOverflow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.cmp")
	cw, err := NewColumnarComponentWriterFS(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	const n = 200
	for i := 0; i < n; i++ {
		rec := adm.EmptyRecord(3)
		rec.Set("common", adm.NewInt(int64(i)))
		rec.Set(fmt.Sprintf("unique_%d", i), adm.NewString("x")) // n distinct names > cap
		entry := adm.Append([]byte{0}, adm.NewRecord(rec))
		if err := cw.Add(colTestKey(i), entry); err != nil {
			t.Fatal(err)
		}
		want[string(colTestKey(i))] = entry
	}
	if err := cw.Finish(); err != nil {
		t.Fatal(err)
	}
	c, err := OpenComponent(path, NewBufferCache(1<<20, 4096))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.groups) != 1 || len(c.groups[0].cols) > colMaxColumns {
		t.Fatalf("groups=%d cols=%d, want 1 group with <= %d columns",
			len(c.groups), len(c.groups[0].cols), colMaxColumns)
	}
	it := componentCursor(c, nil, nil, nil)
	defer it.Close()
	for it.Next() {
		if !bytes.Equal(it.entry(), want[string(it.Key())]) {
			t.Fatalf("key %q differs after column-cap overflow", it.Key())
		}
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	// Projecting the overflowed field must still find it.
	pit := componentCursor(c, colTestKey(50), colTestKey(51), []string{"unique_50"})
	defer pit.Close()
	if !pit.Next() {
		t.Fatalf("projected overflow-field scan empty (err %v)", pit.Err())
	}
	v, ok := adm.DecodeRecordProjected(pit.Value(), adm.NewKeepSet([]string{"unique_50"}))
	if !ok {
		t.Fatal("projected value is not a record")
	}
	if f, ok := v.Rec().Get("unique_50"); !ok || f.Str() != "x" {
		t.Fatalf("unique_50 = %v, %v", f, ok)
	}
}

// TestMixedFormatTreeIdentical: a tree that accumulated both row and
// columnar components (format flipped between restarts) must return
// exactly the same scan and point-read results as a pure row-format
// tree fed the same operations — before and after a merge rewrites
// everything columnar.
func TestMixedFormatTreeIdentical(t *testing.T) {
	dirMixed, dirRow := t.TempDir(), t.TempDir()
	cache := NewBufferCache(1<<20, 4096)

	type op struct {
		key []byte
		val []byte // nil: delete
	}
	var script [][]op // one batch per (open, flush, close) cycle
	for batch := 0; batch < 3; batch++ {
		var ops []op
		for i := 0; i < 300; i++ {
			k := colTestKey(batch*150 + i) // overlap half the previous batch
			if i%19 == 0 {
				ops = append(ops, op{key: k})
			} else {
				ops = append(ops, op{key: k, val: colTestRecord(batch*1000 + i)[1:]})
			}
		}
		script = append(script, ops)
	}

	run := func(dir string, columnarCycles map[int]bool) *LSMTree {
		for cycle, ops := range script {
			tree, err := OpenLSM(filepath.Join(dir, "t"), LSMOptions{
				Cache: cache, MemBudgetBytes: 1 << 20, Columnar: columnarCycles[cycle],
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range ops {
				if o.val == nil {
					err = tree.Delete(o.key)
				} else {
					err = tree.Put(o.key, o.val)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := tree.Close(); err != nil {
				t.Fatal(err)
			}
		}
		tree, err := OpenLSM(filepath.Join(dir, "t"), LSMOptions{
			Cache: cache, MemBudgetBytes: 1 << 20, Columnar: columnarCycles[len(script)],
		})
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}

	mixed := run(dirMixed, map[int]bool{1: true, 3: true}) // row, columnar, row; merge columnar
	row := run(dirRow, map[int]bool{})
	defer mixed.Close()
	defer row.Close()

	collect := func(tree *LSMTree, fields []string) (keys []string, vals [][]byte) {
		_, err := tree.ScanProjectedContext(context.Background(), nil, nil, fields, nil, func(k, v []byte) bool {
			keys = append(keys, string(k))
			vals = append(vals, append([]byte(nil), v...))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return
	}

	check := func(stage string) {
		mk, mv := collect(mixed, nil)
		rk, rv := collect(row, nil)
		if len(mk) != len(rk) {
			t.Fatalf("%s: mixed has %d keys, row %d", stage, len(mk), len(rk))
		}
		for i := range mk {
			if mk[i] != rk[i] || !bytes.Equal(mv[i], rv[i]) {
				t.Fatalf("%s: row %d differs: %q vs %q", stage, i, mk[i], rk[i])
			}
		}
		// Point reads agree too.
		for i := 0; i < 450; i += 7 {
			k := colTestKey(i)
			a, aok, aerr := mixed.Get(k)
			b, bok, berr := row.Get(k)
			if aerr != nil || berr != nil || aok != bok || !bytes.Equal(a, b) {
				t.Fatalf("%s: Get(%q) diverges: (%x %v %v) vs (%x %v %v)", stage, k, a, aok, aerr, b, bok, berr)
			}
		}
	}

	check("mixed components")
	snap := mixed.Snapshot()
	nComp := snap.Components()
	snap.Close()
	if nComp < 2 {
		t.Fatalf("expected >= 2 components before merge, got %d", nComp)
	}
	if err := mixed.Merge(); err != nil {
		t.Fatal(err)
	}
	check("after columnar merge")

	// Projected scans on the mixed tree must deliver the projected field
	// for every record the row tree holds.
	keep := adm.NewKeepSet([]string{"id"})
	mk, mv := collect(mixed, []string{"id"})
	rk, rv := collect(row, nil)
	if len(mk) != len(rk) {
		t.Fatalf("projected: %d keys vs %d", len(mk), len(rk))
	}
	for i := range mk {
		want, wok := adm.DecodeRecordProjected(rv[i], keep)
		got, gok := adm.DecodeRecordProjected(mv[i], keep)
		if wok != gok || (wok && got.String() != want.String()) {
			t.Fatalf("projected row %d (%s): %v/%v vs %v/%v", i, mk[i], got, gok, want, wok)
		}
	}
}

// TestFilteredScanAllocationsFlat: a filtered scan of warm columnar
// groups whose filter rejects every row builds no image and assembles no
// row, so what it allocates is opening the cursor and its walk, the same
// for two groups as for eight: under a cache that
// holds the data, and under one smaller than a group — sel_scan's shape
// — where every block read misses and goes into the walk's own buffers,
// in groups of mixed field lists and in uniform ones.
func TestFilteredScanAllocationsFlat(t *testing.T) {
	uniform := func(i int) []byte {
		rec := adm.EmptyRecord(2)
		rec.Set("id", adm.NewInt(int64(i)))
		rec.Set("text", adm.NewString(fmt.Sprintf("payload %d lorem ipsum", i)))
		return adm.Append([]byte{0}, adm.NewRecord(rec))
	}
	for _, tc := range []struct {
		name   string
		cache  int
		record func(int) []byte
	}{
		{"cache holds the data", 64 << 20, colTestRecord},
		{"cache smaller than a group", 4 << 10, colTestRecord},
		{"uniform groups, cache smaller than a group", 4 << 10, uniform},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(rows int) float64 {
				cache := NewBufferCache(tc.cache, 1<<10)
				tree := newTestLSM(t, LSMOptions{MemBudgetBytes: 1 << 30, Columnar: true, Cache: cache})
				for i := 0; i < rows; i++ {
					if err := tree.Put(colTestKey(i), tc.record(i)[1:]); err != nil {
						t.Fatal(err)
					}
				}
				if err := tree.Flush(); err != nil {
					t.Fatal(err)
				}
				filter := &RowFilter{Field: "text", Pass: func([]byte) bool { return false }}
				scan := func() {
					read, err := tree.ScanProjectedContext(nil, nil, nil, []string{"id", "text"}, filter, func(k, _ []byte) bool {
						t.Fatalf("a rejected row reached the callback: %q", k)
						return false
					})
					if err != nil || read != int64(rows) {
						t.Fatalf("filtered scan read %d of %d rows, err %v", read, rows, err)
					}
				}
				scan() // fills the cache, or the walk's buffers
				before := cache.Stats()
				n := testing.AllocsPerRun(10, scan)
				if after := cache.Stats(); tc.cache < 1<<20 && after.Streamed == before.Streamed {
					t.Errorf("no block read was streamed past a %d-byte cache", tc.cache)
				}
				return n
			}
			small, large := allocs(2*colMaxGroupRows), allocs(8*colMaxGroupRows)
			t.Logf("%v allocations over 2 groups, %v over 8", small, large)
			if large > small {
				t.Errorf("a scan rejecting every row allocates %v over 8 groups and %v over 2: it grows with the rows", large, small)
			}
		})
	}
}

// TestFilteredScanOfSmallComponentCaches: a component smaller than the
// cache does not stream. Scanned while the cache is full of other
// regions, its blocks are cached and evict them, so a second scan reads
// nothing from the file; a component larger than the cache streams.
func TestFilteredScanOfSmallComponentCaches(t *testing.T) {
	const capacity = 64 << 10
	for _, tc := range []struct {
		rows    int
		streams bool
	}{{200, false}, {4 * colMaxGroupRows, true}} {
		cache := NewBufferCache(capacity, 1<<10)
		tree := newTestLSM(t, LSMOptions{MemBudgetBytes: 1 << 30, Columnar: true, Cache: cache})
		for i := 0; i < tc.rows; i++ {
			if err := tree.Put(colTestKey(i), colTestRecord(i)[1:]); err != nil {
				t.Fatal(err)
			}
		}
		if err := tree.Flush(); err != nil {
			t.Fatal(err)
		}
		// Fill the cache with the regions of another file.
		path := filepath.Join(t.TempDir(), "other")
		if err := os.WriteFile(path, make([]byte, 2*capacity), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		other := NewFileID()
		for i := 0; i < 2*capacity>>10; i++ {
			if _, err := cache.ReadRegion(other, f, uint32(i), int64(i)<<10, 1<<10); err != nil {
				t.Fatal(err)
			}
		}
		if st := cache.Stats(); st.Resident != capacity {
			t.Fatalf("the other file left %d resident bytes, want %d", st.Resident, capacity)
		}
		filter := &RowFilter{Field: "text", Pass: func(v []byte) bool { return len(v)%2 == 0 }}
		scan := func() CacheStats {
			before := cache.Stats()
			read, err := tree.ScanProjectedContext(nil, nil, nil, []string{"id", "text"}, filter, func(k, _ []byte) bool { return true })
			if err != nil || read != int64(tc.rows) {
				t.Fatalf("filtered scan read %d of %d rows, err %v", read, tc.rows, err)
			}
			after := cache.Stats()
			return CacheStats{Misses: after.Misses - before.Misses, Streamed: after.Streamed - before.Streamed}
		}
		first, second := scan(), scan()
		t.Logf("%d rows: first scan %+v, second %+v", tc.rows, first, second)
		if tc.streams {
			if second.Streamed == 0 {
				t.Errorf("%d rows, larger than the cache: the second scan streamed nothing", tc.rows)
			}
			continue
		}
		if first.Misses == 0 || first.Streamed != 0 {
			t.Errorf("%d rows: the first scan missed %d and streamed %d blocks, want misses and no streaming", tc.rows, first.Misses, first.Streamed)
		}
		if second.Misses != 0 {
			t.Errorf("%d rows, smaller than the cache: the second scan missed %d blocks, want every block cached", tc.rows, second.Misses)
		}
	}
}
