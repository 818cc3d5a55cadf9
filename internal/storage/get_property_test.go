package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"simdb/internal/adm"
)

// getViews are the three ways a component answers a point read: a
// version-1 row page (walked), a materialized columnar group
// (binary-searched through its offset table), and a projected columnar
// group (the same, over the partial image).
var getViews = []struct {
	name     string
	columnar bool
	fields   []string
}{
	{"row", false, nil},
	{"columnar-full", true, nil},
	// "text" is a column; the open_* names are the group's rare fields.
	{"columnar-projected", true, []string{"text", "open_7_0", "open_8_1"}},
}

// propertyEntries draws a sorted run of n distinct keys with values of
// every entry kind. The keys all start with a letter in b..y and come
// in prefix families (k, k+"a", k+"a\x00", …), so neighbours in the run
// are frequently prefixes of each other.
func propertyEntries(r *rand.Rand, n int) (keys [][]byte, vals map[string][]byte) {
	vals = make(map[string][]byte, n)
	for len(vals) < n {
		k := []byte{byte('b' + r.Intn(24))}
		for depth := 1 + r.Intn(6); depth > 0 && len(vals) < n; depth-- {
			k = append(k, []byte{'a', 0, 'z', 0xFF}[r.Intn(4)])
			if r.Intn(3) == 0 {
				k = append(k, fmt.Sprintf("%03d", r.Intn(1000))...)
			}
			if _, dup := vals[string(k)]; dup {
				continue
			}
			i := len(vals)
			var entry []byte
			switch {
			case i%11 == 3:
				entry = []byte{1} // tombstone
			case i%13 == 5:
				entry = append([]byte{0}, fmt.Sprintf("opaque-%d", i)...)
			default:
				entry = colTestRecord(i)
			}
			vals[string(k)] = entry
		}
	}
	for k := range vals {
		keys = append(keys, []byte(k))
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	return keys, vals
}

// TestGetMatchesScanProperty: on every view, a point read of a stored
// key returns exactly the bytes the scan under the same view yields for
// it (tombstones included — they are entries at this level), and a
// point read of an absent key — below the first fence, just past the
// last key of a page or group, just before the first key of the next,
// above the last key, or a prefix or extension of a stored key — finds
// nothing. Run sizes cover a 1-row component, one full 1024-row group,
// and a full group followed by a 1-row group.
func TestGetMatchesScanProperty(t *testing.T) {
	sizes := []int{1, 2, colMaxGroupRows, colMaxGroupRows + 1}
	check := func(seed int64, n int) bool {
		r := rand.New(rand.NewSource(seed))
		if n == 0 {
			n = 1 + r.Intn(2*colMaxGroupRows+200)
		}
		keys, vals := propertyEntries(r, n)
		for _, view := range getViews {
			c := openTestComponent(t, view.columnar, keys, func(i int) []byte { return vals[string(keys[i])] })
			ok := getMatchesScan(t, c, view.fields, keys, vals, fmt.Sprintf("seed %d n %d %s", seed, n, view.name))
			c.Close()
			if !ok {
				return false
			}
		}
		return true
	}
	for seed, n := range sizes {
		if !check(int64(seed), n) {
			t.Fatalf("fixed size %d failed", n)
		}
	}
	random := func(seed int64) bool { return check(seed, 0) }
	if err := quick.Check(random, &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// openTestComponent writes keys (sorted) with their values into a
// component of the given format and opens it with the bloom filter
// saturated, so that reads of absent keys search a page instead of
// stopping at the filter. The caller closes it.
func openTestComponent(tb testing.TB, columnar bool, keys [][]byte, val func(i int) []byte) *Component {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "c.cmp")
	var cw componentSink
	var err error
	if columnar {
		cw, err = NewColumnarComponentWriterFS(OS, path)
	} else {
		cw, err = NewComponentWriterFS(OS, path, 4096)
	}
	if err != nil {
		tb.Fatal(err)
	}
	for i, k := range keys {
		if err := cw.Add(k, val(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := cw.Finish(); err != nil {
		tb.Fatal(err)
	}
	c, err := OpenComponent(path, NewBufferCache(8<<20, 4096))
	if err != nil {
		tb.Fatal(err)
	}
	for i := range c.bloom.bits {
		c.bloom.bits[i] = 0xFF
	}
	return c
}

func getMatchesScan(t *testing.T, c *Component, fields []string, keys [][]byte, vals map[string][]byte, what string) bool {
	t.Helper()
	proj := NewProjection(fields)
	scanned := make(map[string][]byte, len(keys))
	it := componentCursor(c, nil, nil, fields)
	defer it.Close()
	for it.Next() {
		scanned[string(it.Key())] = append([]byte(nil), it.entry()...)
	}
	if it.Err() != nil || len(scanned) != len(keys) {
		t.Logf("%s: scan saw %d of %d entries (err %v)", what, len(scanned), len(keys), it.Err())
		return false
	}
	for _, k := range keys {
		// Against what was written, not against the other reader: whole
		// entries byte for byte, projected ones in their kept fields.
		if got, want := scanned[string(k)], vals[string(k)]; got[0] != want[0] || !sameUnder(fields, got[1:], want[1:]) {
			t.Logf("%s: scan of %q differs from what was written", what, k)
			return false
		}
		v, found, err := c.GetProjected(k, proj)
		if err != nil || !found || !bytes.Equal(v, scanned[string(k)]) {
			t.Logf("%s: Get(%q) = %x, %v, %v; scan has %x", what, k, v, found, err, scanned[string(k)])
			return false
		}
	}
	absent := [][]byte{[]byte("a"), []byte("a\xff"), []byte("z"), {}}
	for _, k := range keys {
		absent = append(absent, append(append([]byte(nil), k...), 0), k[:len(k)-1])
	}
	for i, p := range c.pages {
		// Just before a page's or group's first key: sorts into the page
		// before it (or below the first fence).
		if fk := p.firstKey; fk[len(fk)-1] > 0 {
			absent = append(absent, append(append([]byte(nil), fk[:len(fk)-1]...), fk[len(fk)-1]-1, 0xFF))
		}
		if i > 0 { // just past the last key of the page before
			last := keys[sort.Search(len(keys), func(j int) bool { return bytes.Compare(keys[j], p.firstKey) >= 0 })-1]
			absent = append(absent, append(append([]byte(nil), last...), 0, 0))
		}
	}
	for _, k := range absent {
		if _, stored := vals[string(k)]; stored {
			continue
		}
		if v, found, err := c.GetProjected(k, proj); err != nil || found {
			t.Logf("%s: Get of absent %q = %x, %v, %v", what, k, v, found, err)
			return false
		}
	}
	return true
}

// TestSnapshotGetProjectedMatchesScan is the same property one level
// up: over a tree with several columnar components, shadowed versions,
// deletes and unflushed memtable entries, GetProjected on a snapshot
// returns for every key what ScanProjected on that snapshot yields, and
// nothing for deleted or never-written keys.
func TestSnapshotGetProjectedMatchesScan(t *testing.T) {
	tree := newTestLSM(t, LSMOptions{Columnar: true, MemBudgetBytes: 1 << 20, MaxComponents: 8})
	const n = 1500
	for round := 0; round < 3; round++ {
		for i := round; i < n; i += round + 1 {
			key := colTestKey(i)
			if (i+round)%7 == 0 {
				if err := tree.Delete(key); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := tree.Put(key, colTestRecord(i + round)[1:]); err != nil {
				t.Fatal(err)
			}
		}
		if round < 2 { // the last round stays in the memtable
			if err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := tree.Snapshot()
	defer snap.Close()
	if snap.Components() < 2 {
		t.Fatalf("snapshot has %d components, want several", snap.Components())
	}
	for _, fields := range [][]string{nil, {"id"}, {"text", "open_10_1"}, {}} {
		proj := NewProjection(fields)
		scanned := map[string][]byte{}
		_, err := snap.ScanProjected(nil, nil, nil, fields, nil, func(k, v []byte) bool {
			scanned[string(k)] = append([]byte(nil), v...)
			return true
		})
		if err != nil || len(scanned) == 0 {
			t.Fatalf("fields %v: scan saw %d entries, err %v", fields, len(scanned), err)
		}
		for i := -1; i <= n; i++ {
			key := colTestKey(i)
			v, found, err := snap.GetProjected(key, proj)
			want, live := scanned[string(key)]
			if err != nil || found != live || !bytes.Equal(v, want) {
				t.Fatalf("fields %v: GetProjected(%q) = %x, %v, %v; scan has %x, %v", fields, key, v, found, err, want, live)
			}
			// Whatever the source — memtable, full or partial image — the
			// projected decode sees the same kept fields.
			if live && fields != nil {
				keep := adm.NewKeepSet(fields)
				got, ok1 := adm.DecodeRecordProjected(v, keep)
				full, _, _ := tree.Get(key)
				ref, ok2 := adm.DecodeRecordProjected(full, keep)
				if !ok1 || !ok2 || !bytes.Equal(adm.Encode(got), adm.Encode(ref)) {
					t.Fatalf("fields %v: key %q projects to %v, the whole record to %v", fields, key, got, ref)
				}
			}
		}
	}
}
