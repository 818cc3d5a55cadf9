package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"simdb/internal/adm"
)

func TestBloomBasics(t *testing.T) {
	b := NewBloomBuilder(100)
	keys := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	for _, k := range keys {
		b.Add(k)
	}
	for _, k := range keys {
		if !b.MayContain(k) {
			t.Errorf("bloom false negative for %q", k)
		}
	}
	// Round trip.
	b2, err := unmarshalBloom(b.marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !b2.MayContain(k) {
			t.Errorf("unmarshaled bloom false negative for %q", k)
		}
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	const n = 5000
	b := NewBloomBuilder(n)
	for i := 0; i < n; i++ {
		b.Add([]byte(fmt.Sprintf("key-%d", i)))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if b.MayContain([]byte(fmt.Sprintf("absent-%d", i))) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Errorf("bloom false positive rate %.3f too high", rate)
	}
}

func TestBloomUnmarshalErrors(t *testing.T) {
	if _, err := unmarshalBloom([]byte{1, 2}); err == nil {
		t.Error("short buffer should fail")
	}
	if _, err := unmarshalBloom([]byte{7, 0, 0, 0, 255, 0, 0, 0}); err == nil {
		t.Error("truncated bits should fail")
	}
}

func TestBufferCacheLRUAndStats(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	cache := NewBufferCache(4*256, 256) // 4 pages
	id := NewFileID()
	for i := 0; i < 4; i++ {
		if _, err := cache.ReadRegion(id, f, uint32(i), int64(i)*256, 256); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Misses != 4 || st.Hits != 0 {
		t.Errorf("stats after cold reads: %+v", st)
	}
	// Re-read: all hits.
	for i := 0; i < 4; i++ {
		got, err := cache.ReadRegion(id, f, uint32(i), int64(i)*256, 256)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[i*256:(i+1)*256]) {
			t.Errorf("page %d content mismatch", i)
		}
	}
	if st := cache.Stats(); st.Hits != 4 {
		t.Errorf("expected 4 hits, got %+v", st)
	}
	// Evict and confirm misses again.
	cache.Evict(id)
	if _, err := cache.ReadRegion(id, f, 0, 0, 256); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 5 {
		t.Errorf("expected 5 misses after evict, got %+v", st)
	}
}

// cacheBytes returns the cache's resident count and, summed over what
// it holds, the capacity of the cached slices.
func cacheBytes(cache *BufferCache) (resident, sum int) {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	for el := cache.lru.Front(); el != nil; el = el.Next() {
		sum += cap(el.Value.(*cacheEntry).data)
	}
	return cache.resident, sum
}

// TestBufferCacheChargesBytes: the cache charges an entry the memory it
// holds — its slice's capacity — not a page. Under a random mix of
// column-block, page and group-image sizes, half of them built with
// spare capacity, the resident bytes are the sum of what is cached and
// never exceed the capacity by more than the largest single entry; a
// thousand small blocks that fit in the capacity all stay resident,
// where one slot per page would keep sixteen; Evict returns their bytes.
func TestBufferCacheChargesBytes(t *testing.T) {
	const capacity, pageSize = 512 << 10, 32 << 10
	cache := NewBufferCache(capacity, pageSize)
	r := rand.New(rand.NewSource(33))
	id := NewFileID()
	largest := 0
	for i := 0; i < 3000; i++ {
		var n int
		switch r.Intn(3) {
		case 0:
			n = 3 + r.Intn(60) // a short column block
		case 1:
			n = 1 + r.Intn(40<<10) // a block or a row page
		default:
			n = 60<<10 + r.Intn(200<<10) // a group image
		}
		spare := [...]int{0, r.Intn(n + 1)}[r.Intn(2)]
		largest = max(largest, n+spare)
		tag := [...]string{"", "p:id"}[r.Intn(2)]
		if _, err := cache.ReadBuiltTagged(id, uint32(r.Intn(500)), tag, func() ([]byte, error) { return make([]byte, n, n+spare), nil }); err != nil {
			t.Fatal(err)
		}
		if resident, sum := cacheBytes(cache); resident != sum || resident > capacity+largest {
			t.Fatalf("after %d reads: resident %d, cached %d, capacity %d + largest %d", i+1, resident, sum, capacity, largest)
		}
	}
	cache.Evict(id)
	if resident, _ := cacheBytes(cache); resident != 0 {
		t.Fatalf("resident %d after evicting the only file", resident)
	}

	blocks := NewFileID()
	read := func() {
		for i := 0; i < 1000; i++ {
			if _, err := cache.ReadBuilt(blocks, uint32(i), func() ([]byte, error) { return make([]byte, 100), nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	read()
	before := cache.Stats()
	read()
	if hits := cache.Stats().Hits - before.Hits; hits != 1000 {
		t.Errorf("second pass over 1000 blocks of 100 bytes in a %d-byte cache: %d hits, want 1000", capacity, hits)
	}
}

// TestGroupImageSizedFromBlocks: a group image is allocated for what it
// holds, whole or projected to three of eight fields — its capacity is
// at most a quarter above its length — and the buffer cache charges
// exactly the capacity of the images and blocks it holds.
func TestGroupImageSizedFromBlocks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.cmp")
	cw, err := NewColumnarComponentWriterFS(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		rec := adm.EmptyRecord(8)
		rec.Set("id", adm.NewInt(int64(i)))
		rec.Set("reviewerID", adm.NewString(fmt.Sprintf("A%013d", i*7919)))
		rec.Set("reviewerName", adm.NewString(fmt.Sprintf("reviewer %d", i%97)))
		rec.Set("helpful", adm.NewInt(int64(i%5)))
		rec.Set("reviewText", adm.NewString(strings.Repeat(fmt.Sprintf("text %d ", i), 1+i%60)))
		rec.Set("overall", adm.NewDouble(float64(i%5)))
		rec.Set("summary", adm.NewString(fmt.Sprintf("great product %d", i)))
		rec.Set("unixReviewTime", adm.NewInt(1400000000+int64(i)))
		if err := cw.Add(colTestKey(i), adm.Append([]byte{0}, adm.NewRecord(rec))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Finish(); err != nil {
		t.Fatal(err)
	}
	cache := NewBufferCache(64<<20, 4096)
	c, err := OpenComponent(path, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.groups) != 1 {
		t.Fatalf("%d groups, want 1", len(c.groups))
	}
	for _, proj := range []*Projection{nil, NewProjection([]string{"id", "reviewerName", "summary"})} {
		image, err := c.readPageView(0, proj)
		if err != nil {
			t.Fatal(err)
		}
		if cap(image) > len(image)+len(image)/4 {
			t.Errorf("projection %v: image of %d bytes holds %d", proj, len(image), cap(image))
		}
	}
	if resident, sum := cacheBytes(cache); resident != sum {
		t.Errorf("cache charges %d bytes for slices holding %d", resident, sum)
	}
}

func TestComponentWriteReadGet(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c1.cmp")
	cw, err := NewComponentWriter(path, 64) // tiny pages to force many
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		v := []byte(fmt.Sprintf("value-%d", i*3))
		if err := cw.Add(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Finish(); err != nil {
		t.Fatal(err)
	}

	cache := NewBufferCache(1<<20, 64)
	c, err := OpenComponent(path, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != n {
		t.Errorf("Len = %d, want %d", c.Len(), n)
	}
	for i := 0; i < n; i += 7 {
		k := []byte(fmt.Sprintf("key-%05d", i))
		v, ok, err := c.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%q) = %v, %v", k, ok, err)
		}
		if want := fmt.Sprintf("value-%d", i*3); string(v) != want {
			t.Errorf("Get(%q) = %q, want %q", k, v, want)
		}
	}
	if _, ok, _ := c.Get([]byte("key-99999")); ok {
		t.Error("absent key reported present")
	}
	if _, ok, _ := c.Get([]byte("aaa")); ok {
		t.Error("key before first page reported present")
	}
}

func TestComponentKeysOutOfOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.cmp")
	cw, err := NewComponentWriter(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Add([]byte("b"), nil); err != nil {
		t.Fatal(err)
	}
	if err := cw.Add([]byte("a"), nil); err == nil {
		t.Fatal("out-of-order Add should fail")
	}
	cw.Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("Abort should remove the file")
	}
}

func TestComponentIterator(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.cmp")
	cw, _ := NewComponentWriter(path, 64)
	var want []string
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%04d", i)
		want = append(want, k)
		if err := cw.Add([]byte(k), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Finish(); err != nil {
		t.Fatal(err)
	}
	c, err := OpenComponent(path, NewBufferCache(1<<20, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	collect := func(start, end []byte) []string {
		var got []string
		it := componentCursor(c, start, end, nil)
		defer it.Close()
		for it.Next() {
			got = append(got, string(it.Key()))
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		return got
	}
	if got := collect(nil, nil); len(got) != 200 || got[0] != "k0000" || got[199] != "k0199" {
		t.Errorf("full scan wrong: %d entries", len(got))
	}
	got := collect([]byte("k0050"), []byte("k0060"))
	if len(got) != 10 || got[0] != "k0050" || got[9] != "k0059" {
		t.Errorf("range scan = %v", got)
	}
	// Start between keys.
	got = collect([]byte("k0050x"), []byte("k0053"))
	if len(got) != 2 || got[0] != "k0051" {
		t.Errorf("between-keys scan = %v", got)
	}
	// Start past the end.
	if got := collect([]byte("zzz"), nil); len(got) != 0 {
		t.Errorf("past-end scan = %v", got)
	}
}

func TestOpenComponentCorrupt(t *testing.T) {
	dir := t.TempDir()
	cache := NewBufferCache(1<<20, 64)
	// Too short.
	short := filepath.Join(dir, "short.cmp")
	os.WriteFile(short, []byte("tiny"), 0o644)
	if _, err := OpenComponent(short, cache); err == nil {
		t.Error("short file should fail to open")
	}
	// Bad magic.
	bad := filepath.Join(dir, "bad.cmp")
	os.WriteFile(bad, make([]byte, 100), 0o644)
	if _, err := OpenComponent(bad, cache); err == nil {
		t.Error("bad magic should fail to open")
	}
	// Valid component then truncated tail.
	good := filepath.Join(dir, "good.cmp")
	cw, _ := NewComponentWriter(good, 64)
	cw.Add([]byte("a"), []byte("1"))
	cw.Finish()
	data, _ := os.ReadFile(good)
	os.WriteFile(bad, data[:len(data)-5], 0o644)
	if _, err := OpenComponent(bad, cache); err == nil {
		t.Error("truncated file should fail to open")
	}
}

func newTestLSM(t *testing.T, opts LSMOptions) *LSMTree {
	t.Helper()
	tree, err := OpenLSM(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tree.Close() })
	return tree
}

func TestLSMPutGetDelete(t *testing.T) {
	tree := newTestLSM(t, LSMOptions{})
	if err := tree.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := tree.Get([]byte("a")); !ok || string(v) != "1" {
		t.Errorf("Get(a) = %q, %v", v, ok)
	}
	if _, ok, _ := tree.Get([]byte("b")); ok {
		t.Error("Get(b) should miss")
	}
	tree.Put([]byte("a"), []byte("2"))
	if v, _, _ := tree.Get([]byte("a")); string(v) != "2" {
		t.Error("overwrite not visible")
	}
	tree.Delete([]byte("a"))
	if _, ok, _ := tree.Get([]byte("a")); ok {
		t.Error("deleted key visible")
	}
}

func TestLSMFlushAndShadowing(t *testing.T) {
	tree := newTestLSM(t, LSMOptions{})
	tree.Put([]byte("k"), []byte("old"))
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := tree.Stats(); s.DiskComponents != 1 || s.MemEntries != 0 {
		t.Errorf("after flush: %+v", s)
	}
	// New version in memtable shadows disk.
	tree.Put([]byte("k"), []byte("new"))
	if v, _, _ := tree.Get([]byte("k")); string(v) != "new" {
		t.Error("memtable should shadow disk")
	}
	// Flush again: two components, newest wins.
	tree.Flush()
	if v, _, _ := tree.Get([]byte("k")); string(v) != "new" {
		t.Error("newest component should win")
	}
	// Tombstone over disk data.
	tree.Delete([]byte("k"))
	tree.Flush()
	if _, ok, _ := tree.Get([]byte("k")); ok {
		t.Error("flushed tombstone should hide key")
	}
	// Merge drops tombstones.
	if err := tree.Merge(); err != nil {
		t.Fatal(err)
	}
	if s := tree.Stats(); s.DiskComponents != 1 || s.DiskEntries != 0 {
		t.Errorf("after merge: %+v", s)
	}
}

func TestLSMScanMergesAllSources(t *testing.T) {
	tree := newTestLSM(t, LSMOptions{})
	tree.Put([]byte("a"), []byte("1"))
	tree.Put([]byte("c"), []byte("3"))
	tree.Flush()
	tree.Put([]byte("b"), []byte("2"))
	tree.Put([]byte("c"), []byte("3x")) // shadows disk
	tree.Put([]byte("d"), []byte("4"))
	tree.Delete([]byte("a")) // tombstone over disk

	var keys, vals []string
	err := tree.Scan(nil, nil, func(k, v []byte) bool {
		keys = append(keys, string(k))
		vals = append(vals, string(v))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	wantK := []string{"b", "c", "d"}
	wantV := []string{"2", "3x", "4"}
	if fmt.Sprint(keys) != fmt.Sprint(wantK) || fmt.Sprint(vals) != fmt.Sprint(wantV) {
		t.Errorf("scan = %v %v, want %v %v", keys, vals, wantK, wantV)
	}

	// Early stop.
	count := 0
	tree.Scan(nil, nil, func(k, v []byte) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop scanned %d", count)
	}

	// Range limits.
	keys = nil
	tree.Scan([]byte("b"), []byte("d"), func(k, v []byte) bool { keys = append(keys, string(k)); return true })
	if fmt.Sprint(keys) != fmt.Sprint([]string{"b", "c"}) {
		t.Errorf("range scan = %v", keys)
	}
}

func TestLSMAutoFlushAndMerge(t *testing.T) {
	tree := newTestLSM(t, LSMOptions{MemBudgetBytes: 512, MaxComponents: 3})
	for i := 0; i < 400; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		if err := tree.Put(k, bytes.Repeat([]byte("v"), 20)); err != nil {
			t.Fatal(err)
		}
	}
	// Flush and merge now run on the background maintenance scheduler;
	// quiesce so the tree's shape is deterministic before asserting.
	if err := tree.Quiesce(); err != nil {
		t.Fatal(err)
	}
	s := tree.Stats()
	if s.DiskComponents == 0 {
		t.Fatal("expected automatic flushes")
	}
	if s.DiskComponents > 4 {
		t.Errorf("compaction should bound components, have %d", s.DiskComponents)
	}
	// All data still visible.
	for i := 0; i < 400; i += 37 {
		k := []byte(fmt.Sprintf("key-%04d", i))
		if _, ok, err := tree.Get(k); !ok || err != nil {
			t.Errorf("Get(%q) = %v, %v", k, ok, err)
		}
	}
}

func TestLSMRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := LSMOptions{}
	tree, err := OpenLSM(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tree.Put([]byte("p"), []byte("1"))
	tree.Flush()
	tree.Put([]byte("q"), []byte("2"))
	tree.Flush()
	tree.Delete([]byte("p"))
	if err := tree.Close(); err != nil { // Close flushes
		t.Fatal(err)
	}

	re, err := OpenLSM(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok, _ := re.Get([]byte("p")); ok {
		t.Error("tombstone lost on recovery")
	}
	if v, ok, _ := re.Get([]byte("q")); !ok || string(v) != "2" {
		t.Error("value lost on recovery")
	}
}

func TestLSMBulkLoad(t *testing.T) {
	tree := newTestLSM(t, LSMOptions{})
	i := 0
	err := tree.BulkLoad(func() ([]byte, []byte, bool, error) {
		if i >= 100 {
			return nil, nil, false, nil
		}
		k := []byte(fmt.Sprintf("k%03d", i))
		v := []byte(fmt.Sprintf("v%d", i))
		i++
		return k, v, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := tree.Get([]byte("k042")); !ok || string(v) != "v42" {
		t.Errorf("bulk-loaded value missing")
	}
	if s := tree.Stats(); s.DiskComponents != 1 || s.DiskEntries != 100 {
		t.Errorf("stats after bulk load: %+v", s)
	}
	// Bulk load into non-empty tree fails.
	err = tree.BulkLoad(func() ([]byte, []byte, bool, error) { return nil, nil, false, nil })
	if err == nil {
		t.Error("bulk load into non-empty tree should fail")
	}
}

func TestLSMModelCheckProperty(t *testing.T) {
	// Random workload vs a map model, with random flush/merge points.
	tree := newTestLSM(t, LSMOptions{MemBudgetBytes: 256, MaxComponents: 2})
	model := map[string]string{}
	r := rand.New(rand.NewSource(42))
	keyOf := func() string { return fmt.Sprintf("k%02d", r.Intn(50)) }
	for step := 0; step < 2000; step++ {
		switch r.Intn(10) {
		case 0:
			if err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := tree.Merge(); err != nil {
				t.Fatal(err)
			}
		case 2, 3:
			k := keyOf()
			delete(model, k)
			if err := tree.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
		default:
			k, v := keyOf(), fmt.Sprintf("v%d", step)
			model[k] = v
			if err := tree.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		if step%97 == 0 {
			// Point-check a few keys.
			for i := 0; i < 5; i++ {
				k := keyOf()
				v, ok, err := tree.Get([]byte(k))
				if err != nil {
					t.Fatal(err)
				}
				want, wantOK := model[k]
				if ok != wantOK || (ok && string(v) != want) {
					t.Fatalf("step %d: Get(%s) = (%q, %v), model (%q, %v)", step, k, v, ok, want, wantOK)
				}
			}
		}
	}
	// Final full-scan equivalence.
	got := map[string]string{}
	var prev string
	err := tree.Scan(nil, nil, func(k, v []byte) bool {
		if prev != "" && string(k) <= prev {
			t.Fatalf("scan not strictly ordered: %q after %q", k, prev)
		}
		prev = string(k)
		got[string(k)] = string(v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(model) {
		t.Fatalf("scan found %d keys, model has %d", len(got), len(model))
	}
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != model[k] {
			t.Errorf("key %s: scan %q, model %q", k, got[k], model[k])
		}
	}
}

func TestLSMLargeValuesSpanPages(t *testing.T) {
	tree := newTestLSM(t, LSMOptions{PageSize: 128})
	big := bytes.Repeat([]byte("x"), 1000) // far larger than a page
	tree.Put([]byte("big"), big)
	tree.Put([]byte("small"), []byte("s"))
	tree.Flush()
	if v, ok, _ := tree.Get([]byte("big")); !ok || !bytes.Equal(v, big) {
		t.Error("oversized value corrupted")
	}
	if v, ok, _ := tree.Get([]byte("small")); !ok || string(v) != "s" {
		t.Error("neighbor of oversized value lost")
	}
}
