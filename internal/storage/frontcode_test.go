package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// refImages encodes entries the way the version-1 writer laid them out,
// written here from the format alone: a page is cut before the entry
// that would take its uint16 count and packed entries (uvarint key
// length, key, uvarint value length, value) past pageSize, and an entry
// larger than a page gets a page of its own. It returns each page's
// image, the page followed by one little-endian uint32 per entry giving
// its offset, and each page's first key.
func refImages(entries [][2][]byte, pageSize int) (images, firstKeys [][]byte) {
	var page []byte
	var offs []uint32
	cut := func() {
		if len(offs) == 0 {
			return
		}
		binary.LittleEndian.PutUint16(page, uint16(len(offs)))
		for _, o := range offs {
			page = binary.LittleEndian.AppendUint32(page, o)
		}
		images = append(images, page)
		page, offs = nil, nil
	}
	for _, e := range entries {
		var ent []byte
		ent = binary.AppendUvarint(ent, uint64(len(e[0])))
		ent = append(ent, e[0]...)
		ent = binary.AppendUvarint(ent, uint64(len(e[1])))
		ent = append(ent, e[1]...)
		if len(offs) > 0 && len(page)+len(ent) > pageSize {
			cut()
		}
		if len(offs) == 0 {
			page = []byte{0, 0}
			firstKeys = append(firstKeys, e[0])
		}
		offs = append(offs, uint32(len(page)))
		page = append(page, ent...)
	}
	cut()
	return images, firstKeys
}

// refImage is the image of one page holding entries.
func refImage(entries [][2][]byte) []byte {
	if len(entries) == 0 {
		return []byte{0, 0}
	}
	images, _ := refImages(entries, 1<<62)
	return images[0]
}

// writeRowComponent writes entries with the row writer at pageSize and
// opens the result.
func writeRowComponent(t testing.TB, entries [][2][]byte, pageSize int) *Component {
	t.Helper()
	path := filepath.Join(t.TempDir(), fmt.Sprintf("p%d.cmp", pageSize))
	cw, err := NewComponentWriter(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := cw.Add(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Finish(); err != nil {
		t.Fatal(err)
	}
	c, err := OpenComponent(path, NewBufferCache(1<<20, pageSize))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// checkImages compares every page image c builds, and every page's first
// key, with refImages at pageSize.
func checkImages(t *testing.T, c *Component, entries [][2][]byte, pageSize int) {
	t.Helper()
	want, firstKeys := refImages(entries, pageSize)
	if len(c.pages) != len(want) {
		t.Fatalf("page size %d: %d pages, version 1 cuts %d", pageSize, len(c.pages), len(want))
	}
	for i := range want {
		img, err := c.buildRowPage(i)
		if err != nil {
			t.Fatalf("page size %d, page %d: %v", pageSize, i, err)
		}
		if !bytes.Equal(img, want[i]) || !bytes.Equal(c.pages[i].firstKey, firstKeys[i]) {
			t.Fatalf("page size %d, page %d: image\n%x\nwant\n%x", pageSize, i, img, want[i])
		}
		if cap(img) != len(img) {
			t.Fatalf("page size %d, page %d: image of %d bytes holds %d", pageSize, i, len(img), cap(img))
		}
	}
}

// randomEntries returns sorted, distinct entries drawn to hit what the
// front coding treats specially: long shared prefixes, keys ending in
// zero bytes (an ordered float64 primary key ends in five), a key that is
// a prefix of the next, long middles, tombstones, empty values, live
// flags with and without a payload, other values, and values larger than
// any page.
func randomEntries(r *rand.Rand, n int) [][2][]byte {
	long := bytes.Repeat([]byte("shared-prefix/"), 12)
	seen := map[string]bool{}
	var entries [][2][]byte
	for len(entries) < n {
		var key []byte
		switch r.Intn(6) {
		case 0: // a posting: token, separator, an ordered primary key
			key = append([]byte(fmt.Sprintf("tok%d", r.Intn(8))), 0)
			key = binary.BigEndian.AppendUint64(key, uint64(r.Intn(300))<<40)
		case 1: // a long shared prefix
			key = append(slices.Clone(long), byte(r.Intn(4)), byte(r.Intn(256)))
		case 2: // a prefix of other keys, and keys of many zero bytes
			key = make([]byte, r.Intn(12))
		case 3: // a long middle
			key = make([]byte, 8+r.Intn(40))
			r.Read(key)
		default:
			key = []byte{byte('a' + r.Intn(3)), byte(r.Intn(3)), byte(r.Intn(2))}[:1+r.Intn(3)]
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		var val []byte
		switch r.Intn(8) {
		case 0:
			val = []byte{1}
		case 1:
			val = []byte{}
		case 2:
			val = append([]byte{0}, bytes.Repeat([]byte{'v'}, 1+r.Intn(20))...)
		case 3:
			val = []byte{byte(2 + r.Intn(250)), 7}
		case 4:
			if r.Intn(10) == 0 {
				val = append([]byte{0}, bytes.Repeat([]byte{'w'}, 600)...)
				break
			}
			fallthrough
		default:
			val = []byte{0}
		}
		entries = append(entries, [2][]byte{key, val})
	}
	sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i][0], entries[j][0]) < 0 })
	return entries
}

// TestFrontCodedImagesMatchVersionOne: a component written by the row
// writer decodes, page by page, into exactly the images the version-1
// layout of the same entries has, with the pages cut at the same entries
// — at page sizes from one entry a page to hundreds.
func TestFrontCodedImagesMatchVersionOne(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for round := 0; round < 20; round++ {
		entries := randomEntries(r, 1+r.Intn(400))
		for _, pageSize := range []int{1, 24, 100, 512, 4096} {
			c := writeRowComponent(t, entries, pageSize)
			if c.version != componentVersionFrontCoded {
				t.Fatalf("the row writer wrote version %d", c.version)
			}
			checkImages(t, c, entries, pageSize)
		}
	}
}

// rowFixtureEntries are the entries of testdata/rowv1.cmp, a version-1
// component written by the version-1 row writer at a 256-byte page size:
// sixteen postings of each of fifteen tokens, primary keys ending in five
// zero bytes, every eleventh a tombstone, some with a payload or an
// empty value.
func rowFixtureEntries() [][2][]byte {
	var entries [][2][]byte
	for i := 0; i < 240; i++ {
		key := append([]byte(fmt.Sprintf("tok%02d", i/16)), 0)
		key = binary.BigEndian.AppendUint64(key, uint64(i%16+1)<<40)
		var val []byte
		switch {
		case i%11 == 0:
			val = []byte{1}
		case i%7 == 0:
			val = append([]byte{0}, fmt.Sprintf("payload %d", i)...)
		case i%13 == 0:
			val = []byte{}
		default:
			val = []byte{0}
		}
		entries = append(entries, [2][]byte{key, val})
	}
	return entries
}

// TestVersionOneComponentReads: a version-1 component, as stores written
// before the front-coded format hold them, still opens and reads: every
// page image is the one its entries make, a cursor yields the entries
// and point reads find them through its bloom filter. Rewriting it — what
// a merge does — writes version 3, with the same pages and
// byte-identical images, and no filter: point reads still find every
// entry through the fence keys.
func TestVersionOneComponentReads(t *testing.T) {
	entries := rowFixtureEntries()
	c, err := OpenComponent(filepath.Join("testdata", "rowv1.cmp"), NewBufferCache(1<<20, 256))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.version != componentVersionRow || len(c.pages) < 5 || c.bloom == nil {
		t.Fatalf("fixture: version %d, %d pages, filter %v; want version 1, several pages, a filter",
			c.version, len(c.pages), c.bloom != nil)
	}
	checkImages(t, c, entries, 256)
	cur := componentCursor(c, nil, nil, nil)
	var got [][2][]byte
	for cur.Next() {
		got = append(got, [2][]byte{slices.Clone(cur.key), slices.Clone(cur.entry())})
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if fmt.Sprint(got) != fmt.Sprint(entries) {
		t.Fatalf("cursor over the fixture yields %d entries, want %d", len(got), len(entries))
	}
	for _, e := range entries {
		if v, ok, err := c.Get(e[0]); err != nil || !ok || !bytes.Equal(v, e[1]) {
			t.Fatalf("Get(%x) = %x, %v, %v; want %x", e[0], v, ok, err, e[1])
		}
	}

	path := filepath.Join(t.TempDir(), "rewritten.cmp")
	cw, err := NewComponentWriter(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeEntries(cw, nil, []*Component{c}, false); err != nil {
		t.Fatal(err)
	}
	if err := cw.Finish(); err != nil {
		t.Fatal(err)
	}
	c3, err := OpenComponent(path, NewBufferCache(1<<20, 256))
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if c3.version != componentVersionFrontCoded {
		t.Fatalf("rewrite is version %d, want %d", c3.version, componentVersionFrontCoded)
	}
	checkImages(t, c3, entries, 256)
	if c3.bloom != nil {
		t.Error("the rewrite carries a bloom filter")
	}
	for _, e := range entries {
		if v, ok, err := c3.Get(e[0]); err != nil || !ok || !bytes.Equal(v, e[1]) {
			t.Fatalf("rewrite: Get(%x) = %x, %v, %v; want %x", e[0], v, ok, err, e[1])
		}
	}
	if c3.size*2 > c.size {
		t.Errorf("rewrite takes %d bytes, the version-1 component %d", c3.size, c.size)
	}
}

// TestBloomWithoutBitsIsCorrupt: a component whose bloom header claims
// no bits is rejected at open. Taken at its word, such a filter answers
// "absent" for every key, and every point read would miss silently. The
// columnar writer is the one that writes a filter; only the no-filter
// header (no hash functions as well as no bits) opens without one.
func TestBloomWithoutBitsIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.cmp")
	cw, err := NewColumnarComponentWriterFS(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := cw.Add([]byte(fmt.Sprintf("k%02d", i)), []byte{0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Finish(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The bloom section starts with the hash count and then the bit
	// array's length, both little-endian uint32s.
	bloomOff := binary.LittleEndian.Uint64(data[len(data)-footerSize+28:])
	for _, n := range []uint32{0, 1} {
		binary.LittleEndian.PutUint32(data[bloomOff+4:], n)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenComponent(path, NewBufferCache(1<<20, 4096))
		if err == nil {
			_, found, gerr := c.Get([]byte("k07"))
			c.Close()
			t.Fatalf("a bloom filter of %d bytes opened; Get of a stored key found %v (%v)", n, found, gerr)
		}
		if !errors.As(err, new(corruptError)) {
			t.Fatalf("a bloom filter of %d bytes: %v, want errCorrupt", n, err)
		}
	}
}

// TestPageIndexStaysInsideData: a page the index places past the data
// region — where a damaged length would size the buffer a version-3
// page is read into — is errCorrupt when the component opens.
func TestPageIndexStaysInsideData(t *testing.T) {
	for _, tc := range []struct {
		off, length int64
		ok          bool
	}{
		{0, 100, true}, {40, 60, true}, {0, 101, false}, {90, 20, false}, {101, 0, false},
	} {
		idx := buildIndex([]pageMeta{{off: tc.off, length: int32(tc.length), firstKey: []byte("a")}})
		_, err := parsePageIndex(idx, 100)
		if (err == nil) != tc.ok || err != nil && !errors.As(err, new(corruptError)) {
			t.Errorf("page at %d, %d bytes, data region of 100: %v", tc.off, tc.length, err)
		}
	}
}

// TestRowTreeWritesNoBloom: a row tree — an index — flushes components
// that end with the no-filter header (no hash functions, no bits), which
// open as the nil filter: every stored key is found through the fence
// keys and an absent one is a miss, with no bloom check counted.
func TestRowTreeWritesNoBloom(t *testing.T) {
	dir := t.TempDir()
	tree, err := OpenLSM(dir, LSMOptions{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	for i := 0; i < 200; i++ {
		if err := tree.Put([]byte(fmt.Sprintf("k%03d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.cmp"))
	if err != nil || len(files) != 1 {
		t.Fatalf("components %v, %v", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	bloomOff := binary.LittleEndian.Uint64(data[len(data)-footerSize+28:])
	if section := data[bloomOff : len(data)-footerSize]; !bytes.Equal(section, noBloom) {
		t.Fatalf("bloom section %x, want the no-filter header", section)
	}
	c, err := OpenComponent(files[0], NewBufferCache(1<<20, 256))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.bloom != nil {
		t.Fatal("a component without a filter opened with one")
	}
	checks := bloomChecks.Load()
	for i := 0; i < 200; i++ {
		if _, ok, err := c.Get([]byte(fmt.Sprintf("k%03d", i))); !ok || err != nil {
			t.Fatalf("Get(k%03d) = %v, %v", i, ok, err)
		}
	}
	if _, ok, err := c.Get([]byte("k2000")); ok || err != nil {
		t.Fatalf("Get of an absent key = %v, %v", ok, err)
	}
	if n := bloomChecks.Load() - checks; n != 0 {
		t.Errorf("%d bloom checks counted on a component without a filter", n)
	}
}

// TestBloomSectionFromHashes: the filter the columnar writer builds from
// the keys' hashes is the filter built by adding the keys themselves.
func TestBloomSectionFromHashes(t *testing.T) {
	entries := randomEntries(rand.New(rand.NewSource(5)), 300)
	want := NewBloomBuilder(len(entries))
	for _, e := range entries {
		want.Add(e[0])
	}
	path := filepath.Join(t.TempDir(), "c.cmp")
	cw, err := NewColumnarComponentWriterFS(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := cw.Add(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Finish(); err != nil {
		t.Fatal(err)
	}
	c, err := OpenComponent(path, NewBufferCache(1<<20, 4096))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !bytes.Equal(c.bloom.marshal(nil), want.marshal(nil)) {
		t.Fatal("the columnar writer's bloom filter is not the one the keys make")
	}
}

// frontPages returns the version-3 pages the row writer makes of
// entries at pageSize, as stored.
func frontPages(t testing.TB, entries [][2][]byte, pageSize int) [][]byte {
	c := writeRowComponent(t, entries, pageSize)
	var pages [][]byte
	for _, p := range c.pages {
		b := make([]byte, p.length)
		if _, err := c.f.ReadAt(b, p.off); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, b)
	}
	return pages
}

// plainFrontEntries decodes a version-3 page by the format alone: a
// uint16 count, a uvarint image length, then per entry a header byte
// (value form in bits 0–1, trailing zeros in bits 2–4, middle length in
// bits 5–7, 7 meaning a uvarint follows the shared length), a uvarint
// shared-prefix length, the middle, and the value's stored bytes; the
// entries must end the page, make an image of the announced length and
// have strictly increasing keys. ok is false when the page breaks any of
// that.
func plainFrontEntries(page []byte) (entries [][2][]byte, ok bool) {
	if len(page) < 2 {
		return nil, false
	}
	want, w := binary.Uvarint(page[2:])
	if w <= 0 {
		return nil, false
	}
	rest := page[2+w:]
	uv := func() (uint64, bool) {
		v, w := binary.Uvarint(rest)
		if w <= 0 {
			return 0, false
		}
		rest = rest[w:]
		return v, true
	}
	take := func(n uint64) ([]byte, bool) {
		if n > uint64(len(rest)) {
			return nil, false
		}
		b := rest[:n]
		rest = rest[n:]
		return b, true
	}
	var prev []byte
	for n := int(binary.LittleEndian.Uint16(page)); n > 0; n-- {
		h, ok := take(1)
		if !ok {
			return nil, false
		}
		shared, ok := uv()
		if !ok || shared > uint64(len(prev)) {
			return nil, false
		}
		midLen := uint64(h[0] >> 5)
		if midLen == 7 {
			if midLen, ok = uv(); !ok {
				return nil, false
			}
		}
		mid, ok := take(midLen)
		if !ok {
			return nil, false
		}
		key := append(append(slices.Clone(prev[:shared]), mid...), make([]byte, h[0]>>2&7)...)
		var val []byte
		switch h[0] & 3 {
		case 0, 1:
			val = []byte{h[0] & 3}
		default:
			l, ok := uv()
			if !ok {
				return nil, false
			}
			if val, ok = take(l); !ok {
				return nil, false
			}
			if h[0]&3 == 2 {
				val = append([]byte{0}, val...)
			}
		}
		if len(entries) > 0 && bytes.Compare(prev, key) >= 0 {
			return nil, false
		}
		entries = append(entries, [2][]byte{key, val})
		prev = key
	}
	if len(rest) != 0 || uint64(len(refImage(entries))) != want {
		return nil, false
	}
	return entries, true
}

// frontPageMatchesPlain is the version-3 half of FuzzComponentPage's
// body: the decoder rejects, as errCorrupt, exactly the pages
// plainFrontEntries rejects, and builds for every other page the image
// of the entries plainFrontEntries reads, at its exact length.
func frontPageMatchesPlain(t *testing.T, data []byte) {
	entries, ok := plainFrontEntries(data)
	img, err := decodeFrontCodedPage(slices.Clip(data))
	if err != nil {
		if !errors.As(err, new(corruptError)) {
			t.Fatalf("decoder error is not errCorrupt: %v", err)
		}
		if ok {
			t.Fatalf("decoder rejected a well-formed page: %v", err)
		}
		return
	}
	if !ok {
		t.Fatalf("decoder accepted a malformed page")
	}
	if want := refImage(entries); !bytes.Equal(img, want) || cap(img) != len(img) {
		t.Fatalf("decoded image (%d bytes, capacity %d)\n%x\nwant\n%x", len(img), cap(img), img, want)
	}
}

// TestFrontCodedPageSurvivesBitRot runs frontPageMatchesPlain over a few
// thousand seeded corruptions of genuine pages — one to three bytes
// overwritten, or the page cut short — so the decoder meets damaged pages
// on every plain `go test`, not only under the fuzzer.
func TestFrontCodedPageSurvivesBitRot(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pages := frontPages(t, randomEntries(r, 200), 256)
	for i := 0; i < 3000; i++ {
		page := slices.Clone(pages[r.Intn(len(pages))])
		frontPageMatchesPlain(t, page)
		if r.Intn(8) == 0 {
			page = page[:r.Intn(len(page))]
		} else {
			for n := 1 + r.Intn(3); n > 0; n-- {
				page[r.Intn(len(page))] = byte(r.Intn(256))
			}
		}
		frontPageMatchesPlain(t, page)
	}
}
