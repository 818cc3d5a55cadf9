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
	"strings"
	"testing"

	"simdb/internal/adm"
)

// buildPage assembles a data page in the component writer's format:
// uint16 entry count, then (uvarint klen, key, uvarint vlen, val) per
// entry. Used only to seed the fuzzer with well-formed input.
func buildPage(entries [][2]string) []byte {
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(entries)))
	page := hdr[:]
	for _, e := range entries {
		page = binary.AppendUvarint(page, uint64(len(e[0])))
		page = append(page, e[0]...)
		page = binary.AppendUvarint(page, uint64(len(e[1])))
		page = append(page, e[1]...)
	}
	return page
}

// buildIndex assembles a page index in the footer format: uvarint
// count, then (uvarint off, uvarint length, uvarint klen, firstKey).
func buildIndex(pages []pageMeta) []byte {
	idx := binary.AppendUvarint(nil, uint64(len(pages)))
	for _, p := range pages {
		idx = binary.AppendUvarint(idx, uint64(p.off))
		idx = binary.AppendUvarint(idx, uint64(p.length))
		idx = binary.AppendUvarint(idx, uint64(len(p.firstKey)))
		idx = append(idx, p.firstKey...)
	}
	return idx
}

// FuzzWALDecode feeds arbitrary bytes to the WAL record scanner and
// payload decoder. Both must treat any malformation as end-of-prefix /
// error — never panic, never over-allocate, never read past the
// buffer. Corrupt and torn log tails are exactly arbitrary bytes.
func FuzzWALDecode(f *testing.F) {
	// Well-formed single commit record.
	rec := appendWALFrame(nil, encodeCommit(1, []walOp{
		{tree: "p", key: []byte("k1"), val: []byte("v1")},
		{tree: "i:kw", key: []byte("tok#k1"), tombstone: true},
	}))
	f.Add(rec)
	// Commit followed by a checkpoint, then a truncated third frame.
	multi := appendWALFrame(rec, encodeCheckpoint(2, 1, "p"))
	f.Add(multi)
	// Flush-begin record (component seq 1 covering ops through LSN 2).
	f.Add(appendWALFrame(rec, encodeFlushBegin(3, 1, 2, "p")))
	f.Add(append(append([]byte(nil), multi...), multi[:11]...))
	// CRC corruption in the middle of a valid stream.
	bad := append([]byte(nil), multi...)
	bad[len(bad)/2] ^= 0xFF
	f.Add(bad)
	// Pathological headers: zero length, huge length, empty payload.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var seen int
		n := scanWALRecords(data, func(walRecord) { seen++ })
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("prefix length %d out of range [0, %d]", n, len(data))
		}
		// The accepted prefix must rescan to the same boundary — the
		// scanner is deterministic and prefix-closed (what recovery
		// relies on when it truncates a torn tail and rescans).
		if again := scanWALRecords(data[:n], nil); again != n {
			t.Fatalf("rescan of accepted prefix: %d != %d", again, n)
		}
		// The raw payload decoder must also survive the input directly.
		rec, err := decodeWALPayload(data)
		if err == nil && rec.typ == walRecCommit {
			for _, op := range rec.ops {
				_ = op.tree
			}
		}
	})
}

// FuzzComponentPage feeds arbitrary bytes to the on-disk component
// readers: the footer page index parser, and the two builders of a row
// page's image, which the buffer cache runs on every page it reads from
// disk — appendEntryOffsets for a version-1 page and
// decodeFrontCodedPage for a version-3 one. Bit rot must come back as
// errCorrupt, never as a panic, a runaway allocation or a read past the
// page. Each builder must reject exactly the pages a plain decoding of
// its format rejects (rawEntries, plainFrontEntries); the front-coded
// decoder must build for every other page the image of the entries the
// plain decoding reads. On a version-1 image it accepts, next must yield
// the entries and a seek to any target, from any position, must land on
// the entry a linear walk from that position lands on.
func FuzzComponentPage(f *testing.F) {
	three := buildPage([][2]string{{"alpha", "1"}, {"beta", "2"}, {"gamma", ""}})
	f.Add(three)
	f.Add(buildIndex([]pageMeta{
		{off: 0, length: 64, firstKey: []byte("alpha")},
		{off: 64, length: 32, firstKey: []byte("m")},
	}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF})                         // page: huge entry count, no entries
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // index: huge uvarint count
	trunc := buildPage([][2]string{{"key", "value"}})
	f.Add(trunc[:len(trunc)-3])
	over, under := slices.Clone(three), slices.Clone(three)
	over[0], under[0] = 4, 2 // a count above and below the entries present
	f.Add(over)
	f.Add(under)
	f.Add(append(slices.Clone(three), 0, 1, 2))                         // trailing bytes
	f.Add(buildPage([][2]string{{"k", strings.Repeat("v", 300)}}))      // one oversize entry
	f.Add(buildPage([][2]string{{"b", "1"}, {"a", "2"}}))               // keys out of order
	f.Add(append(buildPage([][2]string{{"a", "1"}}), 0xFF, 0xFF, 0, 0)) // read as an image: an offset past the entries
	// Version-3 pages as the row writer makes them: postings of two tokens
	// with tombstones, payloads and odd values, and one oversize entry.
	front := frontPages(f, [][2][]byte{
		{[]byte("ab\x00\x40\x10\x00\x00\x00\x00\x00"), {0}},
		{[]byte("ab\x00\x40\x20\x00\x00\x00\x00\x00"), {1}},
		{[]byte("ab\x00\x40\x20\x00\x00\x00\x00\x00\x00"), {0, 'p'}},
		{[]byte("abc"), {}},
		{[]byte("abc\x00"), {7, 7}},
		{[]byte("abcdefghijkl"), {0}},
		{[]byte("b"), append([]byte{0}, strings.Repeat("v", 80)...)},
	}, 48)
	for _, p := range front {
		f.Add(p)
	}
	shared := slices.Clone(front[0])
	shared[len(shared)-3] = 0x7F // the last entry ("abc", empty value) shares more than its predecessor holds
	f.Add(shared)
	long := slices.Clone(front[0])
	long[2]++ // an image length the entries do not make
	f.Add(long)
	// Two entries, "a" and one sharing two bytes of it, with the image
	// length that sharing would make: only the shared-prefix check stops
	// the second key from copying past the first.
	f.Add([]byte{2, 0, 20, 0x20, 0, 'a', 0x20, 2, 'b'})

	f.Fuzz(func(t *testing.T, data []byte) {
		frontPageMatchesPlain(t, data)
		if pages, err := parsePageIndex(data, int64(len(data))); err == nil {
			if uint64(len(pages)) > uint64(len(data)) {
				t.Fatalf("parsed %d page entries from %d bytes", len(pages), len(data))
			}
			for i := 1; i < len(pages); i++ {
				_ = bytes.Compare(pages[i-1].firstKey, pages[i].firstKey)
			}
		}
		seekStaysInside(t, data)
		ref, refOK := rawEntries(data)
		img, err := appendEntryOffsets(slices.Clip(data))
		if err != nil {
			if !errors.As(err, new(corruptError)) {
				t.Fatalf("builder error is not errCorrupt: %v", err)
			}
			if refOK {
				t.Fatalf("builder rejected a well-formed page: %v", err)
			}
			return
		}
		if !refOK {
			t.Fatalf("builder accepted a malformed page")
		}
		// Positions and targets are sampled on long pages: a seek is
		// checked against a walk from its position, so all of them would
		// be cubic in the entries.
		stride := max(1, len(ref)/16)
		targets := [][]byte{nil, {0xFF, 0xFF}}
		for i := 0; i < len(ref); i += stride {
			k := ref[i][0]
			targets = append(targets, k, append(slices.Clone(k), 0), k[:len(k)/2])
		}
		for from := 0; from <= len(ref); from += stride {
			for _, tg := range targets {
				it := pageIter{page: img}
				if err := it.init(); err != nil {
					t.Fatalf("image: %v", err)
				}
				for i := 0; i < from; i++ {
					if !it.next() || !bytes.Equal(it.key, ref[i][0]) || !bytes.Equal(it.val, ref[i][1]) {
						t.Fatalf("entry %d of the image is not the page's", i)
					}
				}
				want := from
				for want < len(ref) && bytes.Compare(ref[want][0], tg) < 0 {
					want++
				}
				found, _ := it.seek(tg, nil)
				if it.err != nil || found != (want < len(ref)) || found && (!bytes.Equal(it.key, ref[want][0]) || !bytes.Equal(it.val, ref[want][1])) {
					t.Fatalf("seek(%q) from entry %d of %d: found %v key %q (err %v), the walk lands on entry %d",
						tg, from, len(ref), found, it.key, it.err, want)
				}
				if found && it.next() != (want+1 < len(ref)) {
					t.Fatalf("next after seek(%q) from entry %d does not continue at entry %d", tg, from, want+1)
				}
			}
		}
	})
}

// rawEntries decodes a row page by the format alone, without pageIter:
// a uint16 count, then that many entries of uvarint key length, key,
// uvarint value length, value, keys strictly increasing; anything after
// them is ignored. ok is false when the page breaks any of that.
func rawEntries(page []byte) (entries [][2][]byte, ok bool) {
	if len(page) < 2 {
		return nil, false
	}
	rest := page[2:]
	field := func() ([]byte, bool) {
		l, w := binary.Uvarint(rest)
		if w <= 0 || l > uint64(len(rest)-w) {
			return nil, false
		}
		b := rest[w : w+int(l)]
		rest = rest[w+int(l):]
		return b, true
	}
	for n := int(binary.LittleEndian.Uint16(page)); n > 0; n-- {
		k, ok1 := field()
		v, ok2 := field()
		if !ok1 || !ok2 || len(entries) > 0 && bytes.Compare(entries[len(entries)-1][0], k) >= 0 {
			return nil, false
		}
		entries = append(entries, [2][]byte{k, v})
	}
	return entries, true
}

// seekStaysInside reads arbitrary bytes as a page image — the tail
// taken for an entry-offset table that may point anywhere — and seeks
// on it from the start and from one entry in: the seek must land inside
// the image or report corruption.
func seekStaysInside(t *testing.T, data []byte) {
	for _, from := range []int{0, 1} {
		it := pageIter{page: data}
		if it.init() != nil {
			return
		}
		if from == 1 && !it.next() {
			return
		}
		found, _ := it.seek([]byte("beta"), nil)
		if it.err != nil && !errors.As(it.err, new(corruptError)) {
			t.Fatalf("seek error is not errCorrupt: %v", it.err)
		}
		if found && len(it.key)+len(it.val) > len(data) {
			t.Fatalf("entry after seek larger than page: k=%d v=%d page=%d", len(it.key), len(it.val), len(data))
		}
	}
}

// FuzzColumnarComponent feeds arbitrary bytes to the full version-2
// read path: the file is opened as a component (footer + group index
// validation) and, if accepted, walked end to end by a one-component
// cursor — whole, projected and filtered, the filtered walk under a
// cache that holds its blocks and under one too small to — and
// point-read, whole and projected. Corruption must surface as an error
// — errCorrupt for reads — never a panic, an unbounded allocation, a
// runaway loop, or a read past a group image. The same bytes also drive
// the entries of a component the writer builds, on which the filtered
// block walk must yield what the group image does with the filter
// applied to each record (walkMatchesImage), under both caches.
func FuzzColumnarComponent(f *testing.F) {
	seed := columnarFuzzSeed(f, true)
	f.Add(seed)
	trunc := append([]byte(nil), seed...)
	f.Add(trunc[:len(trunc)/2])
	flip := append([]byte(nil), seed...)
	flip[len(flip)/3] ^= 0xFF
	f.Add(flip)
	// An index offset past the int64 range: it must not size a buffer.
	neg := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint64(neg[len(neg)-footerSize+20:], 1<<63)
	f.Add(neg)
	f.Add([]byte{})
	// For walkMatchesImage: two wide records, f in the second only, so f
	// is the rarest field and lands in overflow, where propPass rejects
	// it; a record with an over-long field count; a tombstone.
	f.Add([]byte{0x01, 0x81, 'a', 'b', 'c', 0x05, 'g', 'r', 'e', 'a', 't', 0x02, 'x', 'y', 0x0D, 'z'})
	// For walkMatchesImage: a narrow component of records id, text, f —
	// f a string, an int, a list — and no tombstone or opaque entry: one
	// uniform group.
	f.Add([]byte{0x00, 0x03, 'a', 'b', 'c', 0x44, 'g', 'r', 0x65, 'm', 'a', 'r', 'l', 'a', 0x24})
	// A genuine component of one uniform group: the walk reads it
	// column by column.
	f.Add(columnarFuzzSeed(f, false))
	f.Fuzz(func(t *testing.T, data []byte) {
		readColumnarBytes(t, data)
		walkMatchesImage(t, data)
	})
}

// TestColumnarReadSurvivesBitRot runs FuzzColumnarComponent's body over
// a few hundred seeded corruptions of a genuine component — one to
// three bytes overwritten anywhere in the file — so the point-read and
// scan paths meet damaged groups on every plain `go test`, not only
// when the fuzzer happens to get there.
func TestColumnarReadSurvivesBitRot(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for _, tombstones := range []bool{true, false} {
		seed := columnarFuzzSeed(t, tombstones)
		for i := 0; i < 300; i++ {
			data := append([]byte(nil), seed...)
			for n := 1 + r.Intn(3); n > 0; n-- {
				data[r.Intn(len(data))] = byte(r.Intn(256))
			}
			readColumnarBytes(t, data)
		}
	}
}

// columnarFuzzSeed returns the bytes of a genuine columnar component:
// 40 two-field records, every seventh entry a tombstone — or, without
// tombstones, one uniform group.
func columnarFuzzSeed(f testing.TB, tombstones bool) []byte {
	seedPath := filepath.Join(f.TempDir(), "seed.cmp")
	cw, err := NewColumnarComponentWriterFS(OS, seedPath)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		rec := adm.EmptyRecord(2)
		rec.Set("id", adm.NewInt(int64(i)))
		rec.Set("text", adm.NewString(fmt.Sprintf("value %d", i)))
		entry := adm.Append([]byte{0}, adm.NewRecord(rec))
		if tombstones && i%7 == 0 {
			entry = []byte{1} // tombstone
		}
		if err := cw.Add([]byte(fmt.Sprintf("k%04d", i)), entry); err != nil {
			f.Fatal(err)
		}
	}
	if err := cw.Finish(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	return seed
}

// readColumnarBytes is the body of FuzzColumnarComponent.
func readColumnarBytes(t *testing.T, data []byte) {
	if _, err := parseColGroupIndex(data, int64(len(data))); err != nil {
		_ = err // must simply not panic
	}
	path := filepath.Join(t.TempDir(), "f.cmp")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenComponent(path, NewBufferCache(1<<20, 4096))
	if err != nil {
		return
	}
	defer c.Close()
	limit := (len(data) + 2) * colMaxGroupRows
	scan := func(fields []string) {
		cur := componentCursor(c, nil, nil, fields)
		defer cur.Close()
		steps := 0
		for cur.Next() {
			steps++
			if steps > limit {
				t.Fatalf("cursor did not terminate after %d steps", steps)
			}
		}
		if err := cur.Err(); err != nil && !errors.As(err, new(corruptError)) {
			t.Fatalf("cursor error is not errCorrupt: %v", err)
		}
	}
	scan(nil)
	scan([]string{"id"})
	filtered := func(c *Component) {
		for _, field := range []string{"text", "id"} {
			cur := openCursors([]KeyRange{{}}, nil, []*Component{c}, NewProjection([]string{"id"}),
				&RowFilter{Field: field, Pass: propPass}, false)[0]
			for steps := 0; cur.Next(); steps++ {
				if steps > limit {
					t.Fatalf("filtered cursor did not terminate after %d steps", steps)
				}
			}
			if err := cur.Err(); err != nil && !errors.As(err, new(corruptError)) {
				t.Fatalf("filtered cursor error is not errCorrupt: %v", err)
			}
			cur.Close()
		}
	}
	filtered(c)
	// Under a cache too small for any block, the walk reads every block
	// into its own buffers.
	if tiny, err := OpenComponent(path, NewBufferCache(0, 1)); err == nil {
		filtered(tiny)
		tiny.Close()
	}
	// Point reads of stored, absent and fence keys; the bloom filter
	// is saturated so every one of them searches a group image.
	for i := range c.bloom.bits {
		c.bloom.bits[i] = 0xFF
	}
	probes := [][]byte{[]byte("k0003"), []byte("k0007"), []byte("k0039"), []byte("k9"), {}}
	for _, p := range c.pages {
		probes = append(probes, p.firstKey)
	}
	for _, proj := range []*Projection{nil, NewProjection([]string{"id"})} {
		for _, key := range probes {
			if _, _, err := c.GetProjected(key, proj); err != nil {
				if !errors.As(err, new(corruptError)) {
					t.Fatalf("Get(%q) error is not errCorrupt: %v", key, err)
				}
			}
		}
	}
}

// walkMatchesImage builds a columnar component from entries drawn from
// data and scans it under a row filter on each of its fields, two ways:
// the filtered block walk, and the unfiltered group image with the
// filter's record form (PassRecord) applied to each whole value. Both
// must yield the same keys and values, and both must count the same
// rows read. The first byte picks a wide component, whose records share
// more fields than a group has columns, so that f lands in the overflow
// stream. Entries are records with id, text and usually f (a string, an
// int or a list), with now and then a tombstone, an opaque value, or a
// record with an over-long field count, which the writer stores opaque.
func walkMatchesImage(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	wide := data[0]&1 == 1
	path := filepath.Join(t.TempDir(), "w.cmp")
	cw, err := NewColumnarComponentWriterFS(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := 0, 1; p < len(data) && i < 3*colMaxGroupRows; i++ {
		ctl := data[p]
		chunk := data[p+1 : min(len(data), p+1+int(ctl%6))]
		p += 1 + len(chunk)
		rec := adm.EmptyRecord(3)
		rec.Set("id", adm.NewInt(int64(i)))
		rec.Set("text", adm.NewString(string(chunk)))
		switch ctl >> 5 {
		case 0, 1:
			rec.Set("f", adm.NewString(string(chunk[:len(chunk)/2])))
		case 2:
			rec.Set("f", adm.NewInt(int64(ctl)))
		case 3:
			rec.Set("f", adm.NewStringList([]string{string(chunk)}))
		}
		if wide && ctl%4 != 0 {
			for j := 0; j < propWide; j++ {
				rec.Set(fmt.Sprintf("w%02d", j), adm.NewInt(int64(j)))
			}
		}
		entry := adm.Append([]byte{0}, adm.NewRecord(rec))
		switch ctl % 13 {
		case 0:
			entry = []byte{1}
		case 1:
			entry = append([]byte{0}, chunk...)
		case 2:
			if entry[2] < 0x80 {
				entry = append([]byte{0, entry[1], entry[2] | 0x80, 0}, entry[3:]...)
			}
		}
		if err := cw.Add([]byte(fmt.Sprintf("k%05d", i)), entry); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Finish(); err != nil {
		t.Fatal(err)
	}
	// A cache that holds every block, and one too small for any: there
	// the filtered walk reads every block into its own buffers.
	for _, cache := range []*BufferCache{NewBufferCache(1<<20, 4096), NewBufferCache(0, 1)} {
		walkMatchesImageUnder(t, path, cache)
	}
}

// walkMatchesImageUnder is walkMatchesImage's check of the component at
// path, read through cache.
func walkMatchesImageUnder(t *testing.T, path string, cache *BufferCache) {
	c, err := OpenComponent(path, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	snap := &TreeSnapshot{components: []*Component{c}}
	type row struct{ key, val string }
	scan := func(fields []string, filter *RowFilter) (rows []row, read int64) {
		read, err := snap.ScanProjected(nil, nil, nil, fields, filter, func(k, v []byte) bool {
			rows = append(rows, row{string(k), string(v)})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows, read
	}
	whole, _ := scan(nil, nil)
	for _, fields := range [][]string{nil, {"id"}, {"text", "f"}} {
		image, live := scan(fields, nil)
		for _, field := range []string{"f", "text", "id", "w03"} {
			filter := &RowFilter{Field: field, Pass: propPass}
			var want []row
			for i, r := range image {
				if filter.PassRecord([]byte(whole[i].val)) {
					want = append(want, r)
				}
			}
			got, read := scan(fields, filter)
			if read != live || !slices.Equal(got, want) {
				t.Fatalf("filter on %s, fields %v: walk read %d rows and kept %d, image read %d and kept %d\nwalk  %q\nimage %q",
					field, fields, read, len(got), live, len(want), got, want)
			}
		}
	}
}

// TestByteReaderUvarint: the block reader's inlined uvarint accepts and
// rejects exactly what binary.Uvarint does, with the same value and
// length, on random buffers rich in continuation bytes and in the small
// tenth bytes where 64 bits overflow.
func TestByteReaderUvarint(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for i := 0; i < 200000; i++ {
		b := make([]byte, r.Intn(12))
		for j := range b {
			switch r.Intn(3) {
			case 0:
				b[j] = 0xFF
			case 1:
				b[j] = byte(r.Intn(256))
			default:
				b[j] = byte(r.Intn(3))
			}
		}
		want, n := binary.Uvarint(b)
		br := byteReader{b: b}
		got, ok := br.uvarint()
		if ok != (n > 0) || ok && (got != want || br.pos != n) {
			t.Fatalf("%x: binary.Uvarint = %d, %d; uvarint = %d, %v at %d", b, want, n, got, ok, br.pos)
		}
	}
}
