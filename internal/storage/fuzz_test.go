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
// readers: the footer page index parser and the data page iterator.
// Both run over bytes read straight from disk, so bit rot must come
// back as errCorrupt, never as a panic or a runaway allocation.
func FuzzComponentPage(f *testing.F) {
	f.Add(buildPage([][2]string{{"alpha", "1"}, {"beta", "2"}, {"gamma", ""}}))
	f.Add(buildIndex([]pageMeta{
		{off: 0, length: 64, firstKey: []byte("alpha")},
		{off: 64, length: 32, firstKey: []byte("m")},
	}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF})                         // page: huge entry count, no entries
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // index: huge uvarint count
	trunc := buildPage([][2]string{{"key", "value"}})
	f.Add(trunc[:len(trunc)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		if pages, err := parsePageIndex(data); err == nil {
			if uint64(len(pages)) > uint64(len(data)) {
				t.Fatalf("parsed %d page entries from %d bytes", len(pages), len(data))
			}
			for i := 1; i < len(pages); i++ {
				_ = bytes.Compare(pages[i-1].firstKey, pages[i].firstKey)
			}
		}
		it := pageIter{page: data}
		if err := it.init(); err != nil {
			return
		}
		steps := 0
		for it.next() {
			if len(it.key)+len(it.val) > len(data) {
				t.Fatalf("entry larger than page: k=%d v=%d page=%d", len(it.key), len(it.val), len(data))
			}
			steps++
			if steps > len(data)+1 {
				t.Fatalf("iterator did not terminate after %d steps", steps)
			}
		}
		// The same bytes read as a group image: the tail is taken for an
		// entry-offset table, which may point anywhere. The seek must land
		// inside the image or report corruption.
		sk := pageIter{page: data}
		if err := sk.init(); err != nil {
			return
		}
		if _, err := sk.seek([]byte("beta")); err != nil {
			if !errors.As(err, new(corruptError)) {
				t.Fatalf("seek error is not errCorrupt: %v", err)
			}
			return
		}
		if sk.next() && len(sk.key)+len(sk.val) > len(data) {
			t.Fatalf("entry after seek larger than page: k=%d v=%d page=%d", len(sk.key), len(sk.val), len(data))
		}
	})
}

// FuzzColumnarComponent feeds arbitrary bytes to the full version-2
// read path: the file is opened as a component (footer + group index
// validation) and, if accepted, walked end to end by a one-component
// cursor — whole, projected and filtered — and point-read, whole and
// projected. Corruption must surface as an error — errCorrupt for reads
// — never a panic, an unbounded allocation, a runaway loop, or a read
// past a group image. The same bytes also drive the entries of a
// component the writer builds, on which the filtered block walk must
// yield what the group image does with the filter applied to each
// record (walkMatchesImage).
func FuzzColumnarComponent(f *testing.F) {
	seed := columnarFuzzSeed(f)
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
	seed := columnarFuzzSeed(t)
	r := rand.New(rand.NewSource(18))
	for i := 0; i < 300; i++ {
		data := append([]byte(nil), seed...)
		for n := 1 + r.Intn(3); n > 0; n-- {
			data[r.Intn(len(data))] = byte(r.Intn(256))
		}
		readColumnarBytes(t, data)
	}
}

// columnarFuzzSeed returns the bytes of a genuine columnar component:
// 40 two-field records, every seventh entry a tombstone.
func columnarFuzzSeed(f testing.TB) []byte {
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
		if i%7 == 0 {
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
	c, err := OpenComponent(path, NewBufferCache(1<<20, 4096))
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
