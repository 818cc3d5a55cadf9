package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"simdb/internal/obs"
)

// Bloom-filter effectiveness counters: negatives / checks is the rate
// of point lookups the filter answered without touching a data page.
var (
	bloomChecks    = obs.C("storage.bloom.checks")
	bloomNegatives = obs.C("storage.bloom.negatives")
)

// Point-read cost counters: probes / calls is the number of key
// comparisons a point read spends inside the one page it searches, a
// binary search of the page image's entry-offset table: ≈ log2 of the
// page's entries (≈ 11 on a 1024-row columnar group, ≈ 8–11 on a row
// page). calls counts the reads that reached a page — bloom negatives
// and keys below the first fence never do — and both are added once per
// read.
var (
	getCalls  = obs.C("storage.get.calls")
	getProbes = obs.C("storage.get.probes")
)

// An on-disk component: an immutable sorted run of (key, value) entries
// — the disk half of an LSM B+-tree. Layout:
//
//	[data pages][page index][bloom filter][footer]
//
// Data pages are variable-length regions of roughly the configured page
// size. The page index holds each page's offset, length, and first key
// and is resident in memory once the component is open (fence keys);
// data pages are read through the node's BufferCache, as page images.
// A row page's image is the same whatever the footer's version: a
// uint16 entry count, the packed entries (uvarint keyLen, key, uvarint
// valLen, value), then one little-endian uint32 per entry giving its
// offset (the entry-offset table, appendEntryOffsets). pageIter, the
// cursor and point reads read only images.
//
// Two row formats exist on disk, told apart by the footer's version:
//
//   - version 1 stores each page as its image without the table. Stores
//     written before the front-coded format still hold such components;
//     they are read, never written.
//   - version 3, what ComponentWriter writes, front-codes each page. Its
//     header is the uint16 entry count and a uvarint giving the image's
//     length; each entry is a header byte, then a uvarint shared-prefix
//     length, the key's bytes past that prefix and before its trailing
//     zeros, and the value (frontEntry). A page decodes on its own: the
//     first entry shares nothing.
//
// An index posting's key is a token followed by a primary key whose
// ordered encoding ends in zero bytes, and its value is the one-byte
// live flag, so version 3 spends a few bytes on what version 1 stored
// as a whole key. Pages are cut where version 1 cuts them — at the
// configured size of the image without its table — and a cache miss
// decodes the page into exactly the image version 1 reads
// (decodeFrontCodedPage): the buffer cache holds the same bytes, and
// everything above it does the same work, whichever version a page came
// from.

const (
	componentMagic = 0x53494d44422d4331 // "SIMDB-C1"
	footerSize     = 8 + 4 + 8 + 8 + 8 + 8

	componentVersionRow        = 1 // pages stored as their images; read only
	componentVersionFrontCoded = 3 // front-coded pages; ComponentWriter's output
)

// ComponentWriter builds a version-3 (front-coded) row component file.
// Add must be called with strictly increasing keys. Its filter section
// is the noBloom header: row trees are the secondary indexes, read by
// range only, while point reads go to the columnar primaries, so a
// filter would be bytes no read consults.
type ComponentWriter struct {
	fs       VFS
	f        File
	w        *bufio.Writer
	path     string
	pageSize int

	cur     []byte // current page's front-coded entries (after the header)
	curN    int    // entries in current page
	curSize int    // the current page's image length without its table
	pages   []pageMeta
	off     int64
	lastKey []byte
	n       int64
	err     error
}

type pageMeta struct {
	off      int64
	length   int32
	firstKey []byte
}

// NewComponentWriter creates the file at path (truncating any previous
// content) and returns a writer with the given target page size.
func NewComponentWriter(path string, pageSize int) (*ComponentWriter, error) {
	return NewComponentWriterFS(OS, path, pageSize)
}

// NewComponentWriterFS is NewComponentWriter routed through an explicit
// filesystem — crash-recovery tests inject a fault-injecting VFS here.
func NewComponentWriterFS(fs VFS, path string, pageSize int) (*ComponentWriter, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("storage: create component: %w", err)
	}
	return &ComponentWriter{
		fs:       fs,
		f:        f,
		w:        bufio.NewWriterSize(f, 1<<16),
		path:     path,
		pageSize: pageSize,
	}, nil
}

// Add appends an entry. Keys must be strictly increasing.
func (cw *ComponentWriter) Add(key, value []byte) error {
	if cw.err != nil {
		return cw.err
	}
	if cw.lastKey != nil && bytes.Compare(key, cw.lastKey) <= 0 {
		cw.err = fmt.Errorf("storage: component keys out of order: %q after %q", key, cw.lastKey)
		return cw.err
	}
	entrySize := uvarintSize(uint64(len(key))) + len(key) + uvarintSize(uint64(len(value))) + len(value)
	if cw.curN > 0 && cw.curSize+entrySize > cw.pageSize {
		cw.flushPage()
	}
	shared := 0
	if cw.curN == 0 {
		cw.pages = append(cw.pages, pageMeta{off: cw.off, firstKey: append([]byte(nil), key...)})
		cw.curSize = 2
	} else {
		for shared < len(key) && shared < len(cw.lastKey) && key[shared] == cw.lastKey[shared] {
			shared++
		}
	}
	cw.cur = appendFrontEntry(cw.cur, key, shared, value)
	cw.curSize += entrySize
	cw.curN++
	cw.n++
	cw.lastKey = append(cw.lastKey[:0], key...)
	return nil
}

// A front-coded entry's header byte: the form of its value in the low
// two bits, the trailing zero bytes its key leaves out in the next three
// (at most frontMaxZeros), and the length of the key's bytes between
// the shared prefix and those zeros in the top three — frontLongMid
// there means that length follows the shared-prefix length as a uvarint.
// After the header come the shared-prefix length (uvarint), the middle
// bytes, and the value's bytes if its form has any.
const (
	frontLive    = 0 // the value is [0]: a live entry with no payload
	frontTomb    = 1 // the value is [1]: a tombstone
	frontPayload = 2 // the value is [0] and a payload: uvarint payload length, payload
	frontRaw     = 3 // any other value: uvarint length, value

	frontMaxZeros = 7
	frontLongMid  = 7
)

// appendFrontEntry appends the front-coded form of (key, value) to dst;
// key shares its first shared bytes with the previous key on the page.
func appendFrontEntry(dst, key []byte, shared int, value []byte) []byte {
	suffix := key[shared:]
	zeros := 0
	for zeros < frontMaxZeros && zeros < len(suffix) && suffix[len(suffix)-1-zeros] == 0 {
		zeros++
	}
	mid := suffix[:len(suffix)-zeros]
	form := byte(frontRaw)
	switch {
	case len(value) == 1 && value[0] <= 1:
		form = value[0] // frontLive or frontTomb
	case len(value) > 1 && value[0] == 0:
		form = frontPayload
	}
	h := form | byte(zeros)<<2 | byte(min(len(mid), frontLongMid))<<5
	dst = binary.AppendUvarint(append(dst, h), uint64(shared))
	if len(mid) >= frontLongMid {
		dst = binary.AppendUvarint(dst, uint64(len(mid)))
	}
	dst = append(dst, mid...)
	switch form {
	case frontPayload:
		dst = binary.AppendUvarint(dst, uint64(len(value)-1))
		dst = append(dst, value[1:]...)
	case frontRaw:
		dst = binary.AppendUvarint(dst, uint64(len(value)))
		dst = append(dst, value...)
	}
	return dst
}

func (cw *ComponentWriter) flushPage() {
	if cw.curN == 0 {
		return
	}
	var hdr [2 + binary.MaxVarintLen64]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(cw.curN))
	h := binary.AppendUvarint(hdr[:2], uint64(cw.curSize+4*cw.curN))
	cw.write(h)
	cw.write(cw.cur)
	p := &cw.pages[len(cw.pages)-1]
	p.length = int32(len(h) + len(cw.cur))
	cw.off += int64(p.length)
	cw.cur = cw.cur[:0]
	cw.curN = 0
}

func (cw *ComponentWriter) write(b []byte) {
	if cw.err != nil {
		return
	}
	if _, err := cw.w.Write(b); err != nil {
		cw.err = err
	}
}

// Finish flushes the final page, writes the page index, the noBloom
// header and the footer, and closes the file. The writer is unusable afterwards.
func (cw *ComponentWriter) Finish() error {
	if cw.err != nil {
		cw.f.Close()
		return cw.err
	}
	cw.flushPage()
	indexOff := cw.off
	var idx []byte
	idx = binary.AppendUvarint(idx, uint64(len(cw.pages)))
	for _, p := range cw.pages {
		idx = binary.AppendUvarint(idx, uint64(p.off))
		idx = binary.AppendUvarint(idx, uint64(p.length))
		idx = binary.AppendUvarint(idx, uint64(len(p.firstKey)))
		idx = append(idx, p.firstKey...)
	}
	cw.write(idx)
	cw.off += int64(len(idx))

	bloomOff := cw.off
	cw.write(noBloom)
	cw.off += int64(len(noBloom))

	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:], componentMagic)
	binary.LittleEndian.PutUint32(footer[8:], componentVersionFrontCoded)
	binary.LittleEndian.PutUint64(footer[12:], uint64(cw.n))
	binary.LittleEndian.PutUint64(footer[20:], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[28:], uint64(bloomOff))
	binary.LittleEndian.PutUint64(footer[36:], uint64(cw.off)+footerSize)
	cw.write(footer[:])
	if cw.err != nil {
		cw.f.Close()
		return cw.err
	}
	if err := cw.w.Flush(); err != nil {
		cw.f.Close()
		return err
	}
	if err := cw.f.Sync(); err != nil {
		cw.f.Close()
		return err
	}
	return cw.f.Close()
}

// Abort closes and removes the partially written file.
func (cw *ComponentWriter) Abort() {
	cw.f.Close()
	cw.fs.Remove(cw.path)
}

func uvarintSize(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// Component is an open, immutable on-disk sorted run. Components are
// reference counted: the owning LSM tree holds one reference, and every
// snapshot acquired from the tree holds another. The file is closed —
// and, if the component was retired by a merge, deleted — only when the
// last reference drains, so long-running scans never observe a
// component disappearing underneath them.
type Component struct {
	fs     VFS
	f      File
	path   string
	fileID uint64
	cache  *BufferCache
	// version is the footer's format version; only buildRowPage reads it.
	version uint32
	pages   []pageMeta
	// groups is non-nil for columnar (version 2) components; pages then
	// holds one fence-key entry per row group and data is materialized
	// through buildGroupPage instead of read directly.
	groups []colGroupMeta
	bloom  *Bloom
	n      int64
	size   int64

	// seq is the rotation sequence the component's newest data derives
	// from and gen its merge generation (0 = flushed/bulk-loaded);
	// together they define recency order. lo is the oldest rotation
	// sequence the component covers (== seq for flushed components;
	// merge outputs cover [lo, seq]) — recovery uses the interval to
	// decide which survivors a merged component supersedes. Set by the
	// owning tree at open/create.
	seq, gen, lo uint64

	refs atomic.Int32 // starts at 1 (the opener's reference)
	drop atomic.Bool  // delete the file when the last reference drains
}

// OpenComponent opens a component file for reading through cache.
func OpenComponent(path string, cache *BufferCache) (*Component, error) {
	return OpenComponentFS(OS, path, cache)
}

// OpenComponentFS is OpenComponent routed through an explicit
// filesystem.
func OpenComponentFS(fs VFS, path string, cache *BufferCache) (*Component, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open component: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < footerSize {
		f.Close()
		return nil, errCorrupt("file shorter than footer")
	}
	var footer [footerSize]byte
	if _, err := f.ReadAt(footer[:], st.Size()-footerSize); err != nil {
		f.Close()
		return nil, err
	}
	if binary.LittleEndian.Uint64(footer[0:]) != componentMagic {
		f.Close()
		return nil, errCorrupt("bad magic")
	}
	version := binary.LittleEndian.Uint32(footer[8:])
	if version != componentVersionRow && version != componentVersionColumnar && version != componentVersionFrontCoded {
		f.Close()
		return nil, errCorrupt(fmt.Sprintf("unsupported version %d", version))
	}
	n := int64(binary.LittleEndian.Uint64(footer[12:]))
	indexOff := int64(binary.LittleEndian.Uint64(footer[20:]))
	bloomOff := int64(binary.LittleEndian.Uint64(footer[28:]))
	total := int64(binary.LittleEndian.Uint64(footer[36:]))
	if total != st.Size() || indexOff < 0 || indexOff > bloomOff || bloomOff > st.Size()-footerSize {
		f.Close()
		return nil, errCorrupt("inconsistent footer offsets")
	}

	idxBuf := make([]byte, bloomOff-indexOff)
	if _, err := f.ReadAt(idxBuf, indexOff); err != nil {
		f.Close()
		return nil, err
	}
	var pages []pageMeta
	var groups []colGroupMeta
	if version == componentVersionColumnar {
		groups, err = parseColGroupIndex(idxBuf, indexOff)
		if err != nil {
			f.Close()
			return nil, err
		}
		pages = pagesFromGroups(groups)
	} else {
		pages, err = parsePageIndex(idxBuf, indexOff)
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	blBuf := make([]byte, st.Size()-footerSize-bloomOff)
	if _, err := f.ReadAt(blBuf, bloomOff); err != nil {
		f.Close()
		return nil, err
	}
	bloom, err := unmarshalBloom(blBuf)
	if err != nil {
		f.Close()
		return nil, err
	}
	c := &Component{
		fs:      fs,
		f:       f,
		path:    path,
		fileID:  NewFileID(),
		cache:   cache,
		version: version,
		pages:   pages,
		groups:  groups,
		bloom:   bloom,
		n:       n,
		size:    st.Size(),
	}
	c.refs.Store(1)
	return c, nil
}

// parsePageIndex decodes a row component's page index; every page must
// lie below dataEnd, the index's own offset, so that no damaged length
// sizes a read.
func parsePageIndex(buf []byte, dataEnd int64) ([]pageMeta, error) {
	count, p := binary.Uvarint(buf)
	if p <= 0 {
		return nil, errCorrupt("page index count")
	}
	// Each entry takes ≥ 3 bytes; a count beyond that bound is corrupt,
	// and catching it here also stops a huge count from driving a huge
	// preallocation below.
	if count > uint64(len(buf)) {
		return nil, errCorrupt("page index count")
	}
	pages := make([]pageMeta, 0, count)
	for i := uint64(0); i < count; i++ {
		off, n := binary.Uvarint(buf[p:])
		if n <= 0 {
			return nil, errCorrupt("page offset")
		}
		p += n
		length, n := binary.Uvarint(buf[p:])
		if n <= 0 {
			return nil, errCorrupt("page length")
		}
		p += n
		kl, n := binary.Uvarint(buf[p:])
		if n <= 0 || kl > uint64(len(buf)-p-n) {
			return nil, errCorrupt("page first key")
		}
		p += n
		key := make([]byte, kl)
		copy(key, buf[p:p+int(kl)])
		p += int(kl)
		if off > uint64(dataEnd) || length > uint64(dataEnd)-off || length >= 1<<31 {
			return nil, errCorrupt("page bounds")
		}
		pages = append(pages, pageMeta{off: int64(off), length: int32(length), firstKey: key})
	}
	return pages, nil
}

// acquire takes an additional reference (snapshot creation).
func (c *Component) acquire() { c.refs.Add(1) }

// release drops one reference. When the count drains to zero the file
// is closed, its cached pages evicted, and — if the component was
// retired by a merge — the file deleted.
func (c *Component) release() error {
	if c.refs.Add(-1) != 0 {
		return nil
	}
	c.cache.Evict(c.fileID)
	err := c.f.Close()
	if c.drop.Load() {
		if rerr := c.fs.Remove(c.path); err == nil {
			err = rerr
		}
	}
	return err
}

// Close releases the caller's reference; the file closes once every
// snapshot holding the component has also released it.
func (c *Component) Close() error { return c.release() }

// Remove marks the component's file for deletion and releases the
// caller's reference; the file is deleted when the last reference
// drains.
func (c *Component) Remove() error {
	c.drop.Store(true)
	return c.release()
}

// Path returns the component's file path.
func (c *Component) Path() string { return c.path }

// Len returns the number of entries.
func (c *Component) Len() int64 { return c.n }

// SizeBytes returns the on-disk file size.
func (c *Component) SizeBytes() int64 { return c.size }

// MayContain consults the bloom filter.
func (c *Component) MayContain(key []byte) bool { return c.bloom.MayContain(key) }

// findPage returns the index of the page that could contain key, or -1.
func (c *Component) findPage(key []byte) int {
	// First page with firstKey > key, minus one.
	i := sort.Search(len(c.pages), func(i int) bool {
		return bytes.Compare(c.pages[i].firstKey, key) > 0
	})
	return i - 1
}

// readPage returns the image of page i through the buffer cache: a row
// page with its entry-offset table (buildRowPage), or a columnar group
// materialized whole (buildGroupPage). Either is searched through the
// table (pageIter.seek).
func (c *Component) readPage(i int) ([]byte, error) {
	if c.groups != nil {
		return c.cache.ReadBuilt(c.fileID, uint32(i)*colRegionStride, func() ([]byte, error) {
			return c.buildGroupPage(i, nil)
		})
	}
	return c.cache.ReadBuilt(c.fileID, uint32(i), func() ([]byte, error) { return c.buildRowPage(i) })
}

// buildRowPage reads row page i into its image, in one allocation of
// the image's exact length. It is the one place that tells the row
// formats apart. A version-3 page is read into a pooled buffer and
// decoded (decodeFrontCodedPage). A version-1 page is read straight into
// the image: the entry count is read first, then the page, and the
// table is appended in place.
func (c *Component) buildRowPage(i int) ([]byte, error) {
	p := c.pages[i]
	read := func(b []byte) error {
		if n, err := c.f.ReadAt(b, p.off); err != nil && n != len(b) {
			return fmt.Errorf("storage: read page %d of %s: %w", i, c.path, err)
		}
		return nil
	}
	if p.length < 2 {
		return nil, errCorrupt("short page")
	}
	if c.version == componentVersionFrontCoded {
		bp := pageBufs.Get().(*[]byte)
		defer pageBufs.Put(bp)
		*bp = slices.Grow((*bp)[:0], int(p.length))[:p.length]
		if err := read(*bp); err != nil {
			return nil, err
		}
		c.cache.pagesRead.Add(1)
		return decodeFrontCodedPage(*bp)
	}
	var count [2]byte
	if err := read(count[:]); err != nil {
		return nil, err
	}
	// Every entry takes at least two bytes: a larger count is corrupt and
	// must not size the image.
	n := int(binary.LittleEndian.Uint16(count[:]))
	if 2+2*n > int(p.length) {
		return nil, errCorrupt("page entry count")
	}
	img := make([]byte, p.length, int(p.length)+4*n)
	if err := read(img); err != nil {
		return nil, err
	}
	c.cache.pagesRead.Add(1)
	return appendEntryOffsets(img)
}

// zeroBytes supplies the trailing zeros a front-coded key leaves out.
var zeroBytes [frontMaxZeros]byte

// pageBufs holds the buffers version-3 pages are read into before they
// are decoded.
var pageBufs = sync.Pool{New: func() any { return new([]byte) }}

// frontEntry is one entry of a version-3 page as read
// (byteReader.frontEntry): its
// key is the previous key's first shared bytes, then mid, then zeros
// zero bytes; val holds the value's stored bytes — the payload alone
// for frontPayload, nothing for frontLive and frontTomb.
type frontEntry struct {
	form          byte
	shared, zeros int
	mid, val      []byte
}

func (e *frontEntry) keyLen() int { return e.shared + len(e.mid) + e.zeros }

func (e *frontEntry) valLen() int {
	switch e.form {
	case frontLive, frontTomb:
		return 1
	case frontPayload:
		return 1 + len(e.val)
	}
	return len(e.val)
}

// frontEntry reads the next entry of a version-3 page; prevLen is the
// previous key's length. ok is false when the entry runs past the page
// or shares more than the previous key holds.
func (r *byteReader) frontEntry(prevLen int) (e frontEntry, ok bool) {
	if r.pos >= len(r.b) {
		return e, false
	}
	h := r.b[r.pos]
	r.pos++
	e.form, e.zeros = h&3, int(h>>2&7)
	shared, ok := r.uvarint()
	if !ok || shared > uint64(prevLen) {
		return e, false
	}
	e.shared = int(shared)
	midLen := uint64(h >> 5)
	if midLen == frontLongMid {
		if midLen, ok = r.uvarint(); !ok {
			return e, false
		}
	}
	if e.mid, ok = r.bytes(midLen); !ok {
		return e, false
	}
	if e.form >= frontPayload {
		vl, ok := r.uvarint()
		if !ok {
			return e, false
		}
		if e.val, ok = r.bytes(vl); !ok {
			return e, false
		}
	}
	return e, true
}

// decodeFrontCodedPage turns a version-3 page as stored into its image,
// the one a version-1 page of the same entries has. It walks the entries
// twice. The first walk checks that each lies inside the page and shares
// no more than the previous key holds, that the count's entries end
// exactly at the page's end, and that the image they make has the length
// the header announces; only then is the image allocated, at that
// length, so a damaged header never sizes it. (Shared prefixes let an
// image outgrow its page many times over, but no image reaches 4 GiB,
// the reach of the table's uint32 offsets.) The second walk writes the
// entries, and appendEntryOffsets checks their order and appends the
// table into the remaining capacity. A page that fails a check is
// errCorrupt.
func decodeFrontCodedPage(page []byte) ([]byte, error) {
	if len(page) < 2 {
		return nil, errCorrupt("short page")
	}
	n := int(binary.LittleEndian.Uint16(page))
	r := byteReader{b: page, pos: 2}
	want, ok := r.uvarint()
	if !ok {
		return nil, errCorrupt("page image length")
	}
	first := r.pos
	size, prevLen := 2+4*n, 0
	for i := 0; i < n; i++ {
		e, ok := r.frontEntry(prevLen)
		if !ok {
			return nil, errCorrupt("page entry")
		}
		prevLen = e.keyLen()
		size += uvarintSize(uint64(prevLen)) + prevLen + uvarintSize(uint64(e.valLen())) + e.valLen()
		// The table's offsets are uint32s: no image reaches 4 GiB.
		if size > math.MaxUint32 {
			return nil, errCorrupt("page image length")
		}
	}
	if r.pos != len(page) {
		return nil, errCorrupt("page trailing bytes")
	}
	if uint64(size) != want {
		return nil, errCorrupt("page image length")
	}
	img := make([]byte, 2, size)
	copy(img, page)
	r.pos, prevLen = first, 0
	for prevKey := 0; n > 0; n-- {
		e, _ := r.frontEntry(prevLen)
		prevLen = e.keyLen()
		img = binary.AppendUvarint(img, uint64(prevLen))
		key := len(img)
		img = append(img, img[prevKey:prevKey+e.shared]...)
		img = append(img, e.mid...)
		img = append(img, zeroBytes[:e.zeros]...)
		img = binary.AppendUvarint(img, uint64(e.valLen()))
		switch e.form {
		case frontLive, frontTomb:
			img = append(img, e.form)
		case frontPayload:
			img = append(append(img, 0), e.val...)
		default:
			img = append(img, e.val...)
		}
		prevKey = key
	}
	return appendEntryOffsets(img)
}

// appendEntryOffsets turns a row page as stored into its image: it
// decodes the entries the page's count announces, checking that each
// lies inside the page and that the keys strictly increase, and appends
// one little-endian uint32 per entry, that entry's offset, directly
// after the last of them; bytes past it are dropped. A page that fails a
// check is errCorrupt. The table is appended in place when page has the
// capacity for it.
func appendEntryOffsets(page []byte) ([]byte, error) {
	if len(page) < 2 {
		return nil, errCorrupt("short page")
	}
	it := pageIter{page: page, n: int(binary.LittleEndian.Uint16(page)), pos: 2}
	img := page
	var prev []byte
	for off := it.pos; it.next(); off = it.pos {
		if it.i > 1 && bytes.Compare(prev, it.key) >= 0 {
			return nil, errCorrupt("page keys out of order")
		}
		prev = it.key
		img = binary.LittleEndian.AppendUint32(img, uint32(off))
	}
	if it.err != nil {
		return nil, it.err
	}
	return append(img[:it.pos], img[len(page):]...), nil
}

// readPageView returns page i under an optional projection. Row
// components ignore the projection (their pages hold whole entries);
// columnar components assemble a partial image on first use and cache
// it under the projection's tag, so repeated projected reads hit the
// buffer cache like full reads do.
func (c *Component) readPageView(i int, proj *Projection) ([]byte, error) {
	if proj == nil || c.groups == nil {
		return c.readPage(i)
	}
	return c.cache.ReadBuiltTagged(c.fileID, uint32(i)*colRegionStride, proj.tag, func() ([]byte, error) {
		return c.buildGroupPage(i, proj)
	})
}

// Get returns the value stored for key, a boolean for presence, or an
// error. It consults the bloom filter first.
func (c *Component) Get(key []byte) ([]byte, bool, error) {
	return c.GetProjected(key, nil)
}

// GetProjected is Get under a projection: on a columnar component the
// value comes from the projected group image — only the key, descriptor
// and overflow blocks and the kept columns are read — and is a partial
// record holding just the kept fields (tombstones and opaque entries
// pass through whole); a row component returns the full entry. Callers
// treat the value as "at least the projected fields". A nil projection
// is a plain Get.
//
// The page is searched the same way whatever the component's version:
// a binary search of the image's entry-offset table (pageIter.seek).
func (c *Component) GetProjected(key []byte, proj *Projection) ([]byte, bool, error) {
	if c.bloom != nil {
		bloomChecks.Inc()
		if !c.bloom.MayContain(key) {
			bloomNegatives.Inc()
			return nil, false, nil
		}
	}
	i := c.findPage(key)
	if i < 0 {
		return nil, false, nil
	}
	page, err := c.readPageView(i, proj)
	if err != nil {
		return nil, false, err
	}
	it := pageIter{page: page}
	if err := it.init(); err != nil {
		return nil, false, err
	}
	found, probes := it.seek(key, nil)
	getCalls.Inc()
	getProbes.Add(int64(probes))
	if !found || !bytes.Equal(it.key, key) {
		return nil, false, it.err
	}
	return it.val, true, nil
}

// pageIter reads the entries of a page image (see readPage): the page's
// uint16 count and packed entries, then one little-endian uint32 per
// entry giving its offset in the image. next decodes the entries in
// order; seek moves forward through the table. With walk set it reads
// instead the rows of a columnar group under a row filter (groupWalk),
// which has no table.
type pageIter struct {
	page []byte // the count and the entries, the table split off by init
	offs []byte // the entry-offset table
	n    int    // entries on the page
	i    int    // index of the entry next decodes
	pos  int    // its offset in page
	key  []byte
	val  []byte
	err  error

	walk *groupWalk
	// rejected marks an entry the walk's filter rejected; val is nil.
	rejected bool
}

// init splits the image into the entries and the offset table, so that
// next never reads an entry out of the table.
func (it *pageIter) init() error {
	if len(it.page) < 2 {
		return errCorrupt("short page")
	}
	it.n = int(binary.LittleEndian.Uint16(it.page))
	table := len(it.page) - 4*it.n
	if table < 2 {
		return errCorrupt("page offset table")
	}
	it.page, it.offs, it.i, it.pos = it.page[:table], it.page[table:], 0, 2
	return nil
}

func (it *pageIter) next() bool {
	if it.walk != nil {
		return it.walk.next(it)
	}
	if it.i >= it.n || it.err != nil {
		return false
	}
	r := byteReader{b: it.page, pos: it.pos}
	kl, ok1 := r.uvarint()
	key, ok2 := r.bytes(kl)
	vl, ok3 := r.uvarint()
	val, ok4 := r.bytes(vl)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		it.err = errCorrupt("page entry")
		return false
	}
	it.key, it.val, it.pos = key, val, r.pos
	it.i++
	return true
}

// seek moves forward to the first entry, from the one next would decode
// on, whose key is >= target, and decodes it as next does; false when
// the page holds none, or on a damaged page (err). It returns the number
// of keys it compared. From the start of the page it binary-searches the
// entry-offset table: a point read, or the first read of a page a cursor
// jumped to. Further on it first decodes the entry next would, which is
// most often the answer of a dense seek, and then gallops — it probes 1,
// 2, 4, … entries past that one until a key is not below target — and
// binary-searches that bracket, so a target d entries ahead costs about
// 2·log2(d) probes. pc, when not nil, counts the keys it moved past
// inside a cursor's range. Every offset is bounds-checked against the
// image, so a damaged one reads as errCorrupt and never past its end. A
// group walk has no table and steps.
func (it *pageIter) seek(target []byte, pc *probeCount) (found bool, probes int) {
	if it.walk != nil {
		for it.next() {
			probes++
			if bytes.Compare(it.key, target) >= 0 {
				return true, probes
			}
			pc.below(it.key)
		}
		return false, probes
	}
	if it.i > 0 && it.next() {
		probes++
		if bytes.Compare(it.key, target) >= 0 {
			return true, probes
		}
		pc.below(it.key)
	}
	j, searched := it.search(target, pc)
	if it.err != nil {
		j = it.n
	}
	it.skipTo(j)
	return it.next(), probes + searched
}

// skipTo makes entry j, an entry search returned, the one next decodes.
func (it *pageIter) skipTo(j int) {
	if it.i = j; j < it.n {
		it.pos = int(binary.LittleEndian.Uint32(it.offs[4*j:]))
	}
}

// search returns the index of the first entry, from entry i on, whose
// key is >= target (n when there is none) and the keys it compared: a
// binary search from the start of the page, a gallop from anywhere
// else. It does not move the iterator.
func (it *pageIter) search(target []byte, pc *probeCount) (j, probes int) {
	lo, hi := it.i, it.n // the answer lies in [lo, hi]
	gallop := lo > 0
	for step := 1; lo < hi; step *= 2 {
		p := it.i - 1 + step
		if !gallop || p >= hi {
			gallop, p = false, int(uint(lo+hi)>>1)
		}
		// An offset past the entries reads as the end of the page, where
		// no key can be decoded.
		off := binary.LittleEndian.Uint32(it.offs[4*p:])
		r := byteReader{b: it.page, pos: int(min(off, uint32(len(it.page))))}
		kl, ok1 := r.uvarint()
		k, ok2 := r.bytes(kl)
		if off < 2 || !ok1 || !ok2 {
			it.err = errCorrupt("page entry offset")
			return it.n, probes
		}
		probes++
		if bytes.Compare(k, target) < 0 {
			pc.below(k)
			lo = p + 1
		} else {
			hi, gallop = p, false
		}
	}
	return hi, probes
}

// probeCount counts the keys a cursor's seek decodes and moves past —
// the keys it probes below its target — that lie at or above the
// cursor's range start: entries the cursor decoded
// (CursorStats.Entries). A key probed at or above the target is counted
// when the cursor stops on it or moves past it later, so no entry counts
// twice. The keys probed below the target rise within a seek, so once
// one is at or above start, every later one is and start is dropped
// (nil: no lower bound).
type probeCount struct {
	start []byte
	n     int64
}

// below counts k, a probed key below the seek's target, if it is at or
// above start.
func (pc *probeCount) below(k []byte) {
	if pc != nil && (pc.start == nil || bytes.Compare(k, pc.start) >= 0) {
		pc.start = nil
		pc.n++
	}
}

// Projection is a prepared field projection for reads of record-valued
// trees: the set of top-level fields to keep and the tag under which
// the buffer cache holds the partial group images built for it. Build
// one per query operator with NewProjection and reuse it across reads;
// two projections of the same field set share cached images. A nil
// *Projection means "whole entries".
type Projection struct {
	keep map[string]bool
	tag  string
}

// NewProjection prepares a projection onto the named top-level record
// fields. A nil slice means no projection and returns nil; an empty
// non-nil slice keeps no field at all (keys only). The cache tag is
// "p:" plus the sorted distinct field names, so projections of the same
// field set share cached partial images whatever order they were named
// in, and none collides with the untagged full image.
func NewProjection(fields []string) *Projection {
	if fields == nil {
		return nil
	}
	keep := make(map[string]bool, len(fields))
	sorted := make([]string, 0, len(fields))
	for _, f := range fields {
		if !keep[f] {
			keep[f] = true
			sorted = append(sorted, f)
		}
	}
	sort.Strings(sorted)
	return &Projection{keep: keep, tag: "p:" + strings.Join(sorted, "\x00")}
}
