package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
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
// comparisons a point read spends inside the one page it searches
// (≈ log2 of the group's rows on a columnar component, ≈ half a page's
// entries on a row component). calls counts the reads that reached a
// page — bloom negatives and keys below the first fence never do — and
// both are added once per read.
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
// size; each starts with a uint16 entry count followed by packed
// entries (uvarint keyLen, key, uvarint valLen, value). An entry larger
// than a page gets a page of its own. The page index holds each page's
// offset, length, and first key and is resident in memory once the
// component is open (fence keys); data pages are read through the
// node's BufferCache.

const (
	componentMagic   = 0x53494d44422d4331 // "SIMDB-C1"
	footerSize       = 8 + 4 + 8 + 8 + 8 + 8
	componentVersion = 1
)

// ComponentWriter builds a component file. Add must be called with
// strictly increasing keys.
type ComponentWriter struct {
	fs       VFS
	f        File
	w        *bufio.Writer
	path     string
	pageSize int

	cur     []byte // current page payload (after the count header)
	curN    int    // entries in current page
	pages   []pageMeta
	off     int64
	lastKey []byte
	n       int64
	keys    [][]byte // retained only to size the bloom filter accurately
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
	if cw.curN > 0 && 2+len(cw.cur)+entrySize > cw.pageSize {
		cw.flushPage()
	}
	if cw.curN == 0 {
		cw.pages = append(cw.pages, pageMeta{off: cw.off, firstKey: append([]byte(nil), key...)})
	}
	cw.cur = binary.AppendUvarint(cw.cur, uint64(len(key)))
	cw.cur = append(cw.cur, key...)
	cw.cur = binary.AppendUvarint(cw.cur, uint64(len(value)))
	cw.cur = append(cw.cur, value...)
	cw.curN++
	cw.n++
	cw.lastKey = append(cw.lastKey[:0], key...)
	cw.keys = append(cw.keys, append([]byte(nil), key...))
	return nil
}

func (cw *ComponentWriter) flushPage() {
	if cw.curN == 0 {
		return
	}
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(cw.curN))
	cw.write(hdr[:])
	cw.write(cw.cur)
	p := &cw.pages[len(cw.pages)-1]
	p.length = int32(2 + len(cw.cur))
	cw.off += int64(2 + len(cw.cur))
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

// Finish flushes the final page, writes the page index, bloom filter,
// and footer, and closes the file. The writer is unusable afterwards.
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
	bloom := NewBloomBuilder(len(cw.keys))
	for _, k := range cw.keys {
		bloom.Add(k)
	}
	bl := bloom.marshal(nil)
	cw.write(bl)
	cw.off += int64(len(bl))

	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:], componentMagic)
	binary.LittleEndian.PutUint32(footer[8:], componentVersion)
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
	pages  []pageMeta
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
	if version != componentVersion && version != componentVersionColumnar {
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
		pages, err = parsePageIndex(idxBuf)
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
		fs:     fs,
		f:      f,
		path:   path,
		fileID: NewFileID(),
		cache:  cache,
		pages:  pages,
		groups: groups,
		bloom:  bloom,
		n:      n,
		size:   st.Size(),
	}
	c.refs.Store(1)
	return c, nil
}

func parsePageIndex(buf []byte) ([]pageMeta, error) {
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
		if off > uint64(1)<<62 || length > uint64(1)<<31 {
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

func (c *Component) readPage(i int) ([]byte, error) {
	if c.groups != nil {
		return c.cache.ReadBuilt(c.fileID, uint32(i)*colRegionStride, func() ([]byte, error) {
			return c.buildGroupPage(i, nil)
		})
	}
	p := c.pages[i]
	return c.cache.ReadRegion(c.fileID, c.f, uint32(i), p.off, int(p.length))
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
// The search inside the page depends on the component's format and on
// nothing else: a materialized group image carries an entry-offset
// table and is binary-searched; a version-1 row page has no offsets on
// disk, is at most about one PageSize long, and is walked.
func (c *Component) GetProjected(key []byte, proj *Projection) ([]byte, bool, error) {
	bloomChecks.Inc()
	if !c.bloom.MayContain(key) {
		bloomNegatives.Inc()
		return nil, false, nil
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
	probes := 0
	if c.groups != nil {
		if probes, err = it.seek(key); err != nil {
			return nil, false, err
		}
	}
	// After a seek the first entry is already >= key and the loop runs
	// once; on a row page it is the walk.
	var val []byte
	found := false
	for it.next() {
		probes++
		if cmp := bytes.Compare(it.key, key); cmp >= 0 {
			val, found = it.val, cmp == 0
			break
		}
	}
	getCalls.Inc()
	getProbes.Add(int64(probes))
	return val, found, it.err
}

// pageIter walks the entries of a single data page, or, with walk set,
// the rows of a columnar group read under a row filter (groupWalk).
type pageIter struct {
	page []byte
	pos  int
	left int
	key  []byte
	val  []byte
	err  error

	walk *groupWalk
	// rejected marks an entry the walk's filter rejected; val is nil.
	rejected bool
}

func (it *pageIter) init() error {
	if len(it.page) < 2 {
		return errCorrupt("short page")
	}
	it.left = int(binary.LittleEndian.Uint16(it.page))
	it.pos = 2
	return nil
}

func (it *pageIter) next() bool {
	if it.walk != nil {
		return it.walk.next(it)
	}
	if it.left == 0 || it.err != nil {
		return false
	}
	kl, n := binary.Uvarint(it.page[it.pos:])
	if n <= 0 {
		it.err = errCorrupt("entry key length")
		return false
	}
	it.pos += n
	// Compare in uint64: a huge corrupt length would wrap int(kl)
	// negative and slip past an int-typed bounds check.
	if kl > uint64(len(it.page)-it.pos) {
		it.err = errCorrupt("entry key")
		return false
	}
	it.key = it.page[it.pos : it.pos+int(kl)]
	it.pos += int(kl)
	vl, n := binary.Uvarint(it.page[it.pos:])
	if n <= 0 {
		it.err = errCorrupt("entry value length")
		return false
	}
	it.pos += n
	if vl > uint64(len(it.page)-it.pos) {
		it.err = errCorrupt("entry value")
		return false
	}
	it.val = it.page[it.pos : it.pos+int(vl)]
	it.pos += int(vl)
	it.left--
	return true
}

// seek positions the iterator so that the following next yields the
// first entry whose key is >= target, and returns the number of key
// comparisons it took. It requires the page to be a materialized group
// image (see buildGroupPage): the entries are followed by one
// little-endian uint32 per entry giving that entry's offset in the
// image, and seek binary-searches that table. Row pages have no such
// table; Component.GetProjected never calls seek on one. The image is
// built in memory from validated blocks, but every offset and length is
// still bounds-checked, so a damaged image reads as errCorrupt and
// never past its end.
func (it *pageIter) seek(target []byte) (probes int, err error) {
	n := it.left
	table := len(it.page) - 4*n
	if table < it.pos {
		return 0, errCorrupt("group image offset table")
	}
	offs := it.page[table:]
	it.page = it.page[:table] // next must not read entries out of the table
	keyAt := func(i int) ([]byte, bool) {
		off := uint64(binary.LittleEndian.Uint32(offs[4*i:]))
		if off < 2 || off >= uint64(table) {
			return nil, false
		}
		kl, w := binary.Uvarint(it.page[off:])
		if w <= 0 || kl > uint64(table)-off-uint64(w) {
			return nil, false
		}
		start := int(off) + w
		return it.page[start : start+int(kl)], true
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		k, ok := keyAt(mid)
		if !ok {
			return probes, errCorrupt("group image entry offset")
		}
		probes++
		if bytes.Compare(k, target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	it.left = n - lo
	if lo < n {
		it.pos = int(binary.LittleEndian.Uint32(offs[4*lo:]))
	}
	return probes, nil
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
