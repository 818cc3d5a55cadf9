package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"simdb/internal/adm"
)

// Columnar components (format version 2): the same immutable sorted-run
// contract as the row format, but entries whose value is an encoded ADM
// record are shredded into per-field columns inside fixed-size row
// groups. The schema is inferred per group at flush/merge time — the
// fields observed in the group's records become columns — and an
// "anti-schema" overflow stream carries everything that does not fit
// the inferred schema verbatim: non-record entries, fields beyond the
// column cap, and records whose encoding the splitter cannot reproduce
// byte-identically. Layout:
//
//	[row groups][group index][bloom filter][footer]
//
// A row group holds up to colMaxGroupRows entries as parallel blocks,
// all offsets relative to the group start:
//
//	keys:     per row, uvarint keyLen + key
//	desc:     per row, uvarint d:
//	            d == 0  tombstone (the entry is exactly [1])
//	            d == 1  opaque entry, carried verbatim in overflow
//	            d >= 2  record with d-2 fields, each a uvarint ref:
//	                      0    field in overflow (name + value)
//	                      c>0  field value in column c-1, name in the
//	                           group's column table
//	overflow: the opaque entries (uvarint len + bytes) and overflow
//	          fields (uvarint nameLen + name + uvarint valLen + value),
//	          in row order
//	columns:  per column, packed uvarint valLen + value for the rows
//	          referencing it, in row order
//
// Primary trees write every component in this format; row components
// (version 1 or 3) — inverted indexes, and primary data of a store
// written while the row layout was still an option — are read beside
// it. A group has one decoder, groupWalk. A filtered range read walks the
// group's blocks directly; every other read has the walk materialize the
// group into the row-format page wire image (uint16 count + packed
// entries), so pageIter and the cursor are shared between both versions.
// The reconstruction is byte-identical to the original entries, which is
// what lets merges mix row and columnar inputs freely. A projected read
// fetches only the keys/desc/overflow blocks plus the referenced columns
// and emits partial records containing just the projected fields. Either
// image ends with an entry-offset table (one little-endian uint32 per
// row, after the entries the count announces), as a row page's image
// does (appendEntryOffsets): cursors and point reads search it
// (pageIter.seek). The table exists only in the cached image; the file
// format does not change for it.

const (
	componentVersionColumnar = 2

	// colMaxGroupRows bounds rows per group (must stay below the uint16
	// page-header limit the materialized image uses).
	colMaxGroupRows = 1024
	// colGroupTargetBytes flushes a group early once its payload grows
	// past this, so huge records do not pile into one giant region.
	colGroupTargetBytes = 256 << 10
	// colMaxColumns caps the inferred schema width per group; less
	// frequent fields spill to the overflow stream.
	colMaxColumns = 64

	// colRegionStride spaces the cache region ids of one group: region
	// g*stride holds the materialized page, g*stride+1+b block b (keys,
	// desc, overflow, then one per column — at most 3+colMaxColumns).
	colRegionStride = 80
)

// colGroupMeta is one group-index entry, resident while the component
// is open (its firstKey doubles as the fence key).
type colGroupMeta struct {
	off      int64
	length   int32
	rows     int
	firstKey []byte

	keysOff, keysLen uint32 // relative to off
	descOff, descLen uint32
	overOff, overLen uint32
	cols             []colMeta
}

type colMeta struct {
	name []byte
	off  uint32 // relative to the group's off
	len  uint32
}

// colRow is one buffered entry awaiting its group flush.
type colRow struct {
	key    []byte
	entry  []byte
	fields []adm.RawField // non-nil: record entry shredded into fields
	tomb   bool
}

// ColumnarComponentWriter builds a version-2 component file. It is a
// drop-in replacement for ComponentWriter: Add with strictly increasing
// keys, then Finish or Abort.
type ColumnarComponentWriter struct {
	fs   VFS
	f    File
	w    *bufio.Writer
	path string

	rows     []colRow
	rowBytes int

	groups  []colGroupMeta
	off     int64
	lastKey []byte
	n       int64
	hashes  []uint64 // each key's two bloomHash values, for the filter built at Finish
	err     error
}

// NewColumnarComponentWriterFS creates a columnar component writer at
// path through an explicit filesystem. Groups are sized by row count
// and payload bytes, not by a page size.
func NewColumnarComponentWriterFS(fs VFS, path string) (*ColumnarComponentWriter, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("storage: create component: %w", err)
	}
	return &ColumnarComponentWriter{
		fs:   fs,
		f:    f,
		w:    bufio.NewWriterSize(f, 1<<16),
		path: path,
	}, nil
}

// Add appends an entry. Keys must be strictly increasing. Values are
// classified here: tombstones and non-record (or non-canonically
// encoded) entries travel through the overflow stream untouched.
func (cw *ColumnarComponentWriter) Add(key, value []byte) error {
	if cw.err != nil {
		return cw.err
	}
	if cw.lastKey != nil && bytes.Compare(key, cw.lastKey) <= 0 {
		cw.err = fmt.Errorf("storage: component keys out of order: %q after %q", key, cw.lastKey)
		return cw.err
	}
	row := colRow{
		key:   append([]byte(nil), key...),
		entry: append([]byte(nil), value...),
	}
	if len(row.entry) == 1 && row.entry[0] == 1 {
		row.tomb = true
	} else if len(row.entry) > 1 && row.entry[0] == 0 {
		if fields, ok := adm.SplitRecord(row.entry[1:]); ok {
			row.fields = fields
		}
	}
	cw.rows = append(cw.rows, row)
	cw.rowBytes += len(row.key) + len(row.entry)
	cw.n++
	cw.lastKey = append(cw.lastKey[:0], key...)
	h1, h2 := bloomHash(key)
	cw.hashes = append(cw.hashes, h1, h2)
	if len(cw.rows) >= colMaxGroupRows || cw.rowBytes >= colGroupTargetBytes {
		cw.flushGroup()
	}
	return cw.err
}

// flushGroup infers the group's schema, shreds the buffered rows into
// blocks, and writes the group region.
func (cw *ColumnarComponentWriter) flushGroup() {
	if len(cw.rows) == 0 || cw.err != nil {
		return
	}
	// Schema inference: every field name seen in the group's records, in
	// first-appearance order; past the cap, keep the most frequent.
	var order []string
	counts := map[string]int{}
	for _, r := range cw.rows {
		for _, f := range r.fields {
			if counts[string(f.Name)] == 0 {
				order = append(order, string(f.Name))
			}
			counts[string(f.Name)]++
		}
	}
	colNames := order
	if len(order) > colMaxColumns {
		byFreq := append([]string(nil), order...)
		sort.SliceStable(byFreq, func(i, j int) bool { return counts[byFreq[i]] > counts[byFreq[j]] })
		kept := make(map[string]bool, colMaxColumns)
		for _, nm := range byFreq[:colMaxColumns] {
			kept[nm] = true
		}
		colNames = make([]string, 0, colMaxColumns)
		for _, nm := range order {
			if kept[nm] {
				colNames = append(colNames, nm)
			}
		}
	}
	colIdx := make(map[string]int, len(colNames))
	for i, nm := range colNames {
		colIdx[nm] = i
	}

	var keysB, descB, overB []byte
	colBs := make([][]byte, len(colNames))
	for _, r := range cw.rows {
		keysB = binary.AppendUvarint(keysB, uint64(len(r.key)))
		keysB = append(keysB, r.key...)
		switch {
		case r.tomb:
			descB = append(descB, 0)
		case r.fields == nil:
			descB = append(descB, 1)
			overB = binary.AppendUvarint(overB, uint64(len(r.entry)))
			overB = append(overB, r.entry...)
		default:
			descB = binary.AppendUvarint(descB, uint64(len(r.fields)+2))
			for _, f := range r.fields {
				if ci, ok := colIdx[string(f.Name)]; ok {
					descB = binary.AppendUvarint(descB, uint64(ci+1))
					colBs[ci] = binary.AppendUvarint(colBs[ci], uint64(len(f.Val)))
					colBs[ci] = append(colBs[ci], f.Val...)
				} else {
					descB = append(descB, 0)
					overB = binary.AppendUvarint(overB, uint64(len(f.Name)))
					overB = append(overB, f.Name...)
					overB = binary.AppendUvarint(overB, uint64(len(f.Val)))
					overB = append(overB, f.Val...)
				}
			}
		}
	}

	g := colGroupMeta{
		off:      cw.off,
		rows:     len(cw.rows),
		firstKey: cw.rows[0].key,
	}
	pos := uint32(0)
	place := func(b []byte) (uint32, uint32) {
		off, l := pos, uint32(len(b))
		cw.write(b)
		pos += l
		return off, l
	}
	g.keysOff, g.keysLen = place(keysB)
	g.descOff, g.descLen = place(descB)
	g.overOff, g.overLen = place(overB)
	g.cols = make([]colMeta, len(colNames))
	for i, nm := range colNames {
		off, l := place(colBs[i])
		g.cols[i] = colMeta{name: []byte(nm), off: off, len: l}
	}
	g.length = int32(pos)
	cw.off += int64(pos)
	cw.groups = append(cw.groups, g)
	cw.rows = cw.rows[:0]
	cw.rowBytes = 0
}

func (cw *ColumnarComponentWriter) write(b []byte) {
	if cw.err != nil {
		return
	}
	if _, err := cw.w.Write(b); err != nil {
		cw.err = err
	}
}

// Finish flushes the final group, writes the group index, bloom filter,
// and footer, and closes the file.
func (cw *ColumnarComponentWriter) Finish() error {
	if cw.err != nil {
		cw.f.Close()
		return cw.err
	}
	cw.flushGroup()
	indexOff := cw.off
	idx := binary.AppendUvarint(nil, uint64(len(cw.groups)))
	for _, g := range cw.groups {
		idx = binary.AppendUvarint(idx, uint64(g.off))
		idx = binary.AppendUvarint(idx, uint64(g.length))
		idx = binary.AppendUvarint(idx, uint64(g.rows))
		idx = binary.AppendUvarint(idx, uint64(len(g.firstKey)))
		idx = append(idx, g.firstKey...)
		idx = binary.AppendUvarint(idx, uint64(g.keysOff))
		idx = binary.AppendUvarint(idx, uint64(g.keysLen))
		idx = binary.AppendUvarint(idx, uint64(g.descOff))
		idx = binary.AppendUvarint(idx, uint64(g.descLen))
		idx = binary.AppendUvarint(idx, uint64(g.overOff))
		idx = binary.AppendUvarint(idx, uint64(g.overLen))
		idx = binary.AppendUvarint(idx, uint64(len(g.cols)))
		for _, cm := range g.cols {
			idx = binary.AppendUvarint(idx, uint64(len(cm.name)))
			idx = append(idx, cm.name...)
			idx = binary.AppendUvarint(idx, uint64(cm.off))
			idx = binary.AppendUvarint(idx, uint64(cm.len))
		}
	}
	cw.write(idx)
	cw.off += int64(len(idx))

	bloomOff := cw.off
	bl := bloomFromHashes(cw.hashes).marshal(nil)
	cw.write(bl)
	cw.off += int64(len(bl))

	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:], componentMagic)
	binary.LittleEndian.PutUint32(footer[8:], componentVersionColumnar)
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
func (cw *ColumnarComponentWriter) Abort() {
	cw.f.Close()
	cw.fs.Remove(cw.path)
}

// parseColGroupIndex decodes a version-2 group index. dataLimit is the
// end of the file's group region (the index offset); every group must
// fit under it. Bounds are validated so corrupt input surfaces as
// errCorrupt, never as a panic or runaway allocation.
func parseColGroupIndex(buf []byte, dataLimit int64) ([]colGroupMeta, error) {
	r := &byteReader{b: buf}
	count, ok := r.uvarint()
	if !ok || count > uint64(len(buf)) {
		return nil, errCorrupt("group index count")
	}
	groups := make([]colGroupMeta, 0, count)
	for i := uint64(0); i < count; i++ {
		var g colGroupMeta
		off, ok1 := r.uvarint()
		length, ok2 := r.uvarint()
		rows, ok3 := r.uvarint()
		if !ok1 || !ok2 || !ok3 || off > uint64(1)<<62 || length > uint64(1)<<31 ||
			dataLimit < 0 || int64(off) > dataLimit || int64(off)+int64(length) > dataLimit {
			return nil, errCorrupt("group bounds")
		}
		if rows == 0 || rows > colMaxGroupRows {
			return nil, errCorrupt("group row count")
		}
		g.off, g.length, g.rows = int64(off), int32(length), int(rows)
		kl, ok := r.uvarint()
		if !ok {
			return nil, errCorrupt("group first key")
		}
		fk, ok := r.bytes(kl)
		if !ok {
			return nil, errCorrupt("group first key")
		}
		g.firstKey = append([]byte(nil), fk...)
		blk := func() (uint32, uint32, bool) {
			o, ok1 := r.uvarint()
			l, ok2 := r.uvarint()
			if !ok1 || !ok2 || o > uint64(g.length) || l > uint64(g.length) || o+l > uint64(g.length) {
				return 0, 0, false
			}
			return uint32(o), uint32(l), true
		}
		if g.keysOff, g.keysLen, ok = blk(); !ok {
			return nil, errCorrupt("group keys block")
		}
		if g.descOff, g.descLen, ok = blk(); !ok {
			return nil, errCorrupt("group desc block")
		}
		if g.overOff, g.overLen, ok = blk(); !ok {
			return nil, errCorrupt("group overflow block")
		}
		// Every row needs at least one desc byte and one key byte.
		if uint64(g.rows) > uint64(g.descLen) || uint64(g.rows) > uint64(g.keysLen) {
			return nil, errCorrupt("group row count")
		}
		ncols, ok := r.uvarint()
		if !ok || ncols > colMaxColumns {
			return nil, errCorrupt("group column count")
		}
		g.cols = make([]colMeta, 0, ncols)
		for j := uint64(0); j < ncols; j++ {
			nl, ok := r.uvarint()
			if !ok {
				return nil, errCorrupt("column name")
			}
			nm, ok := r.bytes(nl)
			if !ok {
				return nil, errCorrupt("column name")
			}
			co, cl, ok := blk()
			if !ok {
				return nil, errCorrupt("column block")
			}
			g.cols = append(g.cols, colMeta{name: append([]byte(nil), nm...), off: co, len: cl})
		}
		groups = append(groups, g)
	}
	return groups, nil
}

// byteReader is a bounds-checked cursor over an untrusted buffer.
type byteReader struct {
	b   []byte
	pos int
}

// uvarint reads one uvarint. It is binary.Uvarint written out so that
// it inlines into the per-row loops of a group read, where it is most of
// the work: not ok past the buffer's end or past 64 bits.
func (r *byteReader) uvarint() (uint64, bool) {
	var v uint64
	for shift := uint(0); shift < 64 && r.pos < len(r.b); shift += 7 {
		c := r.b[r.pos]
		r.pos++
		if c < 0x80 {
			return v | uint64(c)<<shift, shift < 63 || c <= 1
		}
		v |= uint64(c&0x7f) << shift
	}
	return 0, false
}

func (r *byteReader) bytes(n uint64) ([]byte, bool) {
	if n > uint64(len(r.b)-r.pos) {
		return nil, false
	}
	b := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, true
}

// lenPrefixed reads one uvarint length and that many bytes.
func (r *byteReader) lenPrefixed() ([]byte, bool) {
	l, ok := r.uvarint()
	if !ok {
		return nil, false
	}
	return r.bytes(l)
}

// pagesFromGroups derives the fence-key page table the shared lookup
// and cursor machinery navigates by: one logical page per group.
func pagesFromGroups(groups []colGroupMeta) []pageMeta {
	pages := make([]pageMeta, len(groups))
	for i, g := range groups {
		pages[i] = pageMeta{off: g.off, length: g.length, firstKey: g.firstKey}
	}
	return pages
}

// groupBlock reads block b of group i (keys, desc, overflow, then one
// per column) through the buffer cache; an empty block reads as nil.
// With buf set — the block buffer of a filtered walk of a component
// that streams — a miss the cache has no room for is appended to *buf
// instead of being cached (ReadRegionInto).
func (c *Component) groupBlock(i, b int, off, length uint32, buf *[]byte) ([]byte, error) {
	if length == 0 {
		return nil, nil
	}
	g := &c.groups[i]
	region, at := uint32(i)*colRegionStride+1+uint32(b), g.off+int64(off)
	if buf == nil {
		return c.cache.ReadRegion(c.fileID, c.f, region, at, int(length))
	}
	return c.cache.ReadRegionInto(c.fileID, c.f, region, at, int(length), buf)
}

// streams reports whether a filtered walk of c reads its blocks with
// ReadRegionInto: only when c is larger than the whole cache, so that no
// pass over it could stay cached and caching its blocks would only push
// out the rest. The blocks of a smaller component go through
// ReadRegion, cached and evicting like any other read, so a small
// dataset that is scanned again and again comes to sit in the cache
// even when the cache is full of other pages.
func (c *Component) streams() bool {
	return c.size > int64(c.cache.capacity)
}

// buildGroupPage materializes group i into the row-format page wire
// image followed by its entry-offset table: it walks the group with no
// filter (groupWalk) and appends each row's key and entry, then the
// table. With a nil projection it reads the whole group region in one
// read and every entry comes back byte-identical; under a projection it
// reads the keys, descriptor and overflow blocks plus the kept columns
// through the buffer cache, and records come back partial, holding just
// the kept fields. The image is sized from the blocks it is built from.
func (c *Component) buildGroupPage(i int, proj *Projection) ([]byte, error) {
	g := &c.groups[i]
	w := groupWalk{image: true}
	if proj == nil {
		raw := make([]byte, g.length)
		if n, err := c.f.ReadAt(raw, g.off); err != nil && n != len(raw) {
			return nil, fmt.Errorf("storage: read group %d of %s: %w", i, c.path, err)
		}
		c.cache.pagesRead.Add(1)
		w.reset(g, raw[g.keysOff:g.keysOff+g.keysLen], raw[g.descOff:g.descOff+g.descLen], raw[g.overOff:g.overOff+g.overLen], nil)
		for j, cm := range g.cols {
			w.cols[j].r.b = raw[cm.off : cm.off+cm.len]
		}
	} else if err := w.load(c, i, proj); err != nil {
		return nil, err
	}
	// A row's key is stored as in the keys block and a column value
	// without its length; on top come the field's name, the entry's
	// length, flag and record header, and the row's offset.
	size := 2 + len(w.keys.b) + len(w.over.b) + 10*g.rows
	for _, col := range w.cols {
		if col.r.b != nil {
			size += len(col.r.b) + g.rows*len(col.name)
		}
	}
	out := make([]byte, 2, size)
	binary.LittleEndian.PutUint16(out, uint16(g.rows))
	offs := make([]uint32, 0, g.rows) // entry offsets, appended after the entries
	var it pageIter
	for w.next(&it) {
		offs = append(offs, uint32(len(out)))
		out = binary.AppendUvarint(out, uint64(len(it.key)))
		out = append(out, it.key...)
		if it.val == nil { // a record, assembled in place from its kept fields
			out = binary.AppendUvarint(out, uint64(1+adm.RawRecordSize(w.fields)))
			out = adm.AppendRecordFromRaw(append(out, 0), w.fields)
			continue
		}
		out = binary.AppendUvarint(out, uint64(len(it.val)))
		out = append(out, it.val...)
	}
	if it.err != nil {
		return nil, it.err
	}
	for _, off := range offs {
		out = binary.LittleEndian.AppendUint32(out, off)
	}
	return out, nil
}

// tombEntry is the stored form of a tombstone.
var tombEntry = []byte{1}

// groupWalk is the one decoder of a columnar group: it reads the rows
// straight from the group's blocks. A filtered range read walks a group
// in place of an image. It fetches the keys, descriptor and overflow
// blocks, the kept columns and the filter field's column through the
// buffer cache, judges each row on the stored value of the filter field
// — the column bytes, or an overflow field's — and assembles only a row
// that passes, into a scratch entry it owns. Opaque entries are judged
// whole, the way a row page's entry is. A row without the field passes.
// Such a walk builds and caches no image, and in a component larger
// than the cache a block the cache has no room for goes into the walk's
// own buffers (groupBlock, streams), so once its scratch has grown it
// allocates nothing; a cursor source keeps one walk for all its groups.
// A group whose rows all share one field list is walked column by
// column (uniformRow); any other group row by row (record).
// buildGroupPage walks a group with no filter to build the cached
// image, and assembles each record straight into it.
type groupWalk struct {
	filter *RowFilter // nil: every row passes
	// image leaves a record row's kept fields unassembled in fields, for
	// buildGroupPage to append to the image.
	image bool
	left  int // rows not yet walked
	row   int // rows walked

	keys, desc, over byteReader
	cols             []walkCol
	keep             map[string]bool // the projection; nil keeps every field

	// uniform: every row's descriptor is one record of the same distinct
	// column refs (detectUniform), so no row's descriptor is read.
	// urefs[:nurefs] are those refs' columns that were read, in field
	// order, and ufilter the filter's column among them, -1 if none.
	uniform bool
	urefs   [colMaxColumns]uint8
	nurefs  int
	ufilter int

	// bufs are the filtered walk's two generations of block buffers,
	// for the blocks the cache declines. A load fills the generation the
	// previous load did not, so the keys of the group before stay valid
	// while the next one loads (Cursor).
	bufs [2][]byte
	gen  int

	fields []adm.RawField // the current row's kept fields
	entry  []byte         // the current row's assembled entry
}

// walkCol is one column of the group a walk is on.
type walkCol struct {
	r      byteReader // a nil block was not read
	name   []byte
	kept   bool // its values go into assembled rows
	filter bool // it holds the filter field
	at     int  // values read or skipped by a uniform walk's passing rows
}

// reset readies the walk for group g over its keys, descriptor and
// overflow blocks, keeping the fields in keep (nil: every field). Every
// column starts unread: the caller sets the block of each one it read.
func (w *groupWalk) reset(g *colGroupMeta, keys, desc, over []byte, keep map[string]bool) {
	w.keys, w.desc, w.over = byteReader{b: keys}, byteReader{b: desc}, byteReader{b: over}
	w.keep = keep
	w.cols = slices.Grow(w.cols[:0], len(g.cols))
	w.fields = slices.Grow(w.fields[:0], len(g.cols))
	for _, cm := range g.cols {
		w.cols = append(w.cols, walkCol{name: cm.name, kept: keep == nil || keep[string(cm.name)], filter: w.filter.on(cm.name)})
	}
	w.left, w.row, w.uniform = g.rows, 0, false
}

// load readies the walk for group i of c under proj (nil: whole rows),
// fetching the keys, descriptor and overflow blocks and each column it
// reads — kept or filtered — through the buffer cache. A filtered walk
// checks whether the group is uniform and, in a component that streams,
// reads the blocks the cache declines into its next generation of
// buffers.
func (w *groupWalk) load(c *Component, i int, proj *Projection) error {
	var keep map[string]bool
	if proj != nil {
		keep = proj.keep
	}
	g := &c.groups[i]
	w.reset(g, nil, nil, nil, keep)
	var spare *[]byte
	if w.filter != nil && c.streams() {
		w.gen ^= 1
		w.bufs[w.gen] = w.bufs[w.gen][:0]
		spare = &w.bufs[w.gen]
	}
	var err error
	if w.keys.b, err = c.groupBlock(i, 0, g.keysOff, g.keysLen, spare); err != nil {
		return err
	}
	if w.desc.b, err = c.groupBlock(i, 1, g.descOff, g.descLen, spare); err != nil {
		return err
	}
	if w.over.b, err = c.groupBlock(i, 2, g.overOff, g.overLen, spare); err != nil {
		return err
	}
	for j := range w.cols {
		if col := &w.cols[j]; col.kept || col.filter {
			if col.r.b, err = c.groupBlock(i, 3+j, g.cols[j].off, g.cols[j].len, spare); err != nil {
				return err
			}
		}
	}
	if w.filter != nil {
		w.detectUniform()
	}
	return nil
}

// detectUniform sets w.uniform when the group's descriptor block is one
// row's descriptor — a record whose refs are distinct columns, with no
// tombstone, opaque entry or overflow field — repeated once per row:
// the block then has that descriptor's length as a period, which one
// comparison of the block with itself shifted checks. The refs are
// checked against the group's columns here, once for every row.
func (w *groupWalk) detectUniform() {
	r := byteReader{b: w.desc.b}
	d, ok := r.uvarint()
	if !ok || d < 2 || d-2 > uint64(len(w.cols)) {
		return
	}
	w.nurefs, w.ufilter = 0, -1
	var seen uint64 // colMaxColumns bits
	for j := d - 2; j > 0; j-- {
		ref, ok := r.uvarint()
		if !ok || ref == 0 || ref > uint64(len(w.cols)) || seen&(1<<(ref-1)) != 0 {
			return
		}
		seen |= 1 << (ref - 1)
		col := &w.cols[ref-1]
		if col.r.b == nil {
			continue // neither kept nor filtered, or empty: read by no row
		}
		if col.filter {
			if w.ufilter >= 0 {
				return // two columns of the filter's name: take the row walk
			}
			w.ufilter = int(ref - 1)
		}
		w.urefs[w.nurefs] = uint8(ref - 1)
		w.nurefs++
	}
	n, b := r.pos, w.desc.b
	if n*w.left > len(b) || !bytes.Equal(b[n:n*w.left], b[:n*(w.left-1)]) {
		return
	}
	w.uniform = true
}

// next is pageIter.next for a walk: it moves to the group's next row,
// setting it.key and either it.val (the entry, flag byte first) or
// it.rejected. In an image walk a record row's it.val is nil and its
// kept fields are in w.fields.
func (w *groupWalk) next(it *pageIter) bool {
	if w.left == 0 || it.err != nil {
		return false
	}
	key, ok := w.keys.lenPrefixed()
	if !ok {
		it.err = errCorrupt("group key")
		return false
	}
	it.key, it.val, it.rejected = key, nil, false
	if w.uniform {
		if it.err = w.uniformRow(it); it.err != nil {
			return false
		}
		w.left--
		w.row++
		return true
	}
	d, ok := w.desc.uvarint()
	if !ok {
		it.err = errCorrupt("group row descriptor")
		return false
	}
	switch d {
	case 0:
		it.val = tombEntry
	case 1:
		if it.val, ok = w.over.lenPrefixed(); !ok {
			it.err = errCorrupt("group overflow entry")
			return false
		}
		if v, dead := decodeEntry(it.val); !dead && !w.filter.PassRecord(v) {
			it.val, it.rejected = nil, true
		}
	default:
		if it.err = w.record(it, d-2); it.err != nil {
			return false
		}
	}
	w.left--
	w.row++
	return true
}

// uniformRow is record for a row of a uniform group: it judges the row
// on the filter's column alone, and only if the row passes does it
// bring each other column read up to the row — skipping the values of
// the rows rejected since that column was last read — and assemble the
// row's kept fields.
func (w *groupWalk) uniformRow(it *pageIter) error {
	var fv []byte // the filter field's stored value
	if w.ufilter >= 0 {
		v, ok := w.cols[w.ufilter].r.lenPrefixed()
		if !ok {
			return errCorrupt("group column value")
		}
		if !w.filter.Pass(v) {
			it.rejected = true
			return nil
		}
		fv = v
	}
	w.fields = w.fields[:0]
	for _, j := range w.urefs[:w.nurefs] {
		col := &w.cols[j]
		v := fv
		if int(j) != w.ufilter {
			for ; col.at <= w.row; col.at++ {
				var ok bool
				if v, ok = col.r.lenPrefixed(); !ok {
					return errCorrupt("group column value")
				}
			}
		}
		if col.kept {
			w.fields = append(w.fields, adm.RawField{Name: col.name, Val: v})
		}
	}
	w.entry = slices.Grow(w.entry[:0], 1+adm.RawRecordSize(w.fields))
	w.entry = adm.AppendRecordFromRaw(append(w.entry, 0), w.fields)
	it.val = w.entry
	return nil
}

// record walks the nf field references of a record row, then judges it
// and, if it passes, assembles its kept fields (unless the walk builds
// an image).
func (w *groupWalk) record(it *pageIter, nf uint64) error {
	if nf > uint64(len(w.desc.b)) {
		return errCorrupt("group field count")
	}
	w.fields = w.fields[:0]
	var val []byte // the filter field's stored value
	found := false
	for j := uint64(0); j < nf; j++ {
		ref, ok := w.desc.uvarint()
		if !ok || ref > uint64(len(w.cols)) {
			return errCorrupt("group field ref")
		}
		if ref == 0 {
			name, ok1 := w.over.lenPrefixed()
			v, ok2 := w.over.lenPrefixed()
			if !ok1 || !ok2 {
				return errCorrupt("group overflow field")
			}
			if w.filter.on(name) {
				val, found = v, true
			}
			if w.keep == nil || w.keep[string(name)] {
				w.fields = append(w.fields, adm.RawField{Name: name, Val: v})
			}
			continue
		}
		col := &w.cols[ref-1]
		if col.r.b == nil {
			continue // neither kept nor filtered: its block was not read
		}
		v, ok := col.r.lenPrefixed()
		if !ok {
			return errCorrupt("group column value")
		}
		if col.filter {
			val, found = v, true
		}
		if col.kept {
			w.fields = append(w.fields, adm.RawField{Name: col.name, Val: v})
		}
	}
	if found && !w.filter.Pass(val) {
		it.rejected = true
		return nil
	}
	if w.image {
		return nil
	}
	w.entry = slices.Grow(w.entry[:0], 1+adm.RawRecordSize(w.fields))
	w.entry = adm.AppendRecordFromRaw(append(w.entry, 0), w.fields)
	it.val = w.entry
	return nil
}
