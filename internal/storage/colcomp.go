package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
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
// Reads materialize a group back into the row-format page wire image
// (uint16 count + packed entries), so pageIter and the cursor are shared
// between both versions; the reconstruction is byte-identical to the
// original entries, which is what lets merges mix row and columnar
// inputs freely. A projected read fetches only the keys/desc/overflow
// blocks plus the referenced columns and emits partial records
// containing just the projected fields. Either image ends with an
// entry-offset table (one little-endian uint32 per row, after the
// entries the count announces, so a page walk never sees it) that point
// reads binary-search (pageIter.seek). The table exists only in the
// cached image; the file format does not change for it.

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
	name string
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
	keys    [][]byte // retained to build the bloom filter at Finish
	err     error
}

// NewColumnarComponentWriterFS creates a columnar component writer at
// path through an explicit filesystem. pageSize is accepted for
// signature parity with the row writer; groups are sized by row count
// and payload bytes instead.
func NewColumnarComponentWriterFS(fs VFS, path string, pageSize int) (*ColumnarComponentWriter, error) {
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
	cw.keys = append(cw.keys, row.key)
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
		g.cols[i] = colMeta{name: nm, off: off, len: l}
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
	bloom := NewBloomBuilder(len(cw.keys))
	for _, k := range cw.keys {
		bloom.Add(k)
	}
	bl := bloom.marshal(nil)
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
			g.cols = append(g.cols, colMeta{name: string(nm), off: co, len: cl})
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

func (r *byteReader) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, false
	}
	r.pos += n
	return v, true
}

func (r *byteReader) bytes(n uint64) ([]byte, bool) {
	if n > uint64(len(r.b)-r.pos) {
		return nil, false
	}
	b := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, true
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

// buildGroupPage materializes group i into the row-format page wire
// image followed by its entry-offset table. With keep == nil it
// reconstructs every entry byte-identically from the whole group
// region; with a projection it fetches only the keys, desc, and
// overflow blocks plus the kept columns through the buffer cache and
// emits partial records holding just the kept fields.
func (c *Component) buildGroupPage(i int, keep map[string]bool) ([]byte, error) {
	g := c.groups[i]
	var keysB, descB, overB []byte
	colBs := make([][]byte, len(g.cols))
	if keep == nil {
		raw := make([]byte, g.length)
		if n, err := c.f.ReadAt(raw, g.off); err != nil && n != len(raw) {
			return nil, fmt.Errorf("storage: read group %d of %s: %w", i, c.path, err)
		}
		c.cache.pagesRead.Add(1)
		keysB = raw[g.keysOff : g.keysOff+g.keysLen]
		descB = raw[g.descOff : g.descOff+g.descLen]
		overB = raw[g.overOff : g.overOff+g.overLen]
		for j, cm := range g.cols {
			colBs[j] = raw[cm.off : cm.off+cm.len]
		}
	} else {
		base := uint32(i) * colRegionStride
		readBlock := func(b int, off, length uint32) ([]byte, error) {
			if length == 0 {
				return nil, nil
			}
			return c.cache.ReadRegion(c.fileID, c.f, base+1+uint32(b), g.off+int64(off), int(length))
		}
		var err error
		if keysB, err = readBlock(0, g.keysOff, g.keysLen); err != nil {
			return nil, err
		}
		if descB, err = readBlock(1, g.descOff, g.descLen); err != nil {
			return nil, err
		}
		if overB, err = readBlock(2, g.overOff, g.overLen); err != nil {
			return nil, err
		}
		for j, cm := range g.cols {
			if keep[cm.name] {
				if colBs[j], err = readBlock(3+j, cm.off, cm.len); err != nil {
					return nil, err
				}
			}
		}
	}

	keys := &byteReader{b: keysB}
	desc := &byteReader{b: descB}
	over := &byteReader{b: overB}
	colPos := make([]*byteReader, len(g.cols))
	colName := make([][]byte, len(g.cols))
	for j := range g.cols {
		colPos[j] = &byteReader{b: colBs[j]}
		colName[j] = []byte(g.cols[j].name)
	}
	lenPrefixed := func(r *byteReader) ([]byte, bool) {
		l, ok := r.uvarint()
		if !ok {
			return nil, false
		}
		return r.bytes(l)
	}

	out := make([]byte, 2, int(g.length)+int(g.length)/8+64+4*g.rows)
	binary.LittleEndian.PutUint16(out, uint16(g.rows))
	offs := make([]uint32, 0, g.rows) // entry offsets, appended after the entries
	var fields []adm.RawField
	tombEntry := []byte{1}
	for row := 0; row < g.rows; row++ {
		offs = append(offs, uint32(len(out)))
		key, ok := lenPrefixed(keys)
		if !ok {
			return nil, errCorrupt("group key")
		}
		d, ok := desc.uvarint()
		if !ok {
			return nil, errCorrupt("group row descriptor")
		}
		var entry []byte
		switch d {
		case 0:
			entry = tombEntry
		case 1:
			if entry, ok = lenPrefixed(over); !ok {
				return nil, errCorrupt("group overflow entry")
			}
		default:
			nf := d - 2
			if nf > uint64(g.descLen) {
				return nil, errCorrupt("group field count")
			}
			fields = fields[:0]
			for j := uint64(0); j < nf; j++ {
				ref, ok := desc.uvarint()
				if !ok || ref > uint64(len(g.cols)) {
					return nil, errCorrupt("group field ref")
				}
				if ref == 0 {
					name, ok1 := lenPrefixed(over)
					val, ok2 := lenPrefixed(over)
					if !ok1 || !ok2 {
						return nil, errCorrupt("group overflow field")
					}
					if keep == nil || keep[string(name)] {
						fields = append(fields, adm.RawField{Name: name, Val: val})
					}
				} else {
					ci := int(ref - 1)
					if colPos[ci].b == nil {
						continue // projected away: its block was not read
					}
					val, ok := lenPrefixed(colPos[ci])
					if !ok {
						return nil, errCorrupt("group column value")
					}
					if keep == nil || keep[g.cols[ci].name] {
						fields = append(fields, adm.RawField{Name: colName[ci], Val: val})
					}
				}
			}
			out = binary.AppendUvarint(out, uint64(len(key)))
			out = append(out, key...)
			out = binary.AppendUvarint(out, uint64(1+adm.RawRecordSize(fields)))
			out = append(out, 0)
			out = adm.AppendRecordFromRaw(out, fields)
			continue
		}
		out = binary.AppendUvarint(out, uint64(len(key)))
		out = append(out, key...)
		out = binary.AppendUvarint(out, uint64(len(entry)))
		out = append(out, entry...)
	}
	for _, off := range offs {
		out = binary.LittleEndian.AppendUint32(out, off)
	}
	return out, nil
}
