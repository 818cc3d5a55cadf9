package storage

import (
	"bytes"
	"slices"
	"sort"

	"simdb/internal/adm"
)

// KeyRange is the half-open key interval [Start, End). A nil Start
// begins at the first key; a nil End runs to the last.
type KeyRange struct {
	Start, End []byte
}

// CursorStats is the work one Cursor did.
type CursorStats struct {
	// Entries counts the entries inside the range the cursor decoded:
	// those it stopped on and those a SeekGE walked over inside a page.
	// Entries a seek jumped over by a fence key or a binary search are
	// not in it.
	Entries int64
	// Seeks counts the SeekGE calls that had to move the cursor.
	Seeks int64
	// Pages counts the component pages the cursor fetched.
	Pages int64
}

// Cursor is the one merged reader of a tree: a forward-only, seekable
// read of the live entries of one key range, memtable generations and
// disk components merged, the newest version of a key winning and
// tombstones dropped. Scans call Next until it returns false; a
// T-occurrence search jumps ahead in a posting list with SeekGE; flush
// and compaction open one over their inputs only, with tombstones
// surfaced, and write what it yields.
//
// Keys and values are handed out as slices of the cached page (or of
// the memtable's copy) and stay valid after the cursor moves on; callers
// must not modify them. A cursor holds its own reference on every
// component it reads, so it may outlive the snapshot it came from;
// Close releases them. A cursor is not safe for concurrent use.
type Cursor struct {
	r    KeyRange
	srcs []cursorSource // newest first: memtable runs, then components
	// proj, when non-nil, is the projection columnar pages are read under
	// (see readPageView): their values are partial records.
	proj *Projection
	// filter, when non-nil, judges every entry it reads (see RowFilter);
	// only TreeSnapshot.ScanProjected opens such a cursor. An entry the
	// filter rejects is dead for this cursor: it shadows the older
	// versions of its key as a tombstone does. The cursor still stops on
	// it, with rejected set and no value, so that the scan counts it as a
	// row read; it is never handed to the scan's callback. A passing
	// value read from a columnar group lives in the source's scratch and
	// is valid only until the cursor moves.
	filter *RowFilter
	// tombstones makes the cursor stop on keys whose newest version is a
	// tombstone instead of skipping them: what flush and compaction need,
	// since a tombstone must keep shadowing the components below.
	tombstones bool
	cur        *cursorSource // the source the cursor stands on
	key, val   []byte
	rejected   bool // the filter rejected the current key's newest version
	valid      bool
	started    bool
	err        error
	scratch    []byte // entry's encoding of a memtable value
	stats      CursorStats
}

// RowFilter is the row predicate of a filtered scan
// (TreeSnapshot.ScanProjected): Pass judges the stored value of the
// top-level record field Field — its encoding, tag byte first — and a
// row is kept when the field is absent or Pass returns true. A columnar
// group is judged on its column bytes, so a rejected row is never
// assembled; a memtable entry or a row page's entry is judged whole,
// through PassRecord. A filter belongs to one scan at a time: Pass may
// keep scratch state.
type RowFilter struct {
	Field string
	Pass  func(val []byte) bool
}

// PassRecord judges an encoded record: it finds Field's value without
// decoding anything and calls Pass on it. A value that is no
// well-formed record, or lacks the field, passes; so does every value
// under a nil filter.
func (f *RowFilter) PassRecord(rec []byte) bool {
	if f == nil {
		return true
	}
	v, ok := adm.RawFieldValue(rec, f.Field)
	return !ok || f.Pass(v)
}

// on reports whether a filter is set and judges the field name.
func (f *RowFilter) on(name []byte) bool { return f != nil && string(name) == f.Field }

// runEntry is one memtable entry of a cursor's range.
type runEntry struct {
	key, val []byte
	dead     bool
}

// cursorSource is one sorted input of a Cursor, and the only code that
// walks a memtable generation or a component for a range read: the
// range's run of one memtable generation, or one component read page by
// page.
type cursorSource struct {
	key, val []byte
	dead     bool // the current entry is a tombstone
	rejected bool // the cursor's filter rejected the current entry
	ok       bool // positioned on an entry of the range

	run []runEntry // memtable run, when comp is nil
	pos int

	comp *Component
	page int // index of the loaded page, -1 before the first seek
	it   pageIter
	// walk reads this component's columnar groups under the cursor's
	// filter; allocated by the first such load.
	walk *groupWalk
}

// Cursors opens one cursor per range. The ranges must be sorted by
// Start and disjoint — a caller bug otherwise, so Cursors panics — which
// is what lets one pass over each memtable generation hand every entry
// to its range. No page is read until a cursor is first moved, and the
// active memtable is read once, here: a cursor sees the writes applied
// before it was opened.
func (s *TreeSnapshot) Cursors(ranges []KeyRange) []*Cursor {
	return openCursors(ranges, s.mems, s.components, nil, nil, false)
}

// openCursors opens one cursor per range over the given memtable
// generations and components, both newest first.
func openCursors(ranges []KeyRange, mems []*memtable, comps []*Component, proj *Projection, filter *RowFilter, tombstones bool) []*Cursor {
	for i := 1; i < len(ranges); i++ {
		if end := ranges[i-1].End; end == nil || bytes.Compare(end, ranges[i].Start) > 0 {
			panic("storage: Cursors ranges are not sorted and disjoint")
		}
	}
	runs := make([][][]runEntry, len(mems))
	nsrc := len(ranges) * len(comps)
	for g, m := range mems {
		runs[g] = m.collectRanges(ranges)
		for _, run := range runs[g] {
			if len(run) > 0 {
				nsrc++
			}
		}
	}
	// One slab each for the cursors and for their sources: a search opens
	// a cursor per token and closes them all a millisecond later.
	slab := make([]Cursor, len(ranges))
	srcs := make([]cursorSource, 0, nsrc)
	out := make([]*Cursor, len(ranges))
	for i, r := range ranges {
		first := len(srcs)
		for g := range runs {
			if runs[g] != nil && len(runs[g][i]) > 0 {
				srcs = append(srcs, cursorSource{run: runs[g][i]})
			}
		}
		for _, comp := range comps {
			comp.acquire()
			srcs = append(srcs, cursorSource{comp: comp, page: -1})
		}
		slab[i] = Cursor{r: r, srcs: srcs[first:len(srcs):len(srcs)], proj: proj, filter: filter, tombstones: tombstones}
		out[i] = &slab[i]
	}
	return out
}

// collectRanges returns, for each of the sorted disjoint ranges, the
// memtable's entries inside it in key order — nil when the memtable is
// empty. It is one pass over the hash map for all ranges together,
// under one brief lock, so whoever walks the runs holds no lock while it
// runs user callbacks. Entry values are never mutated in place, so the
// runs stay valid after the lock is gone.
func (m *memtable) collectRanges(ranges []KeyRange) [][]runEntry {
	m.mu.RLock()
	if len(m.entries) == 0 {
		m.mu.RUnlock()
		return nil
	}
	out := make([][]runEntry, len(ranges))
	if len(ranges) == 1 && ranges[0].Start == nil && ranges[0].End == nil {
		// Only the unbounded range is pre-sized to the memtable: a bounded
		// one (one token's postings out of thousands of entries) grows to
		// what it holds.
		out[0] = make([]runEntry, 0, len(m.entries))
	}
	for k, e := range m.entries {
		// The last range starting at or before k is the only one that can
		// hold it.
		i := sort.Search(len(ranges), func(i int) bool { return string(ranges[i].Start) > k }) - 1
		if i < 0 || (ranges[i].End != nil && k >= string(ranges[i].End)) {
			continue
		}
		out[i] = append(out[i], runEntry{key: []byte(k), val: e.value, dead: e.tombstone})
	}
	m.mu.RUnlock()
	for _, run := range out {
		if len(run) > 1 {
			slices.SortFunc(run, func(a, b runEntry) int { return bytes.Compare(a.key, b.key) })
		}
	}
	return out
}

// Next advances to the next live key of the range and reports whether
// there is one. The first call positions the cursor on the first key.
func (c *Cursor) Next() bool {
	if !c.started {
		return c.SeekGE(c.r.Start)
	}
	if !c.valid {
		return false
	}
	c.stepPast(c.key)
	return c.settle()
}

// SeekGE moves forward to the first live key >= key and reports whether
// there is one. A key at or before the current position leaves the
// cursor where it is, and a key before the range's start means the
// start. Inside a component the seek walks forward within the loaded
// page while key can still lie on it and otherwise jumps by the resident
// fence keys, so the pages in between are never read.
func (c *Cursor) SeekGE(key []byte) bool {
	if c.err != nil {
		return false
	}
	if c.started {
		if !c.valid || bytes.Compare(c.key, key) >= 0 {
			return c.valid
		}
	} else if bytes.Compare(key, c.r.Start) < 0 {
		key = c.r.Start
	}
	c.stats.Seeks++
	for i := range c.srcs {
		if s := &c.srcs[i]; !c.started || s.ok {
			s.seekGE(c, key)
		}
	}
	c.started = true
	return c.settle()
}

// Key returns the current key; it is meaningful only after Next or
// SeekGE returned true.
func (c *Cursor) Key() []byte { return c.key }

// Value returns the current key's value, under the same condition: the
// whole value from a memtable or a row component, at least the projected
// fields from a columnar component read under a projection.
func (c *Cursor) Value() []byte { return c.val }

// entry returns the current entry as components store it, tombstone
// flag byte first. A memtable value is encoded into the cursor's scratch
// buffer, so the result is valid until the next call.
func (c *Cursor) entry() []byte {
	if c.cur.comp != nil {
		return c.cur.it.val
	}
	c.scratch = append(c.scratch[:0], 0)
	if c.cur.dead {
		c.scratch[0] = 1
	}
	c.scratch = append(c.scratch, c.val...)
	return c.scratch
}

// Err returns the error that ended the cursor early, if any: a failed
// or corrupt page read. A cursor that returned false with a nil Err
// reached the end of its range.
func (c *Cursor) Err() error { return c.err }

// Stats returns the work done so far.
func (c *Cursor) Stats() CursorStats { return c.stats }

// SizeHint estimates the number of entries in the range without
// reading a page: the memtable runs exactly, and for each component its
// mean entries per page for every fence key inside the range. A range
// that lies inside one page of every component therefore counts as
// empty on disk — the hint orders long ranges before short ones and
// says nothing about ranges shorter than a page.
func (c *Cursor) SizeHint() int64 {
	var n int64
	for i := range c.srcs {
		s := &c.srcs[i]
		if s.comp == nil {
			n += int64(len(s.run))
			continue
		}
		last := len(s.comp.pages) - 1
		if c.r.End != nil {
			last = s.comp.findPage(c.r.End)
		}
		if fences := last - max(s.comp.findPage(c.r.Start), 0); fences > 0 {
			n += int64(fences) * s.comp.n / int64(len(s.comp.pages))
		}
	}
	return n
}

// Close releases the cursor's component references; the cursor is at
// its end afterwards. Idempotent.
func (c *Cursor) Close() {
	for i := range c.srcs {
		if comp := c.srcs[i].comp; comp != nil {
			comp.release()
		}
	}
	c.srcs, c.cur, c.valid = nil, nil, false
}

// settle puts the cursor on the smallest key any source is positioned
// on, skipping — unless the cursor surfaces them — keys whose newest
// version is a tombstone.
func (c *Cursor) settle() bool {
	for c.err == nil {
		var best *cursorSource
		for i := range c.srcs {
			// Strictly smaller only: on equal keys the earlier, newer
			// source stays the winner.
			if s := &c.srcs[i]; s.ok && (best == nil || bytes.Compare(s.key, best.key) < 0) {
				best = s
			}
		}
		if best == nil {
			break
		}
		if !best.dead || c.tombstones {
			c.cur, c.key, c.val, c.rejected, c.valid = best, best.key, best.val, best.rejected, true
			return true
		}
		c.stepPast(best.key)
	}
	c.cur, c.key, c.val, c.valid = nil, nil, nil, false
	return false
}

// stepPast advances every source positioned on key by one entry.
func (c *Cursor) stepPast(key []byte) {
	for i := range c.srcs {
		s := &c.srcs[i]
		if !s.ok || !bytes.Equal(s.key, key) {
			continue
		}
		if s.comp == nil {
			s.pos++
			s.takeMem(c)
		} else {
			s.takeNext(c)
		}
	}
}

// seekGE positions the source on its first entry >= target; target is
// never before the range's start.
func (s *cursorSource) seekGE(c *Cursor, target []byte) {
	if s.ok && bytes.Compare(s.key, target) >= 0 {
		return
	}
	if s.comp == nil {
		rest := s.run[s.pos:]
		s.pos += sort.Search(len(rest), func(i int) bool { return bytes.Compare(rest[i].key, target) >= 0 })
		s.takeMem(c)
		return
	}
	pages := s.comp.pages
	// inRange: the entries walked over below belong to the range (they
	// follow an entry that does, or their page starts inside it).
	inRange := s.ok
	if s.page < 0 || (s.page+1 < len(pages) && bytes.Compare(pages[s.page+1].firstKey, target) <= 0) {
		p := max(s.comp.findPage(target), 0)
		if !s.load(c, p) {
			return
		}
		inRange = bytes.Compare(pages[p].firstKey, c.r.Start) >= 0
	}
	s.ok = false
	for s.it.next() {
		if bytes.Compare(s.it.key, target) >= 0 {
			s.take(c)
			return
		}
		if inRange || bytes.Compare(s.it.key, c.r.Start) >= 0 {
			inRange = true
			c.stats.Entries++
		}
	}
	if s.it.err != nil {
		c.err = s.it.err
		return
	}
	// The whole page is below target and the next page's fence key is
	// not: its first entry is the answer.
	if s.load(c, s.page+1) {
		s.takeNext(c)
	}
}

// takeMem makes the run entry at pos the current one.
func (s *cursorSource) takeMem(c *Cursor) {
	if s.ok = s.pos < len(s.run); s.ok {
		e := &s.run[s.pos]
		s.key, s.val, s.dead = e.key, e.val, e.dead
		s.rejected = !e.dead && !c.filter.PassRecord(e.val)
		c.stats.Entries++
	}
}

// takeNext makes the component's next entry the current one, moving to
// the following page when the loaded one is used up.
func (s *cursorSource) takeNext(c *Cursor) {
	s.ok = false
	for !s.it.next() {
		if s.it.err != nil {
			c.err = s.it.err
			return
		}
		if !s.load(c, s.page+1) {
			return
		}
	}
	s.take(c)
}

// take makes the entry the page iterator just decoded the current one,
// unless it lies past the range's end, which ends the source.
func (s *cursorSource) take(c *Cursor) {
	if c.r.End != nil && bytes.Compare(s.it.key, c.r.End) >= 0 {
		s.ok = false
		return
	}
	s.key, s.ok = s.it.key, true
	c.stats.Entries++
	if s.rejected = s.it.rejected; s.rejected {
		s.val, s.dead = nil, false // judged by the walk on its column
		return
	}
	s.val, s.dead = decodeEntry(s.it.val)
	s.rejected = !s.dead && s.it.walk == nil && !c.filter.PassRecord(s.val)
}

// load fetches page p through the buffer cache, under the cursor's
// projection if it has one, and readies the page iterator; false at the
// end of the component or on error. Under a filter a columnar group is
// walked from its blocks instead (see groupWalk).
func (s *cursorSource) load(c *Cursor, p int) bool {
	s.ok = false
	if p >= len(s.comp.pages) {
		return false
	}
	var err error
	if c.filter != nil && s.comp.groups != nil {
		if s.walk == nil {
			s.walk = &groupWalk{filter: c.filter}
		}
		s.it = pageIter{walk: s.walk}
		err = s.walk.load(s.comp, p, c.proj)
	} else {
		var page []byte
		if page, err = s.comp.readPageView(p, c.proj); err == nil {
			s.it = pageIter{page: page}
			err = s.it.init()
		}
	}
	if err != nil {
		c.err = err
		return false
	}
	s.page = p
	c.stats.Pages++
	return true
}
