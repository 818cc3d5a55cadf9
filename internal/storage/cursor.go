package storage

import (
	"bytes"
	"slices"
	"sort"
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

// Cursor is a forward-only, seekable read of the live keys of one key
// range of a tree snapshot: memtable generations and disk components
// merged, the newest version of a key winning and tombstones dropped.
// It is the read primitive for callers that want to skip — a T-occurrence
// search jumping ahead in a posting list — where Scan is the one for
// callers that want every entry.
//
// Keys are handed out as slices of the cached page (or of the
// memtable's copy) and stay valid after the cursor moves on; callers
// must not modify them. A cursor holds its own reference on every
// component it reads, so it may outlive the snapshot it came from;
// Close releases them. A cursor is not safe for concurrent use.
type Cursor struct {
	r       KeyRange
	srcs    []cursorSource // newest first: memtable runs, then components
	key     []byte
	valid   bool
	started bool
	err     error
	stats   CursorStats
}

// memKey is one memtable entry of a cursor's range.
type memKey struct {
	key  []byte
	dead bool
}

// cursorSource is one sorted input of a Cursor: the range's run of one
// memtable generation, or one component read page by page.
type cursorSource struct {
	key  []byte
	dead bool // the current entry is a tombstone
	ok   bool // positioned on an entry of the range

	run []memKey // memtable run, when comp is nil
	pos int

	comp *Component
	page int // index of the loaded page, -1 before the first seek
	it   pageIter
}

// Cursors opens one cursor per range. The ranges must be sorted by
// Start and disjoint — a caller bug otherwise, so Cursors panics — which
// is what lets one pass over each memtable generation hand every entry
// to its range. No page is read until a cursor is first moved, and the
// active memtable is read once, here: a cursor sees the writes applied
// before it was opened.
func (s *TreeSnapshot) Cursors(ranges []KeyRange) []*Cursor {
	for i := 1; i < len(ranges); i++ {
		if end := ranges[i-1].End; end == nil || bytes.Compare(end, ranges[i].Start) > 0 {
			panic("storage: Cursors ranges are not sorted and disjoint")
		}
	}
	runs := make([][][]memKey, len(s.mems))
	nsrc := len(ranges) * len(s.components)
	for g, m := range s.mems {
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
		for _, comp := range s.components {
			comp.acquire()
			srcs = append(srcs, cursorSource{comp: comp, page: -1})
		}
		slab[i] = Cursor{r: r, srcs: srcs[first:len(srcs):len(srcs)]}
		out[i] = &slab[i]
	}
	return out
}

// collectRanges returns, for each of the sorted disjoint ranges, the
// memtable's entries inside it in key order — nil when the memtable is
// empty. It is one pass over the hash map for all ranges together,
// under one brief lock.
func (m *memtable) collectRanges(ranges []KeyRange) [][]memKey {
	m.mu.RLock()
	if len(m.entries) == 0 {
		m.mu.RUnlock()
		return nil
	}
	out := make([][]memKey, len(ranges))
	for k, e := range m.entries {
		// The last range starting at or before k is the only one that can
		// hold it.
		i := sort.Search(len(ranges), func(i int) bool { return string(ranges[i].Start) > k }) - 1
		if i < 0 || (ranges[i].End != nil && k >= string(ranges[i].End)) {
			continue
		}
		out[i] = append(out[i], memKey{key: []byte(k), dead: e.tombstone})
	}
	m.mu.RUnlock()
	for _, run := range out {
		if len(run) > 1 {
			slices.SortFunc(run, func(a, b memKey) int { return bytes.Compare(a.key, b.key) })
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
	c.srcs, c.valid = nil, false
}

// settle puts the cursor on the smallest key any source is positioned
// on, skipping keys whose newest version is a tombstone.
func (c *Cursor) settle() bool {
	for c.err == nil {
		best := -1
		for i := range c.srcs {
			// Strictly smaller only: on equal keys the earlier, newer
			// source stays the winner.
			if c.srcs[i].ok && (best < 0 || bytes.Compare(c.srcs[i].key, c.srcs[best].key) < 0) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		if !c.srcs[best].dead {
			c.key, c.valid = c.srcs[best].key, true
			return true
		}
		c.stepPast(c.srcs[best].key)
	}
	c.key, c.valid = nil, false
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
		s.key, s.dead = s.run[s.pos].key, s.run[s.pos].dead
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
	_, s.dead = decodeEntry(s.it.val)
	c.stats.Entries++
}

// load fetches page p through the buffer cache and readies the page
// iterator; false at the end of the component or on error.
func (s *cursorSource) load(c *Cursor, p int) bool {
	s.ok = false
	if p >= len(s.comp.pages) {
		return false
	}
	page, err := s.comp.readPage(p)
	if err == nil {
		s.it = pageIter{page: page}
		err = s.it.init()
	}
	if err != nil {
		c.err = err
		return false
	}
	s.page = p
	c.stats.Pages++
	return true
}
