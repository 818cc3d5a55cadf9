package storage

import (
	"context"
	"sync"
)

// TreeSnapshot is a refcounted read view of an LSM tree: references to
// the tree's memtable generations (the active memtable plus every
// rotated, flush-pending immutable memtable) and its immutable
// disk-component list, acquired under a brief lock. Reads against the
// snapshot then proceed without holding any tree lock, so arbitrarily
// slow scans (operator pipelines running user code per tuple) never
// block writers, flushes, or merges — the component-lifecycle
// discipline of LSM storage managers, where immutable disk components
// exist precisely so readers never block writers.
//
// Semantics: the disk-component list is a true point-in-time view
// (merges retire components only after every snapshot referencing them
// is closed). The active-memtable reference is read-committed — a Get
// or the start of a Scan observes writes applied to the still-live
// memtable after the snapshot was taken; once a rotation retires the
// memtable, the snapshot keeps reading the frozen, no-longer-mutated
// instance. Rotated memtables pinned by the snapshot stay readable
// even after the background flusher installs their disk components:
// a snapshot sees each generation exactly once — either the memtable
// it pinned or a component installed before it was taken, never both.
//
// Close must be called exactly once when done; it is what lets retired
// components drain and delete their files.
type TreeSnapshot struct {
	mems       []*memtable  // newest first: active, then rotated generations
	components []*Component // newest first
	once       sync.Once
}

// Snapshot acquires a read view of the tree. The caller must Close it.
func (t *LSMTree) Snapshot() *TreeSnapshot {
	t.mu.RLock()
	s := &TreeSnapshot{
		mems:       make([]*memtable, 0, 1+len(t.imms)),
		components: make([]*Component, len(t.components)),
	}
	s.mems = append(s.mems, t.mem)
	for _, im := range t.imms {
		s.mems = append(s.mems, im.mt)
	}
	copy(s.components, t.components)
	for _, c := range s.components {
		c.acquire()
	}
	t.mu.RUnlock()
	return s
}

// Close releases the snapshot's component references. Idempotent.
func (s *TreeSnapshot) Close() {
	s.once.Do(func() {
		for _, c := range s.components {
			c.release()
		}
	})
}

// Components returns the number of disk components in the view.
func (s *TreeSnapshot) Components() int { return len(s.components) }

// Get returns the newest value for key in the snapshot, consulting the
// memtable generations newest-first and then disk components
// newest-first through their bloom filters. No tree lock is held.
func (s *TreeSnapshot) Get(key []byte) ([]byte, bool, error) {
	return s.GetProjected(key, nil)
}

// GetProjected is Get under a projection (see NewProjection): columnar
// components answer from the projected group image, reading only the
// key, descriptor and overflow blocks and the kept columns, and return
// a partial record; memtables and row-format components return the
// full value. The caller receives at least the projected fields either
// way. A nil projection is a plain Get.
func (s *TreeSnapshot) GetProjected(key []byte, proj *Projection) ([]byte, bool, error) {
	for _, m := range s.mems {
		if v, dead, ok := m.get(key); ok {
			if dead {
				return nil, false, nil
			}
			return v, true, nil
		}
	}
	for _, c := range s.components {
		v, ok, err := c.GetProjected(key, proj)
		if err != nil {
			return nil, false, err
		}
		if ok {
			val, dead := decodeEntry(v)
			if dead {
				return nil, false, nil
			}
			return val, true, nil
		}
	}
	return nil, false, nil
}

// ScanProjected calls fn for each live (key, value) with key in
// [start, end) in key order — a Next loop over one Cursor of the
// snapshot — and returns the number of rows it read. fn must not retain
// its arguments. Iteration stops early if fn returns false, or with
// ctx.Err() once ctx is cancelled (checked every few hundred rows read,
// whether or not fn saw them). fn runs with no lock held, so a slow
// consumer never starves writers. A nil ctx disables cancellation
// checks.
//
// A non-nil fields slice restricts the scan to the named top-level
// record fields: columnar components read only the referenced column
// blocks and yield partial records; memtables and row-format components
// yield full entries — fn receives at least the projected fields either
// way. A nil fields slice scans everything.
//
// A non-nil filter drops the rows it rejects before fn (see RowFilter):
// a columnar group is judged on the filter field's column and only the
// rows that pass are assembled. The rows read are the keys whose newest
// version is not a tombstone, rejected or not.
func (s *TreeSnapshot) ScanProjected(ctx context.Context, start, end []byte, fields []string, filter *RowFilter, fn func(key, value []byte) bool) (rowsRead int64, err error) {
	c := openCursors([]KeyRange{{Start: start, End: end}}, s.mems, s.components, NewProjection(fields), filter, false)[0]
	defer c.Close()
	const cancelCheckEvery = 512
	for c.Next() {
		rowsRead++
		if ctx != nil && rowsRead%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return rowsRead, err
			}
		}
		if !c.rejected && !fn(c.key, c.val) {
			return rowsRead, nil
		}
	}
	return rowsRead, c.err
}
