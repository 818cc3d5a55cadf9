package storage

import "sync"

// memtable is the in-memory component of an LSM tree: a hash map for
// O(1) upserts and point reads, sorted lazily when a cursor reads a
// range of it — a scan, a search or its flush (collectRanges, cursor.go).
// A nil entry value is a tombstone. The memtable tracks its approximate
// byte footprint so the tree can flush when it exceeds the in-memory
// component budget (Table 2: "Budget for in-memory components").
//
// The memtable carries its own lock so tree snapshots can keep reading
// it after the tree's write path has moved on: mutations happen only
// under the tree's write lock, reads may come from any snapshot holder.
// Entry value slices are never mutated in place (put installs a fresh
// copy), so values handed out by get/collectRanges stay valid without
// holding the lock. Once a memtable is rotated out by a flush it is
// never mutated again.
type memtable struct {
	mu      sync.RWMutex
	entries map[string]memEntry
	bytes   int64
}

type memEntry struct {
	value     []byte
	tombstone bool
}

func newMemtable() *memtable {
	return &memtable{entries: make(map[string]memEntry)}
}

// put inserts or replaces a key.
func (m *memtable) put(key, value []byte) {
	v := make([]byte, len(value))
	copy(v, value)
	k := string(key)
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.entries[k]; ok {
		m.bytes -= int64(len(old.value))
	} else {
		m.bytes += int64(len(k)) + 32
	}
	m.entries[k] = memEntry{value: v}
	m.bytes += int64(len(v))
}

// del records a tombstone for the key.
func (m *memtable) del(key []byte) {
	k := string(key)
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.entries[k]; ok {
		m.bytes -= int64(len(old.value))
	} else {
		m.bytes += int64(len(k)) + 32
	}
	m.entries[k] = memEntry{tombstone: true}
}

// get returns (value, tombstone, present).
func (m *memtable) get(key []byte) ([]byte, bool, bool) {
	m.mu.RLock()
	e, ok := m.entries[string(key)]
	m.mu.RUnlock()
	if !ok {
		return nil, false, false
	}
	return e.value, e.tombstone, true
}

func (m *memtable) len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.entries)
}

func (m *memtable) sizeBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}
