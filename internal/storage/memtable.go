package storage

import (
	"bytes"
	"sort"
	"sync"
)

// memtable is the in-memory component of an LSM tree: a hash map for
// O(1) upserts and point reads, sorted lazily when flushed or scanned.
// A nil entry value is a tombstone. The memtable tracks its approximate
// byte footprint so the tree can flush when it exceeds the in-memory
// component budget (Table 2: "Budget for in-memory components").
//
// The memtable carries its own lock so tree snapshots can keep reading
// it after the tree's write path has moved on: mutations happen only
// under the tree's write lock, reads may come from any snapshot holder.
// Entry value slices are never mutated in place (put installs a fresh
// copy), so values handed out by get/snapshotRange stay valid without
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

// memKV is one materialized (key, entry) pair of a memtable range.
type memKV struct {
	key string
	e   memEntry
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

// sortedKeys returns the keys in byte order, optionally restricted to
// [start, end).
func (m *memtable) sortedKeys(start, end []byte) []string {
	m.mu.RLock()
	keys := make([]string, 0, len(m.entries))
	for k := range m.entries {
		kb := []byte(k)
		if start != nil && bytes.Compare(kb, start) < 0 {
			continue
		}
		if end != nil && bytes.Compare(kb, end) >= 0 {
			continue
		}
		keys = append(keys, k)
	}
	m.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// snapshotRange materializes the entries with key in [start, end) in
// key order under one brief lock, so a scan can iterate them without
// holding any lock while it runs user callbacks. Only an unbounded range
// is pre-sized to the memtable: a bounded one (one token's postings out
// of thousands of entries) grows to what it holds.
func (m *memtable) snapshotRange(start, end []byte) []memKV {
	m.mu.RLock()
	var out []memKV
	if start == nil && end == nil {
		out = make([]memKV, 0, len(m.entries))
	}
	for k, e := range m.entries {
		kb := []byte(k)
		if start != nil && bytes.Compare(kb, start) < 0 {
			continue
		}
		if end != nil && bytes.Compare(kb, end) >= 0 {
			continue
		}
		out = append(out, memKV{key: k, e: e})
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}
