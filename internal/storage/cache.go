package storage

import (
	"container/list"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
)

// BufferCache is a node-wide LRU page cache. All component files of all
// partitions on a node read their data pages through one cache, like
// AsterixDB's per-node disk buffer cache (Table 2: "Disk buffer cache
// size"). It holds byte slices of any length — a row page, a column
// block of a few bytes, a group image of a few hundred KiB — and
// charges each the memory it holds, its capacity: the least recently
// used go while the resident bytes exceed the capacity of the cache, so
// at most one entry (the newest, when it alone is larger) sits above
// it. Thread safe.
type BufferCache struct {
	capacity int // in bytes

	mu       sync.Mutex
	entries  map[pageKey]*list.Element
	lru      *list.List // front = most recently used
	resident int        // capacity of the cached entries' slices

	hits      atomic.Int64
	misses    atomic.Int64
	pagesRead atomic.Int64
	evictions atomic.Int64
	streamed  atomic.Int64
}

type pageKey struct {
	fileID uint64
	pageNo uint32
	// tag distinguishes derived views of the same region: "" for the
	// raw bytes or the full built page, a projection signature for a
	// projected build (see ReadBuiltTagged).
	tag string
}

type cacheEntry struct {
	key  pageKey
	data []byte
}

// NewBufferCache creates a cache of capacityBytes total, at least four
// pages of the given page size.
func NewBufferCache(capacityBytes, pageSize int) *BufferCache {
	return &BufferCache{
		capacity: max(capacityBytes, 4*pageSize),
		entries:  make(map[pageKey]*list.Element),
		lru:      list.New(),
	}
}

// ReadRegion returns bytes [off, off+length) of the reader identified
// by fileID, fetched through the cache and keyed by the region ordinal
// regionNo (a row page, or one block of a columnar group). The returned
// slice is shared — callers must not modify it.
func (c *BufferCache) ReadRegion(fileID uint64, r io.ReaderAt, regionNo uint32, off int64, length int) ([]byte, error) {
	key := pageKey{fileID: fileID, pageNo: regionNo}
	if data, ok, _ := c.lookup(key, 0); ok {
		return data, nil
	}
	return c.readMiss(key, r, off, make([]byte, length))
}

// ReadRegionInto is ReadRegion for a scan, which reads each region once
// per pass: a miss is cached only when it fits beside the resident bytes
// without evicting anything. Otherwise the region is appended to *buf —
// the caller's, grown only when it lacks the room — and returned from
// there, not cached; Stats counts it in Streamed. A scan of more data
// than the cache holds then neither pushes out what the cache holds nor
// allocates a block per miss. A returned slice outside *buf is shared,
// as ReadRegion's is.
func (c *BufferCache) ReadRegionInto(fileID uint64, r io.ReaderAt, regionNo uint32, off int64, length int, buf *[]byte) ([]byte, error) {
	key := pageKey{fileID: fileID, pageNo: regionNo}
	data, ok, fits := c.lookup(key, length)
	if ok {
		return data, nil
	}
	if fits {
		return c.readMiss(key, r, off, make([]byte, length))
	}
	n := len(*buf)
	*buf = slices.Grow(*buf, length)[:n+length]
	data = (*buf)[n : n+length : n+length]
	if err := readFull(r, data, off, key); err != nil {
		return nil, err
	}
	c.pagesRead.Add(1)
	c.streamed.Add(1)
	return data, nil
}

// readMiss reads the region of key into data, a fresh slice of its
// length, and caches it.
func (c *BufferCache) readMiss(key pageKey, r io.ReaderAt, off int64, data []byte) ([]byte, error) {
	if err := readFull(r, data, off, key); err != nil {
		return nil, err
	}
	c.pagesRead.Add(1)
	return c.insert(key, data), nil
}

// readFull fills buf from r at off.
func readFull(r io.ReaderAt, buf []byte, off int64, key pageKey) error {
	n, err := r.ReadAt(buf, off)
	if err != nil && !(err == io.EOF && n == len(buf)) {
		return fmt.Errorf("storage: read region %d of file %d: %w", key.pageNo, key.fileID, err)
	}
	return nil
}

// lookup returns the cached bytes of key, counting a hit or a miss. On
// a miss, fits reports whether an entry of size bytes would fit beside
// the resident ones without evicting any.
func (c *BufferCache) lookup(key pageKey, size int) (data []byte, ok, fits bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.lru.MoveToFront(el)
		data = el.Value.(*cacheEntry).data
	} else {
		fits = c.resident+size <= c.capacity
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return data, ok, fits
}

// insert caches data under key and evicts from the cold end while the
// resident bytes exceed the capacity, the new entry excepted. If another
// reader cached the key first, its copy is kept and returned.
func (c *BufferCache) insert(key pageKey, data []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).data
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, data: data})
	c.resident += cap(data)
	for c.resident > c.capacity && c.lru.Len() > 1 {
		c.remove(c.lru.Back())
		c.evictions.Add(1)
	}
	return data
}

// remove drops one entry; c.mu must be held.
func (c *BufferCache) remove(el *list.Element) {
	e := c.lru.Remove(el).(*cacheEntry)
	delete(c.entries, e.key)
	c.resident -= cap(e.data)
}

// ReadBuilt is ReadRegion for derived pages: on miss it calls build to
// produce the bytes (e.g. materializing a columnar row group into a
// page image) and caches the result under (fileID, regionNo), so
// repeated reads of the same group skip both the disk and the
// reassembly. The returned slice is shared — callers must not modify
// it.
func (c *BufferCache) ReadBuilt(fileID uint64, regionNo uint32, build func() ([]byte, error)) ([]byte, error) {
	return c.ReadBuiltTagged(fileID, regionNo, "", build)
}

// ReadBuiltTagged is ReadBuilt with an extra cache-key tag, so several
// derived views of one region — the full built page and per-projection
// partial pages — can be resident at once without colliding. Repeated
// projected scans of a columnar group then skip both the block reads
// and the reassembly, the same way full scans do.
func (c *BufferCache) ReadBuiltTagged(fileID uint64, regionNo uint32, tag string, build func() ([]byte, error)) ([]byte, error) {
	key := pageKey{fileID: fileID, pageNo: regionNo, tag: tag}
	if data, ok, _ := c.lookup(key, 0); ok {
		return data, nil
	}
	data, err := build()
	if err != nil {
		return nil, err
	}
	return c.insert(key, data), nil
}

// Evict drops every cached page of fileID (called when a component file
// is deleted after compaction).
func (c *BufferCache) Evict(fileID uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.entries {
		if key.fileID == fileID {
			c.remove(el)
		}
	}
}

// CacheStats is a point-in-time snapshot of cache counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	PagesRead int64
	// Evictions counts pages pushed out by capacity pressure (targeted
	// Evict() calls after compaction are not included).
	Evictions int64
	// Resident is the capacity of the cached pages' slices in bytes.
	Resident int64
	// Streamed counts the misses the cache declined to keep: regions a
	// scan read into its own buffers because caching them would have
	// evicted something (ReadRegionInto). They count in PagesRead too.
	Streamed int64
}

// Stats returns the current counters.
func (c *BufferCache) Stats() CacheStats {
	c.mu.Lock()
	resident := c.resident
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		PagesRead: c.pagesRead.Load(),
		Evictions: c.evictions.Load(),
		Resident:  int64(resident),
		Streamed:  c.streamed.Load(),
	}
}

// nextFileID hands out process-unique file ids for cache keying.
var nextFileID atomic.Uint64

// NewFileID returns a process-unique id for keying cached pages.
func NewFileID() uint64 { return nextFileID.Add(1) }

type corruptError string

func errCorrupt(what string) error { return corruptError(what) }

func (e corruptError) Error() string { return "storage: corrupt component: " + string(e) }
