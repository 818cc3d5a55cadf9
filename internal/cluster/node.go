package cluster

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"

	"simdb/internal/invindex"
	"simdb/internal/storage"
)

// NodeController owns one simulated node's local state: a directory on
// disk, a buffer cache, and the local partitions of every dataset's
// primary LSM B+-tree and secondary inverted indexes (co-partitioned
// with the primary, as in the paper).
type NodeController struct {
	ID    int
	dir   string
	cache *storage.BufferCache
	// maint is the node's background flush/merge worker pool, shared by
	// every LSM tree (primary and inverted) on the node so total
	// maintenance I/O per node stays bounded regardless of tree count.
	maint *storage.Scheduler

	// fs routes every storage file operation so crash-recovery tests
	// can inject faults; defaults to the real filesystem.
	fs storage.VFS

	mu        sync.Mutex
	primaries map[string]*storage.LSMTree // key: dv.ds/p<part>
	inverted  map[string]*invindex.Index  // key: dv.ds.ix/p<part>
	// wals holds one write-ahead log per dataset partition, shared by
	// the primary tree and every secondary index of that partition so a
	// record and its postings commit atomically. Key: dv.ds/p<part>.
	wals map[string]*storage.WAL
	cfg  Config
}

func newNodeController(id int, cfg Config) (*NodeController, error) {
	fs := cfg.FS
	if fs == nil {
		fs = storage.OS
	}
	dir := filepath.Join(cfg.DataDir, fmt.Sprintf("node%d", id))
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("cluster: node %d storage: %w", id, err)
	}
	return &NodeController{
		ID:        id,
		dir:       dir,
		cache:     storage.NewBufferCache(int(cfg.DiskBufferCacheBytes), cfg.PageSize),
		maint:     storage.NewScheduler(cfg.MaintenanceWorkers),
		fs:        fs,
		primaries: map[string]*storage.LSMTree{},
		inverted:  map[string]*invindex.Index{},
		wals:      map[string]*storage.WAL{},
		cfg:       cfg,
	}, nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-', r == '.':
			return r
		}
		return '_'
	}, s)
}

func (n *NodeController) lsmOptions() storage.LSMOptions {
	return storage.LSMOptions{
		PageSize:       n.cfg.PageSize,
		MemBudgetBytes: n.cfg.MemComponentBudgetBytes,
		Cache:          n.cache,
		Maintenance:    n.maint,
		MaxImmutable:   n.cfg.StallThreshold,
		FS:             n.fs,
	}
}

// walForLocked opens (or returns) the dataset partition's shared WAL.
// Returns nil when WALSyncMode is "off". Caller holds n.mu.
func (n *NodeController) walForLocked(dv, ds string, part int) (*storage.WAL, error) {
	if storage.WALSyncMode(n.cfg.WALSyncMode) == storage.WALSyncOff {
		return nil, nil
	}
	key := fmt.Sprintf("%s.%s/p%d", dv, ds, part)
	if w, ok := n.wals[key]; ok {
		return w, nil
	}
	dir := filepath.Join(n.dir, sanitize(dv), sanitize(ds), fmt.Sprintf("w%d", part))
	w, err := storage.OpenWAL(dir, storage.WALOptions{
		Mode: storage.WALSyncMode(n.cfg.WALSyncMode),
		FS:   n.fs,
	})
	if err != nil {
		return nil, err
	}
	n.wals[key] = w
	return w, nil
}

// partitionWAL returns the dataset partition's WAL, opening it if
// needed; nil when the WAL is disabled.
func (n *NodeController) partitionWAL(dv, ds string, part int) (*storage.WAL, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.walForLocked(dv, ds, part)
}

// primary opens (or creates) the local partition of a dataset's primary
// index. Its flushes and merges write columnar components; components
// of either version already on disk stay readable.
func (n *NodeController) primary(dv, ds string, part int) (*storage.LSMTree, error) {
	key := fmt.Sprintf("%s.%s/p%d", dv, ds, part)
	n.mu.Lock()
	defer n.mu.Unlock()
	if t, ok := n.primaries[key]; ok {
		return t, nil
	}
	wal, err := n.walForLocked(dv, ds, part)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(n.dir, sanitize(dv), sanitize(ds), fmt.Sprintf("p%d", part))
	opts := n.lsmOptions()
	opts.WAL, opts.WALTree, opts.Columnar = wal, "p", true
	t, err := storage.OpenLSM(dir, opts)
	if err != nil {
		return nil, err
	}
	n.primaries[key] = t
	return t, nil
}

// invIndex opens (or creates) the local partition of a secondary
// inverted index.
func (n *NodeController) invIndex(dv, ds, ix string, part int) (*invindex.Index, error) {
	key := fmt.Sprintf("%s.%s.%s/p%d", dv, ds, ix, part)
	n.mu.Lock()
	defer n.mu.Unlock()
	if t, ok := n.inverted[key]; ok {
		return t, nil
	}
	wal, err := n.walForLocked(dv, ds, part)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(n.dir, sanitize(dv), sanitize(ds), "idx_"+sanitize(ix), fmt.Sprintf("p%d", part))
	opts := n.lsmOptions()
	opts.WAL, opts.WALTree = wal, "i:"+ix
	t, err := invindex.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	n.inverted[key] = t
	return t, nil
}

// dropDataset closes and removes all local partitions of a dataset.
func (n *NodeController) dropDataset(dv, ds string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	prefix := fmt.Sprintf("%s.%s", dv, ds)
	for key, t := range n.primaries {
		if strings.HasPrefix(key, prefix+"/") {
			t.Close()
			delete(n.primaries, key)
		}
	}
	for key, t := range n.inverted {
		if strings.HasPrefix(key, prefix+".") {
			t.Close()
			delete(n.inverted, key)
		}
	}
	for key, w := range n.wals {
		if strings.HasPrefix(key, prefix+"/") {
			w.Close()
			delete(n.wals, key)
		}
	}
	return n.fs.RemoveAll(filepath.Join(n.dir, sanitize(dv), sanitize(ds)))
}

// close shuts down every open tree, then the node's maintenance pool
// (trees first: their Close waits out in-flight background work before
// the pool's workers go away).
func (n *NodeController) close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	var first error
	for _, t := range n.primaries {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, t := range n.inverted {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	// WALs close after every tree that logs to them: tree Close runs a
	// final flush whose checkpoint still appends to the WAL.
	for _, w := range n.wals {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	n.primaries = map[string]*storage.LSMTree{}
	n.inverted = map[string]*invindex.Index{}
	n.wals = map[string]*storage.WAL{}
	n.maint.Close()
	return first
}

// WALSegments returns the total live WAL segment-file count across the
// node's partitions (metrics).
func (n *NodeController) WALSegments() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, w := range n.wals {
		total += w.SegmentCount()
	}
	return total
}

// CacheStats exposes the node's buffer-cache counters.
func (n *NodeController) CacheStats() storage.CacheStats { return n.cache.Stats() }

// MaintenanceStats exposes the node's background-maintenance pool
// counters.
func (n *NodeController) MaintenanceStats() storage.SchedulerStats { return n.maint.Stats() }
