package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"simdb/internal/adm"
	"simdb/internal/algebra"
	"simdb/internal/aqlp"
	"simdb/internal/hyracks"
	"simdb/internal/invindex"
	"simdb/internal/obs/trace"
	"simdb/internal/optimizer"
	"simdb/internal/storage"
	"simdb/internal/tokenizer"
)

// Cluster is the simulated deployment: the cluster controller plus its
// node controllers.
type Cluster struct {
	cfg     Config
	Catalog *Catalog
	nodes   []*NodeController

	// localNode is the node index this process hosts, or -1 when every
	// node lives in-process (the inproc transport). In tcp mode the
	// coordinator hosts node 0 and each worker process hosts one other
	// node; nodes[] entries for non-local nodes are nil.
	localNode int
	// remote is the coordinator's handle on the worker processes in tcp
	// mode; nil otherwise (including inside worker processes).
	remote *remoteCoordinator

	// tOccAlgo is the T-occurrence solver of every secondary-index
	// search, parsed from cfg.TOccurrence when the cluster is built.
	tOccAlgo invindex.Algorithm

	autoPK    atomic.Int64
	simNetLat atomic.Int64 // test seam, see SetSimNetLatency (nanoseconds)

	// running holds the in-flight queries by ID (introspection and
	// cancellation); tracer keeps the traces of finished ones. Each
	// budgeted query's spill run files live under DataDir/tmp/q<queryID>.
	runningMu sync.Mutex
	running   map[uint64]*queryRun
	tracer    *trace.Tracer
	// memBudget is the per-query operator memory budget of a session
	// that sets none (0 = unlimited), read from SIMDB_TEST_MEMORY_BUDGET.
	memBudget int64

	planCache *PlanCache
	qm        *QueryManager

	// memo holds the join memo's entries; versions maps dsKey to the
	// dataset's *dataVersion, the write counters an entry is valid for.
	memo     *memoStore
	versions sync.Map
	// memoResolved, when set, is called with a memo's key once job
	// generation has resolved it: a test seam for writes that land
	// between job generation and execution.
	memoResolved func(key string)

	// ddlMu serializes structural DDL against writers: InsertBatch holds
	// the read side for the whole batch so the catalog view it acts on
	// (which indexes exist) cannot change mid-batch, and create index /
	// drop dataset / close hold the write side — which also waits out
	// every batch in flight, since batches complete before releasing the
	// read side.
	ddlMu sync.RWMutex

	// ingClosed (read and written under ddlMu) rejects inserts after
	// Close; ingesting counts the records of InsertBatch calls in flight.
	ingClosed bool
	ingesting atomic.Int64

	// testIndexFail, when set by tests, is consulted before every
	// secondary-index insert to inject failures for the atomicity
	// regression tests.
	testIndexFail atomic.Pointer[func(dv, ds, ix string) error]
}

// New creates a cluster with fresh node storage under cfg.DataDir.
// With Transport "tcp" it also spawns one worker process per non-zero
// node (this executable run again; see MaybeRunWorker) and forms the TCP mesh before returning; this
// process then hosts node 0 and coordinates.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.WithDefaults()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("cluster: DataDir is required")
	}
	if !storage.ValidWALSyncMode(cfg.WALSyncMode) {
		return nil, fmt.Errorf("cluster: invalid WALSyncMode %q (want commit, interval, or off)", cfg.WALSyncMode)
	}
	localNode := hyracks.AllNodes
	switch cfg.Transport {
	case "inproc":
	case "tcp":
		if cfg.FS != nil {
			return nil, fmt.Errorf("cluster: the tcp transport requires FS=nil (a VFS cannot cross process boundaries)")
		}
		if cfg.NumNodes < 2 {
			return nil, fmt.Errorf("cluster: the tcp transport needs NumNodes >= 2, got %d", cfg.NumNodes)
		}
		localNode = 0
	default:
		return nil, fmt.Errorf("cluster: invalid Transport %q (want inproc or tcp)", cfg.Transport)
	}
	c, err := newCluster(cfg, localNode)
	if err != nil {
		return nil, err
	}
	if cfg.Transport == "tcp" {
		r, err := startRemote(c)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.remote = r
	}
	return c, nil
}

// newCluster builds the in-process half of a cluster. localNode < 0
// hosts every node; otherwise only nodes[localNode] gets storage (the
// per-process layout of tcp mode, used by both the coordinator and
// runWorker).
func newCluster(cfg Config, localNode int) (*Cluster, error) {
	algo, err := invindex.ParseAlgorithm(cfg.TOccurrence)
	if err != nil {
		return nil, fmt.Errorf("cluster: TOccurrence: %w", err)
	}
	c := &Cluster{
		cfg:       cfg,
		Catalog:   NewCatalog(),
		localNode: localNode,
		tOccAlgo:  algo,
		planCache: NewPlanCache(planCacheSize),
		memo:      newMemoStore(),
		qm:        newQueryManager(cfg.MaxConcurrentQueries, cfg.QueryTimeout, cfg.AdmissionTimeout),
		running:   map[uint64]*queryRun{},
		tracer:    trace.Default(),
	}
	// The CI low-memory job forces spill paths under the whole test
	// suite through this.
	if env := os.Getenv("SIMDB_TEST_MEMORY_BUDGET"); env != "" {
		if c.memBudget, err = aqlp.ParseMemorySize(env); err != nil {
			return nil, fmt.Errorf("cluster: SIMDB_TEST_MEMORY_BUDGET: %w", err)
		}
	}
	c.Catalog.onEpoch = func(epoch uint64) { c.memo.purge(epoch) }
	for i := 0; i < cfg.NumNodes; i++ {
		if localNode >= 0 && i != localNode {
			c.nodes = append(c.nodes, nil)
			continue
		}
		n, err := newNodeController(i, cfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// Close shuts down every node (quiescing its background maintenance)
// and sweeps any leftover spill temp directories (normally already
// removed per query). Taking the DDL write lock waits out in-flight
// batches, so no record is dropped from a batch whose InsertBatch call
// had already been accepted.
func (c *Cluster) Close() error {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	c.ingClosed = true
	var errs []error
	if c.remote != nil {
		// Stop the worker processes before local storage: their last
		// replies are in (ddlMu excludes new work), and a clean shutdown
		// releases every TCP port.
		if err := c.remote.shutdown(); err != nil {
			errs = append(errs, err)
		}
		c.remote = nil
	}
	for _, n := range c.nodes {
		if n == nil {
			continue
		}
		if err := n.close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := os.RemoveAll(c.spillTmpRoot()); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// spillTmpRoot is the base directory for per-query spill run files.
func (c *Cluster) spillTmpRoot() string {
	return filepath.Join(c.cfg.DataDir, "tmp")
}

// Config returns the effective configuration.
func (c *Cluster) Config() Config { return c.cfg }

// SetSimNetLatency is a test seam: it makes every cross-node frame
// transfer of the inproc transport sleep for d (0, the default, keeps
// transfers instantaneous), so a test can hold a query in flight long
// enough to cancel it, list it or disconnect from it. No production
// code calls it and the tcp transport ignores it.
func (c *Cluster) SetSimNetLatency(d time.Duration) {
	c.simNetLat.Store(int64(d))
}

// Nodes returns the node controllers (read-only use).
func (c *Cluster) Nodes() []*NodeController { return c.nodes }

// nodeOfPartition maps a global partition to its node controller (nil
// for partitions hosted by another process in tcp mode; callers on
// storage paths only reach partitions this process hosts).
func (c *Cluster) nodeOfPartition(part int) *NodeController {
	return c.nodes[part/c.cfg.PartitionsPerNode]
}

// hostsPartition reports whether this process stores partition part.
func (c *Cluster) hostsPartition(part int) bool {
	return c.localNode < 0 || part/c.cfg.PartitionsPerNode == c.localNode
}

// partitionOfPK hash-partitions a primary key.
func (c *Cluster) partitionOfPK(pk adm.Value) int {
	return int(adm.Hash(pk) % uint64(c.cfg.Partitions()))
}

// Insert adds one record to a dataset, maintaining every secondary
// index. It is a batch of one: the record is hash-routed on the
// primary key to its partition, whose primary entry and index entries
// are applied as a unit.
// Insert is safe to call concurrently with queries and with other
// inserts; it briefly excludes structural DDL (create index / drop
// dataset) so the set of indexes it maintains matches the catalog
// entry it read.
func (c *Cluster) Insert(dv, ds string, rec adm.Value) error {
	return c.InsertBatch(dv, ds, []adm.Value{rec})
}

// IndexTokens extracts the secondary keys of a record for an index:
// counted word tokens (or list elements) for keyword indexes, counted
// padded n-grams for n-gram indexes, and the raw encoded value for
// btree indexes. Counted form ("the#1", "the#2") keeps the
// T-occurrence bound sound on fields with repeated tokens — multiset
// similarity over tokens equals set similarity over counted tokens.
func IndexTokens(ix optimizer.IndexMeta, rec adm.Value) []string {
	if rec.Kind() != adm.KindRecord {
		return nil
	}
	v, ok := rec.Rec().GetPath(ix.Field)
	if !ok || v.IsNull() {
		return nil
	}
	switch ix.Type {
	case "keyword":
		if v.Kind() == adm.KindString {
			return tokenizer.CountedStrings(tokenizer.WordTokens(v.Str()))
		}
		toks, _ := algebra.TokensOf(v)
		return tokenizer.CountedStrings(toks)
	case "ngram":
		if v.Kind() == adm.KindString {
			return tokenizer.CountedStrings(tokenizer.GramTokens(v.Str(), ix.GramLen, true))
		}
	case "btree":
		return []string{string(adm.OrderedKey(v))}
	}
	return nil
}

// FlushAll waits out in-flight batches, forces every open LSM
// component to disk, and quiesces background maintenance (used after
// loads to make Table 5's sizes observable and deterministic).
//
// The tree maps are snapshotted under each node's mutex but the
// flushes themselves run outside it, so a slow flush never blocks the
// node's tree-open path; taking the DDL write lock first waits out
// in-flight batches. Every tree is attempted and all failures are
// reported, not just the first.
func (c *Cluster) FlushAll() error {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	err := c.flushLocal()
	if c.remote != nil {
		return errors.Join(err, c.remote.flushAll())
	}
	return err
}

// flushLocal flushes and quiesces every tree hosted by THIS process —
// all nodes inproc, one node per process in tcp mode.
func (c *Cluster) flushLocal() error {
	var errs []error
	for _, n := range c.nodes {
		if n == nil {
			continue
		}
		n.mu.Lock()
		primaries := make([]*storage.LSMTree, 0, len(n.primaries))
		for _, t := range n.primaries {
			primaries = append(primaries, t)
		}
		inverted := make([]*invindex.Index, 0, len(n.inverted))
		for _, t := range n.inverted {
			inverted = append(inverted, t)
		}
		n.mu.Unlock()
		for _, t := range primaries {
			if err := t.Flush(); err != nil {
				errs = append(errs, err)
				continue
			}
			if err := t.Quiesce(); err != nil {
				errs = append(errs, err)
			}
		}
		for _, t := range inverted {
			if err := t.Flush(); err != nil {
				errs = append(errs, err)
				continue
			}
			if err := t.Quiesce(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// BuildIndex bulk-builds one secondary index from the dataset's current
// contents: it scans each partition, tokenizes, sorts the records'
// entry keys, and bulk-loads them into a single component — the build
// path Table 5 times.
func (c *Cluster) BuildIndex(dv, ds string, ix optimizer.IndexMeta) error {
	if err := c.buildIndexLocal(dv, ds, ix); err != nil {
		return err
	}
	if c.remote != nil {
		return c.remote.buildIndex(dv, ds, ix)
	}
	return nil
}

// buildIndexLocal builds the index over the partitions hosted by this
// process.
func (c *Cluster) buildIndexLocal(dv, ds string, ix optimizer.IndexMeta) error {
	if _, ok := c.Catalog.Dataset(dv, ds); !ok {
		return fmt.Errorf("cluster: unknown dataset %s.%s", dv, ds)
	}
	for part := 0; part < c.cfg.Partitions(); part++ {
		if !c.hostsPartition(part) {
			continue
		}
		node := c.nodeOfPartition(part)
		tree, err := node.primary(dv, ds, part)
		if err != nil {
			return err
		}
		inv, err := node.invIndex(dv, ds, ix.Name, part)
		if err != nil {
			return err
		}
		var keys [][]byte
		err = tree.Scan(nil, nil, func(key, val []byte) bool {
			rec, _, derr := adm.Decode(val)
			if derr != nil {
				err = derr
				return false
			}
			if tokens := IndexTokens(ix, rec); len(tokens) > 0 {
				keys = append(keys, inv.EntryKeys(tokens, invindex.PK(key))...)
			}
			return true
		})
		if err != nil {
			return err
		}
		slices.SortFunc(keys, bytes.Compare)
		i := 0
		err = inv.BulkLoad(func() ([]byte, bool, error) {
			if i >= len(keys) {
				return nil, false, nil
			}
			i++
			return keys[i-1], true, nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// IndexStats aggregates the on-disk footprint of one index (or the
// primary when ixName is "") across all partitions.
func (c *Cluster) IndexStats(dv, ds, ixName string) (storage.Stats, error) {
	total, err := c.indexStatsLocal(dv, ds, ixName)
	if err != nil {
		return total, err
	}
	if c.remote != nil {
		rs, err := c.remote.indexStats(dv, ds, ixName)
		if err != nil {
			return total, err
		}
		total.MemEntries += rs.MemEntries
		total.MemBytes += rs.MemBytes
		total.DiskComponents += rs.DiskComponents
		total.DiskEntries += rs.DiskEntries
		total.DiskBytes += rs.DiskBytes
	}
	return total, nil
}

// indexStatsLocal sums the footprint over this process's partitions.
func (c *Cluster) indexStatsLocal(dv, ds, ixName string) (storage.Stats, error) {
	var total storage.Stats
	for part := 0; part < c.cfg.Partitions(); part++ {
		if !c.hostsPartition(part) {
			continue
		}
		node := c.nodeOfPartition(part)
		var s storage.Stats
		if ixName == "" {
			t, err := node.primary(dv, ds, part)
			if err != nil {
				return total, err
			}
			s = t.Stats()
		} else {
			t, err := node.invIndex(dv, ds, ixName, part)
			if err != nil {
				return total, err
			}
			s = t.Stats()
		}
		total.MemEntries += s.MemEntries
		total.MemBytes += s.MemBytes
		total.DiskComponents += s.DiskComponents
		total.DiskEntries += s.DiskEntries
		total.DiskBytes += s.DiskBytes
	}
	return total, nil
}

// DropDataset removes a dataset's storage and catalog entry.
func (c *Cluster) DropDataset(dv, ds string) error {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	if _, err := c.Catalog.DropDataset(dv, ds); err != nil {
		return err
	}
	for _, n := range c.nodes {
		if n == nil {
			continue
		}
		if err := n.dropDataset(dv, ds); err != nil {
			return err
		}
	}
	if c.remote != nil {
		return c.remote.dropDataset(dv, ds)
	}
	return nil
}
