package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"simdb/internal/aqlp"
	"simdb/internal/optimizer"
)

// DatasetMeta is the catalog entry of one dataset.
type DatasetMeta struct {
	Dataverse string
	Name      string
	PKField   string
	AutoPK    bool
	Indexes   []optimizer.IndexMeta
}

// Catalog is the metadata store: dataverses, datasets, secondary
// indexes, and AQL UDFs. It satisfies both the translator's and the
// optimizer's catalog interfaces.
//
// Every DDL mutation bumps a monotonically increasing epoch; the
// compiled-plan cache keys entries by the epoch they were compiled
// under, so any catalog change (a new index, a dropped dataset, a
// redefined UDF) invalidates every cached plan.
type Catalog struct {
	epoch      atomic.Uint64
	mu         sync.RWMutex
	dataverses map[string]bool
	datasets   map[string]*DatasetMeta // key: dv + "." + name
	funcs      map[string]aqlp.FuncDef

	// funcDDL logs the raw request text of every `create function`
	// request, in application order. UDF bodies are AST nodes with no
	// serialized form, so catalog snapshots replicate functions by
	// shipping these sources for the receiver to re-parse.
	funcDDL []string

	// onEpoch, when set, is given the new epoch whenever it moves.
	onEpoch func(epoch uint64)
}

// Epoch returns the current DDL epoch.
func (c *Catalog) Epoch() uint64 { return c.epoch.Load() }

// bumpEpoch invalidates every plan compiled before this moment.
func (c *Catalog) bumpEpoch() { c.movedTo(c.epoch.Add(1)) }

// movedTo hands onEpoch the epoch the catalog moved to.
func (c *Catalog) movedTo(epoch uint64) {
	if c.onEpoch != nil {
		c.onEpoch(epoch)
	}
}

// NewCatalog returns a catalog preloaded with the Default dataverse.
func NewCatalog() *Catalog {
	return &Catalog{
		dataverses: map[string]bool{"Default": true},
		datasets:   map[string]*DatasetMeta{},
		funcs:      map[string]aqlp.FuncDef{},
	}
}

func dsKey(dv, name string) string { return dv + "." + name }

// CreateDataverse registers a dataverse.
func (c *Catalog) CreateDataverse(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dataverses[name] {
		return fmt.Errorf("catalog: dataverse %q exists", name)
	}
	c.dataverses[name] = true
	c.bumpEpoch()
	return nil
}

// HasDataverse reports existence.
func (c *Catalog) HasDataverse(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.dataverses[name]
}

// CreateDataset registers a dataset.
func (c *Catalog) CreateDataset(dv, name, pkField string, autoPK bool) (*DatasetMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dataverses[dv] {
		return nil, fmt.Errorf("catalog: unknown dataverse %q", dv)
	}
	key := dsKey(dv, name)
	if _, dup := c.datasets[key]; dup {
		return nil, fmt.Errorf("catalog: dataset %q exists in %q", name, dv)
	}
	meta := &DatasetMeta{Dataverse: dv, Name: name, PKField: pkField, AutoPK: autoPK}
	c.datasets[key] = meta
	c.bumpEpoch()
	return meta, nil
}

// DropDataset removes a dataset entry and returns its metadata.
func (c *Catalog) DropDataset(dv, name string) (*DatasetMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := dsKey(dv, name)
	meta, ok := c.datasets[key]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown dataset %q", name)
	}
	delete(c.datasets, key)
	c.bumpEpoch()
	return meta, nil
}

// Dataset returns a dataset's metadata.
func (c *Catalog) Dataset(dv, name string) (*DatasetMeta, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.datasets[dsKey(dv, name)]
	return m, ok
}

// AddIndex registers a secondary index on a dataset.
func (c *Catalog) AddIndex(dv, dataset string, ix optimizer.IndexMeta) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	meta, ok := c.datasets[dsKey(dv, dataset)]
	if !ok {
		return fmt.Errorf("catalog: unknown dataset %q", dataset)
	}
	for _, existing := range meta.Indexes {
		if existing.Name == ix.Name {
			return fmt.Errorf("catalog: index %q exists on %q", ix.Name, dataset)
		}
	}
	meta.Indexes = append(meta.Indexes, ix)
	c.bumpEpoch()
	return nil
}

// SetFunc stores a UDF definition.
func (c *Catalog) SetFunc(name string, def aqlp.FuncDef) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.funcs[name] = def
	c.bumpEpoch()
}

// Funcs returns a copy of the UDF map for a translator.
func (c *Catalog) Funcs() map[string]aqlp.FuncDef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]aqlp.FuncDef, len(c.funcs))
	for k, v := range c.funcs {
		out[k] = v
	}
	return out
}

// noteFuncDDL records the raw source of a create-function request for
// snapshot replication.
func (c *Catalog) noteFuncDDL(src string) {
	c.mu.Lock()
	c.funcDDL = append(c.funcDDL, src)
	c.mu.Unlock()
}

// CatalogSnapshot is the wire form of the full catalog state, shipped
// from the coordinator to worker processes whenever their synced epoch
// falls behind. UDFs travel as their original DDL text (FuncDDL) since
// parsed bodies have no serialized form.
type CatalogSnapshot struct {
	Epoch      uint64        `json:"epoch"`
	Dataverses []string      `json:"dataverses"`
	Datasets   []DatasetMeta `json:"datasets"`
	FuncDDL    []string      `json:"func_ddl,omitempty"`
}

// Snapshot captures the catalog for replication.
func (c *Catalog) Snapshot() CatalogSnapshot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := CatalogSnapshot{Epoch: c.epoch.Load()}
	for dv := range c.dataverses {
		s.Dataverses = append(s.Dataverses, dv)
	}
	for _, m := range c.datasets {
		s.Datasets = append(s.Datasets, *m)
	}
	s.FuncDDL = append(s.FuncDDL, c.funcDDL...)
	return s
}

// Restore replaces the catalog's contents with a snapshot, replaying
// the function DDL to rebuild parsed UDF bodies. Statements other than
// create function inside a replayed request are ignored — their effects
// (datasets, indexes) arrive through the snapshot itself.
func (c *Catalog) Restore(s CatalogSnapshot) error {
	funcs := map[string]aqlp.FuncDef{}
	for _, src := range s.FuncDDL {
		q, err := aqlp.Parse(src)
		if err != nil {
			return fmt.Errorf("catalog: replay function DDL: %w", err)
		}
		for _, stmt := range q.Stmts {
			if f, ok := stmt.(aqlp.CreateFunctionStmt); ok {
				funcs[f.Name] = aqlp.FuncDef{Params: f.Params, Body: f.Body}
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dataverses = map[string]bool{"Default": true}
	for _, dv := range s.Dataverses {
		c.dataverses[dv] = true
	}
	c.datasets = map[string]*DatasetMeta{}
	for i := range s.Datasets {
		m := s.Datasets[i]
		c.datasets[dsKey(m.Dataverse, m.Name)] = &m
	}
	c.funcs = funcs
	c.funcDDL = append([]string(nil), s.FuncDDL...)
	c.epoch.Store(s.Epoch)
	c.movedTo(s.Epoch)
	return nil
}

// ResolveDataset implements aqlp.Catalog.
func (c *Catalog) ResolveDataset(dv, name string) (string, bool) {
	m, ok := c.Dataset(dv, name)
	if !ok {
		return "", false
	}
	return m.PKField, true
}

// DatasetIndexes implements optimizer.Catalog.
func (c *Catalog) DatasetIndexes(dv, name string) []optimizer.IndexMeta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.datasets[dsKey(dv, name)]
	if !ok {
		return nil
	}
	return append([]optimizer.IndexMeta(nil), m.Indexes...)
}
