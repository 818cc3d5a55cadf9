// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 6) against SimDB. Each
// experiment prints the same rows or series the paper reports; absolute
// numbers reflect the scaled synthetic datasets and simulated cluster,
// while the shapes (who wins, crossover points, threshold trends) are
// the reproduction target. cmd/benchrunner and bench_test.go both drive
// this package.
package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"simdb/internal/adm"
	"simdb/internal/core"
	"simdb/internal/datagen"
	"simdb/internal/optimizer"
	"simdb/internal/tokenizer"
)

// Env holds one experiment session: a database, dataset scales, and
// workload parameters.
type Env struct {
	// Dir is the scratch directory for cluster storage.
	Dir string
	// Nodes and PartsPerNode configure the simulated cluster.
	Nodes, PartsPerNode int
	// Scale is the Amazon record count; Reddit loads Scale/2 and
	// Twitter Scale (mirroring the paper's relative sizes, scaled).
	Scale int
	// SelQueries is the number of queries averaged per selection data
	// point (paper: 100).
	SelQueries int
	// JoinQueries is the number of queries averaged per join data point.
	JoinQueries int
	// Out receives the experiment reports.
	Out io.Writer
	// ReportDir receives machine-readable experiment outputs
	// (BENCH_*.json); empty means the current directory.
	ReportDir string
	// MemBudgets are the per-query memory budgets (bytes) the spill
	// sweep measures; 0 means unlimited. Empty takes the default sweep.
	MemBudgets []int64
	// ServeAddr, when set, starts the HTTP front end on the environment's
	// database so long experiment runs can be watched live.
	ServeAddr string

	db     *core.Database
	loaded map[datagen.Kind]int
	// samples[kind][field] are candidate search values (paper §6.3).
	samples map[string][]string
	rng     *rand.Rand
}

// NewEnv builds an experiment environment with defaults suitable for a
// laptop run.
func NewEnv(dir string) *Env {
	return &Env{
		Dir:          dir,
		Nodes:        2,
		PartsPerNode: 2,
		Scale:        20000,
		SelQueries:   20,
		JoinQueries:  3,
		Out:          os.Stdout,
		loaded:       map[datagen.Kind]int{},
		samples:      map[string][]string{},
		rng:          rand.New(rand.NewSource(42)),
	}
}

// DB opens (or returns) the environment's database.
func (e *Env) DB() (*core.Database, error) {
	if e.db != nil {
		return e.db, nil
	}
	db, err := core.Open(core.Config{
		DataDir:           filepath.Join(e.Dir, "data"),
		NumNodes:          e.Nodes,
		PartitionsPerNode: e.PartsPerNode,
		ServeAddr:         e.ServeAddr,
	})
	if err != nil {
		return nil, err
	}
	e.db = db
	return db, nil
}

// Close shuts the environment down.
func (e *Env) Close() error {
	if e.db == nil {
		return nil
	}
	err := e.db.Close()
	e.db = nil
	return err
}

func (e *Env) logf(format string, args ...any) {
	fmt.Fprintf(e.Out, format, args...)
}

// datasetName maps a generator kind to its dataset name.
func datasetName(kind datagen.Kind) string {
	switch kind {
	case datagen.Amazon:
		return "AmazonReview"
	case datagen.Reddit:
		return "Reddit"
	case datagen.Twitter:
		return "Twitter"
	}
	return string(kind)
}

// scaleOf returns the record count for a kind at the environment scale.
func (e *Env) scaleOf(kind datagen.Kind) int {
	switch kind {
	case datagen.Reddit:
		return e.Scale / 2
	default:
		return e.Scale
	}
}

// EnsureDataset generates and loads a dataset (idempotent), sampling
// search values for the workload generators along the way.
func (e *Env) EnsureDataset(kind datagen.Kind) error {
	n := e.scaleOf(kind)
	if e.loaded[kind] == n {
		return nil
	}
	if e.loaded[kind] != 0 {
		return fmt.Errorf("bench: dataset %s already loaded at a different scale", kind)
	}
	db, err := e.DB()
	if err != nil {
		return err
	}
	name := datasetName(kind)
	if _, err := db.Query(fmt.Sprintf("create dataset %s primary key id;", name)); err != nil {
		return err
	}
	jf, ef, err := datagen.Fields(kind)
	if err != nil {
		return err
	}
	sampler := newSampler(e.rng, 2000)
	jSample, eSample := sampler, newSampler(e.rng, 2000)
	err = datagen.Generate(kind, n, datagen.Options{Seed: 1}, func(v adm.Value) error {
		if f, ok := v.Rec().GetPath(jf); ok && len(tokenizer.WordTokens(f.Str())) >= 3 {
			jSample.offer(f.Str())
		}
		if f, ok := v.Rec().GetPath(ef); ok && len([]rune(f.Str())) >= 3 {
			eSample.offer(f.Str())
		}
		return db.Insert(name, v)
	})
	if err != nil {
		return err
	}
	if err := db.Flush(); err != nil {
		return err
	}
	e.samples[string(kind)+"/"+jf] = jSample.values
	e.samples[string(kind)+"/"+ef] = eSample.values
	e.loaded[kind] = n
	return nil
}

// sampler reservoir-samples strings.
type sampler struct {
	r      *rand.Rand
	cap    int
	seen   int
	values []string
}

func newSampler(r *rand.Rand, capacity int) *sampler {
	return &sampler{r: r, cap: capacity}
}

func (s *sampler) offer(v string) {
	s.seen++
	if len(s.values) < s.cap {
		s.values = append(s.values, v)
		return
	}
	if i := s.r.Intn(s.seen); i < s.cap {
		s.values[i] = v
	}
}

// sampleValue draws one search value for (kind, field).
func (e *Env) sampleValue(kind datagen.Kind, field string) (string, error) {
	vals := e.samples[string(kind)+"/"+field]
	if len(vals) == 0 {
		return "", fmt.Errorf("bench: no sampled values for %s.%s", kind, field)
	}
	return vals[e.rng.Intn(len(vals))], nil
}

// quoteAQL escapes a string for a single-quoted AQL literal.
func quoteAQL(s string) string {
	out := make([]rune, 0, len(s)+2)
	for _, r := range s {
		switch r {
		case '\'', '\\':
			out = append(out, '\\', r)
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// measured is one timed query run.
type measured struct {
	Wall  time.Duration
	Rows  int64 // count() result when the query returns one int
	Stats coreStats
}

type coreStats struct {
	Candidates    int64
	IndexSearches int64
	BytesShuffled int64
	MaxNodeTuples int64
	NetMessages   int64
	PlanOps       int
	CompileNs     int64
}

// runTimed executes a query once and extracts the measurements.
func (e *Env) runTimed(sess *core.Session, query string) (measured, error) {
	db, err := e.DB()
	if err != nil {
		return measured{}, err
	}
	res, err := db.Execute(context.Background(), sess, query)
	if err != nil {
		return measured{}, fmt.Errorf("%w\nquery:\n%s", err, query)
	}
	m := measured{
		Wall: time.Duration(res.Stats.ExecNs),
		Stats: coreStats{
			Candidates:    res.Stats.CandidatesTotal,
			IndexSearches: res.Stats.IndexSearches,
			BytesShuffled: res.Stats.BytesShuffled,
			MaxNodeTuples: res.Stats.MaxNodeTuples,
			NetMessages:   res.Stats.NetMessages,
			PlanOps:       res.Stats.PlanOps,
			CompileNs:     res.Stats.TranslateNs + res.Stats.OptimizeNs,
		},
	}
	if len(res.Rows) == 1 && res.Rows[0].Kind() == adm.KindInt {
		m.Rows = res.Rows[0].Int()
	} else {
		m.Rows = int64(len(res.Rows))
	}
	return m, nil
}

// each runs n queries drawn from queryFn, handing every measurement to
// visit.
func (e *Env) each(sess *core.Session, n int, queryFn func() (string, error), visit func(measured)) error {
	for i := 0; i < n; i++ {
		q, err := queryFn()
		if err != nil {
			return err
		}
		m, err := e.runTimed(sess, q)
		if err != nil {
			return err
		}
		visit(m)
	}
	return nil
}

// average runs the query n times and averages wall time, rows and
// candidates.
func (e *Env) average(sess *core.Session, n int, queryFn func() (string, error)) (measured, error) {
	var total measured
	err := e.each(sess, n, queryFn, func(m measured) {
		total.Wall += m.Wall
		total.Rows += m.Rows
		total.Stats.Candidates += m.Stats.Candidates
		total.Stats.IndexSearches += m.Stats.IndexSearches
	})
	if err != nil {
		return measured{}, err
	}
	total.Wall /= time.Duration(n)
	total.Rows /= int64(n)
	total.Stats.Candidates /= int64(n)
	return total, nil
}

// sessionWith returns a session with optimizer option overrides.
func sessionWith(mod func(*optimizer.Options)) *core.Session {
	sess := &core.Session{Dataverse: "Default"}
	opts := optimizer.DefaultOptions()
	if mod != nil {
		mod(&opts)
	}
	sess.Opts = &opts
	return sess
}

// ms formats a duration as milliseconds with 1 decimal.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}
