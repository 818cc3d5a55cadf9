package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"simdb/internal/core"
	"simdb/internal/datagen"
	"simdb/internal/optimizer"
)

// estimateParallel models the makespan of one measured query on a real
// cluster of the given node count: the stand-in for Figure 27's physical
// scale-out and speed-up runs, which one host cannot exhibit.
//
// The compute term is work-based: the busiest node's emitted-tuple count
// times 800 ns (roughly one tokenize-hash-compare step on the paper's
// 2 GHz Opterons). It is not measured busy time, because N simulated
// nodes time-sharing a small host's cores inflate busy time with N and
// would mask the scaling under study, while tuple counts are
// deterministic. The network term charges each node's NIC its share of
// the shuffled bytes at 117 MB/s (1 GbE payload rate) plus 100 µs per
// message, and a fixed 3 ms models job start-up: the floor that limits
// speed-up for short queries (paper §6.5.2).
func estimateParallel(maxNodeTuples, bytesShuffled, netMessages int64, nodes int) time.Duration {
	if nodes < 1 {
		nodes = 1
	}
	computeNs := float64(maxNodeTuples) * 800
	xferNs := float64(bytesShuffled) / float64(nodes) / 117e6 * 1e9
	latNs := float64(netMessages) / float64(nodes) * 100e3
	return time.Duration(computeNs + xferNs + latNs + 3000e3)
}

// Fig27 runs the scale-out and speed-up experiments on clusters of 1,
// 2, 4, and 8 simulated nodes. Scale-out grows the data with the node
// count (constant per-node share); speed-up fixes the data. The reported
// metric is estimateParallel of each query's counters, averaged.
func (e *Env) Fig27() error {
	nodeCounts := []int{1, 2, 4, 8}
	fullScale := e.Scale

	type point struct {
		selNoIdx, selIdx, joinNoIdx, joinIdx time.Duration
	}
	runOn := func(nodes, records int) (point, error) {
		dir := filepath.Join(e.Dir, fmt.Sprintf("fig27-n%d-r%d", nodes, records))
		sub := NewEnv(dir)
		sub.Nodes = nodes
		sub.PartsPerNode = e.PartsPerNode
		sub.Scale = records
		sub.SelQueries = maxInt(3, e.SelQueries/4)
		sub.JoinQueries = maxInt(1, e.JoinQueries/2)
		sub.Out = io.Discard
		defer func() {
			sub.Close()
			os.RemoveAll(dir)
		}()
		if err := sub.EnsureDataset(datagen.Amazon); err != nil {
			return point{}, err
		}
		db, err := sub.DB()
		if err != nil {
			return point{}, err
		}
		// estimate averages the modeled makespan of n runs of a query.
		estimate := func(sess *core.Session, n int, queryFn func() (string, error)) (time.Duration, error) {
			var total time.Duration
			err := sub.each(sess, n, queryFn, func(m measured) {
				total += estimateParallel(m.Stats.MaxNodeTuples, m.Stats.BytesShuffled, m.Stats.NetMessages, nodes)
			})
			return total / time.Duration(n), err
		}
		sel := func() (string, error) { return sub.selQuery(datagen.Amazon, "jaccard", "0.8") }
		join := func() (string, error) { return sub.joinQuery(datagen.Amazon, "jaccard", "0.8", 10), nil }
		noIdx := sessionWith(func(o *optimizer.Options) { o.UseIndexes = false })
		var p point
		if p.selNoIdx, err = estimate(noIdx, sub.SelQueries, sel); err != nil {
			return point{}, err
		}
		if p.joinNoIdx, err = estimate(noIdx, sub.JoinQueries, join); err != nil {
			return point{}, err
		}
		if _, err := db.Query(`create index f27_kw on AmazonReview(summary) type keyword;`); err != nil {
			return point{}, err
		}
		withIdx := sessionWith(nil)
		if p.selIdx, err = estimate(withIdx, sub.SelQueries, sel); err != nil {
			return point{}, err
		}
		if p.joinIdx, err = estimate(withIdx, sub.JoinQueries, join); err != nil {
			return point{}, err
		}
		return p, nil
	}

	e.logf("\n=== Figure 27(a): scale-out (data grows with nodes; estimated parallel ms) ===\n")
	e.logf("%-7s %16s %16s %16s %16s\n", "Nodes", "Jac-Join-NoIdx", "Jac-Sel-NoIdx", "Jac-Join-Idx", "Jac-Sel-Idx")
	for _, nodes := range nodeCounts {
		records := fullScale * nodes / 8 // each node holds fullScale/8 records
		if records < 1000 {
			records = 1000 * nodes
		}
		p, err := runOn(nodes, records)
		if err != nil {
			return err
		}
		e.logf("%-7d %16s %16s %16s %16s\n", nodes, ms(p.joinNoIdx), ms(p.selNoIdx), ms(p.joinIdx), ms(p.selIdx))
	}

	e.logf("\n=== Figure 27(b,c): speed-up (fixed data; estimated parallel ms and ratio vs 1 node) ===\n")
	e.logf("%-7s %16s %16s %16s %16s %28s\n", "Nodes", "Jac-Join-NoIdx", "Jac-Sel-NoIdx", "Jac-Join-Idx", "Jac-Sel-Idx", "Speedup(join-noidx, sel-idx)")
	var base point
	for i, nodes := range nodeCounts {
		p, err := runOn(nodes, fullScale)
		if err != nil {
			return err
		}
		if i == 0 {
			base = p
		}
		spJoin := float64(base.joinNoIdx) / float64(maxDur(p.joinNoIdx, 1))
		spSel := float64(base.selIdx) / float64(maxDur(p.selIdx, 1))
		e.logf("%-7d %16s %16s %16s %16s %17.2fx / %.2fx\n",
			nodes, ms(p.joinNoIdx), ms(p.selNoIdx), ms(p.joinIdx), ms(p.selIdx), spJoin, spSel)
	}
	return nil
}

func maxDur(d time.Duration, min time.Duration) time.Duration {
	if d < min {
		return min
	}
	return d
}

// Ablations measures the design choices DESIGN.md calls out: the
// surrogate INLJ, subplan reuse in the three-stage join, the
// T-occurrence algorithm, and hash vs sort-based grouping.
func (e *Env) Ablations() error {
	if err := e.EnsureDataset(datagen.Amazon); err != nil {
		return err
	}
	db, err := e.DB()
	if err != nil {
		return err
	}
	if _, err := db.Query(`create index abl_kw on AmazonReview(summary) type keyword;`); err != nil {
		_ = err // tolerated in "all" runs where it already exists
	}

	e.logf("\n=== Ablation: surrogate index-nested-loop join (paper §5.4.1) ===\n")
	e.logf("%-12s %14s %18s\n", "Variant", "Time(ms)", "BytesShuffled")
	for _, v := range []struct {
		name string
		on   bool
	}{{"surrogate", true}, {"full-record", false}} {
		sess := sessionWith(func(o *optimizer.Options) { o.SurrogateINLJ = v.on })
		var bytes int64
		m, err := e.average(sess, e.JoinQueries, func() (string, error) {
			return e.joinQuery(datagen.Amazon, "jaccard", "0.8", 400), nil
		})
		if err != nil {
			return err
		}
		// Re-run once to capture bytes (average drops per-run stats).
		one, err := e.runTimed(sess, e.joinQuery(datagen.Amazon, "jaccard", "0.8", 400))
		if err != nil {
			return err
		}
		bytes = one.Stats.BytesShuffled
		e.logf("%-12s %14s %18d\n", v.name, ms(m.Wall), bytes)
	}

	e.logf("\n=== Ablation: materialize/reuse shared subplans (paper §5.4.2) ===\n")
	e.logf("%-12s %14s\n", "Variant", "Time(ms)")
	for _, v := range []struct {
		name string
		on   bool
	}{{"reuse", true}, {"rescan", false}} {
		sess := sessionWith(func(o *optimizer.Options) {
			o.UseIndexes = false
			o.ReuseSubplans = v.on
		})
		m, err := e.average(sess, e.JoinQueries, func() (string, error) {
			return e.joinQuery(datagen.Amazon, "jaccard", "0.8", 200), nil
		})
		if err != nil {
			return err
		}
		e.logf("%-12s %14s\n", v.name, ms(m.Wall))
	}

	e.logf("\n=== Ablation: T-occurrence algorithm (Li et al. 2008) ===\n")
	e.logf("%-12s %14s %14s\n", "Algorithm", "T=0.2(ms)", "T=0.8(ms)")
	for _, algo := range []string{"scancount", "mergeskip", "divideskip"} {
		if err := db.SetTOccurrence(algo); err != nil {
			return err
		}
		sess := sessionWith(nil)
		lo, err := e.average(sess, e.SelQueries, func() (string, error) {
			return e.selQuery(datagen.Amazon, "jaccard", "0.2")
		})
		if err != nil {
			return err
		}
		hi, err := e.average(sess, e.SelQueries, func() (string, error) {
			return e.selQuery(datagen.Amazon, "jaccard", "0.8")
		})
		if err != nil {
			return err
		}
		e.logf("%-12s %14s %14s\n", algo, ms(lo.Wall), ms(hi.Wall))
	}
	if err := db.SetTOccurrence("divideskip"); err != nil { // the default
		return err
	}

	e.logf("\n=== Ablation: hash vs sort-based group-by (stage-1 token counting) ===\n")
	e.logf("%-12s %14s\n", "Grouping", "Time(ms)")
	for _, v := range []struct{ name, hint string }{
		{"hash", "/*+ hash */ "},
		{"sort", ""},
	} {
		q := fmt.Sprintf(`
			count(for $t in dataset AmazonReview
			for $tok in word-tokens($t.summary)
			%sgroup by $g := $tok with $t
			return count($t))`, v.hint)
		sess := sessionWith(nil)
		m, err := e.average(sess, 3, func() (string, error) { return q, nil })
		if err != nil {
			return err
		}
		e.logf("%-12s %14s\n", v.name, ms(m.Wall))
	}
	return nil
}
