package bench

import (
	"fmt"
	"sort"
	"time"

	"simdb/internal/adm"
	"simdb/internal/core"
	"simdb/internal/datagen"
	"simdb/internal/optimizer"
	"simdb/internal/tokenizer"
)

// Run dispatches one experiment by name; "all" runs every one in order.
func (e *Env) Run(name string) error {
	type exp struct {
		name string
		fn   func() error
	}
	exps := []exp{
		{"table3", e.Table3},
		{"table4", e.Table4},
		{"table5", e.Table5},
		{"table6", e.Table6},
		{"fig15", e.Fig15},
		{"fig22a", e.Fig22a},
		{"fig22b", e.Fig22b},
		{"fig24a", e.Fig24a},
		{"fig24b", e.Fig24b},
		{"fig25a", e.Fig25a},
		{"fig25b", e.Fig25b},
		{"fig27", e.Fig27},
		{"ablation", e.Ablations},
		{"spill", e.SpillSweep},
		{"ingest", e.IngestBench},
		{"scan", e.ScanBench},
		{"serving", e.Serving},
	}
	if name == "all" {
		for _, x := range exps {
			if err := x.fn(); err != nil {
				return fmt.Errorf("%s: %w", x.name, err)
			}
		}
		return nil
	}
	for _, x := range exps {
		if x.name == name {
			return x.fn()
		}
	}
	return fmt.Errorf("bench: unknown experiment %q", name)
}

// Table3 reports dataset properties (paper Table 3, scaled).
func (e *Env) Table3() error {
	e.logf("\n=== Table 3: dataset properties (scaled reproduction) ===\n")
	e.logf("%-14s %10s %14s %14s  %s\n", "Dataset", "Records", "RawSize(MB)", "OnDisk(MB)", "Fields used")
	db, err := e.DB()
	if err != nil {
		return err
	}
	for _, kind := range []datagen.Kind{datagen.Amazon, datagen.Reddit, datagen.Twitter} {
		if err := e.EnsureDataset(kind); err != nil {
			return err
		}
		var raw int64
		n := e.scaleOf(kind)
		if err := datagen.Generate(kind, n, datagen.Options{Seed: 1}, func(v adm.Value) error {
			raw += int64(len(v.String()))
			return nil
		}); err != nil {
			return err
		}
		onDisk, _, err := db.IndexFootprint(datasetName(kind), "")
		if err != nil {
			return err
		}
		jf, ef, _ := datagen.Fields(kind)
		e.logf("%-14s %10d %14.1f %14.1f  %s, %s\n",
			datasetName(kind), n, float64(raw)/1e6, float64(onDisk)/1e6, jf, ef)
	}
	return nil
}

// Table4 reports field character/word statistics (paper Table 4).
func (e *Env) Table4() error {
	e.logf("\n=== Table 4: field characteristics ===\n")
	e.logf("%-28s %10s %10s %10s %10s\n", "Field", "AvgChars", "MaxChars", "AvgWords", "MaxWords")
	for _, kind := range []datagen.Kind{datagen.Amazon, datagen.Reddit, datagen.Twitter} {
		jf, ef, _ := datagen.Fields(kind)
		for _, field := range []string{ef, jf} {
			var chars, words, maxC, maxW, n int
			err := datagen.Generate(kind, e.scaleOf(kind), datagen.Options{Seed: 1}, func(v adm.Value) error {
				f, ok := v.Rec().GetPath(field)
				if !ok {
					return nil
				}
				c := len([]rune(f.Str()))
				w := len(tokenizer.WordTokens(f.Str()))
				chars += c
				words += w
				if c > maxC {
					maxC = c
				}
				if w > maxW {
					maxW = w
				}
				n++
				return nil
			})
			if err != nil {
				return err
			}
			e.logf("%-28s %10.1f %10d %10.1f %10d\n",
				fmt.Sprintf("%s.%s", datasetName(kind), field),
				float64(chars)/float64(n), maxC, float64(words)/float64(n), maxW)
		}
	}
	return nil
}

// Table5 reports index sizes and build times on the Amazon dataset.
func (e *Env) Table5() error {
	e.logf("\n=== Table 5: index size and build time (AmazonReview) ===\n")
	if err := e.EnsureDataset(datagen.Amazon); err != nil {
		return err
	}
	db, err := e.DB()
	if err != nil {
		return err
	}
	size, _, err := db.IndexFootprint("AmazonReview", "")
	if err != nil {
		return err
	}
	e.logf("%-22s %-10s %12s %12s\n", "Field", "IndexType", "Size(MB)", "Build(ms)")
	e.logf("%-22s %-10s %12.1f %12s\n", "dataset itself", "B+ tree", float64(size)/1e6, "(load)")
	for _, ix := range []struct{ name, field, typ, ddl string }{
		{"t5_rn_btree", "reviewerName", "B+ tree", `create index t5_rn_btree on AmazonReview(reviewerName) type btree;`},
		{"t5_rn_2gram", "reviewerName", "2-gram", `create index t5_rn_2gram on AmazonReview(reviewerName) type ngram(2);`},
		{"t5_sum_btree", "summary", "B+ tree", `create index t5_sum_btree on AmazonReview(summary) type btree;`},
		{"t5_sum_kw", "summary", "keyword", `create index t5_sum_kw on AmazonReview(summary) type keyword;`},
	} {
		t0 := time.Now()
		if _, err := db.Query(ix.ddl); err != nil {
			return err
		}
		if err := db.Flush(); err != nil {
			return err
		}
		build := time.Since(t0)
		bytes, _, err := db.IndexFootprint("AmazonReview", ix.name)
		if err != nil {
			return err
		}
		e.logf("%-22s %-10s %12.1f %12s\n", ix.field, ix.typ, float64(bytes)/1e6, ms(build))
	}
	return nil
}

// selQuery renders a Figure 21-style selection query.
func (e *Env) selQuery(kind datagen.Kind, simFn string, threshold string) (string, error) {
	name := datasetName(kind)
	jf, ef, _ := datagen.Fields(kind)
	switch simFn {
	case "jaccard":
		v, err := e.sampleValue(kind, jf)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf(
			`count(for $o in dataset %s where similarity-jaccard(word-tokens($o.%s), word-tokens('%s')) >= %s return $o.id)`,
			name, jf, quoteAQL(v), threshold), nil
	case "edit-distance":
		v, err := e.sampleValue(kind, ef)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf(
			`count(for $o in dataset %s where edit-distance($o.%s, '%s') <= %s return $o.id)`,
			name, ef, quoteAQL(v), threshold), nil
	case "exact-jaccard":
		v, err := e.sampleValue(kind, jf)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf(`count(for $o in dataset %s where $o.%s = '%s' return $o.id)`,
			name, jf, quoteAQL(v)), nil
	case "exact-ed":
		v, err := e.sampleValue(kind, ef)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf(`count(for $o in dataset %s where $o.%s = '%s' return $o.id)`,
			name, ef, quoteAQL(v)), nil
	}
	return "", fmt.Errorf("bench: unknown selection kind %q", simFn)
}

// selectionSweep runs a selection figure: an exact-match baseline plus
// a threshold sweep, each with and without indexes.
func (e *Env) selectionSweep(title, simFn, exactFn string, thresholds []string, ddl []string) error {
	if err := e.EnsureDataset(datagen.Amazon); err != nil {
		return err
	}
	db, err := e.DB()
	if err != nil {
		return err
	}
	noIdx := sessionWith(func(o *optimizer.Options) { o.UseIndexes = false })
	withIdx := sessionWith(nil)

	e.logf("\n=== %s ===\n", title)
	e.logf("%-14s %16s %16s %12s\n", "Threshold", "NoIndex(ms)", "WithIndex(ms)", "AvgResults")
	// Without-index rows first (so index creation cannot help them),
	// then create the indexes and run the with-index rows.
	type row struct {
		label          string
		noIdx, withIdx measured
	}
	points := append([]string{"exact"}, thresholds...)
	rows := make([]row, len(points))
	for i, p := range points {
		fn := simFn
		if p == "exact" {
			fn = exactFn
		}
		th := p
		m, err := e.average(noIdx, e.SelQueries, func() (string, error) {
			return e.selQuery(datagen.Amazon, fn, th)
		})
		if err != nil {
			return err
		}
		rows[i] = row{label: p, noIdx: m}
	}
	for _, d := range ddl {
		if _, err := db.Query(d); err != nil {
			return err
		}
	}
	for i, p := range points {
		fn := simFn
		if p == "exact" {
			fn = exactFn
		}
		th := p
		m, err := e.average(withIdx, e.SelQueries, func() (string, error) {
			return e.selQuery(datagen.Amazon, fn, th)
		})
		if err != nil {
			return err
		}
		rows[i].withIdx = m
	}
	for _, r := range rows {
		e.logf("%-14s %16s %16s %12d\n", r.label, ms(r.noIdx.Wall), ms(r.withIdx.Wall), r.withIdx.Rows)
	}
	return nil
}

// Fig22a is the Jaccard selection sweep.
func (e *Env) Fig22a() error {
	return e.selectionSweep(
		"Figure 22(a): Jaccard selection on AmazonReview.summary",
		"jaccard", "exact-jaccard",
		[]string{"0.2", "0.5", "0.8"},
		[]string{
			`create index f22_sum_kw on AmazonReview(summary) type keyword;`,
			`create index f22_sum_bt on AmazonReview(summary) type btree;`,
		})
}

// Fig22b is the edit-distance selection sweep.
func (e *Env) Fig22b() error {
	return e.selectionSweep(
		"Figure 22(b): edit-distance selection on AmazonReview.reviewerName",
		"edit-distance", "exact-ed",
		[]string{"1", "2", "3"},
		[]string{
			`create index f22_rn_ng on AmazonReview(reviewerName) type ngram(2);`,
			`create index f22_rn_bt on AmazonReview(reviewerName) type btree;`,
		})
}

// joinQuery renders a Figure 23-style self-join query with the outer
// branch limited to `outer` records starting at a random id.
func (e *Env) joinQuery(kind datagen.Kind, simFn, threshold string, outer int) string {
	name := datasetName(kind)
	jf, ef, _ := datagen.Fields(kind)
	n := e.scaleOf(kind)
	start := 1 + e.rng.Intn(maxInt(1, n-outer))
	rangeCond := fmt.Sprintf("$o.id >= %d and $o.id < %d", start, start+outer)
	switch simFn {
	case "jaccard":
		return fmt.Sprintf(
			`count(for $o in dataset %[1]s for $i in dataset %[1]s where similarity-jaccard(word-tokens($o.%[2]s), word-tokens($i.%[2]s)) >= %[3]s and %[4]s and $o.id < $i.id return $o.id)`,
			name, jf, threshold, rangeCond)
	case "edit-distance":
		return fmt.Sprintf(
			`count(for $o in dataset %[1]s for $i in dataset %[1]s where edit-distance($o.%[2]s, $i.%[2]s) <= %[3]s and %[4]s and $o.id < $i.id return $o.id)`,
			name, ef, threshold, rangeCond)
	case "exact-jaccard":
		return fmt.Sprintf(
			`count(for $o in dataset %[1]s for $i in dataset %[1]s where $o.%[2]s = $i.%[2]s and %[3]s and $o.id < $i.id return $o.id)`,
			name, jf, rangeCond)
	case "exact-ed":
		return fmt.Sprintf(
			`count(for $o in dataset %[1]s for $i in dataset %[1]s where $o.%[2]s = $i.%[2]s and %[3]s and $o.id < $i.id return $o.id)`,
			name, ef, rangeCond)
	}
	return ""
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// joinSweep runs a join figure (Fig. 24 shape).
func (e *Env) joinSweep(title, simFn, exactFn string, thresholds []string, ddl []string) error {
	if err := e.EnsureDataset(datagen.Amazon); err != nil {
		return err
	}
	db, err := e.DB()
	if err != nil {
		return err
	}
	noIdx := sessionWith(func(o *optimizer.Options) { o.UseIndexes = false })
	withIdx := sessionWith(nil)
	e.logf("\n=== %s ===\n", title)
	e.logf("%-14s %16s %16s %12s\n", "Threshold", "NoIndex(ms)", "WithIndex(ms)", "AvgResults")
	points := append([]string{"exact"}, thresholds...)
	type row struct {
		label          string
		noIdx, withIdx measured
	}
	rows := make([]row, len(points))
	for i, p := range points {
		fn := simFn
		if p == "exact" {
			fn = exactFn
		}
		th := p
		m, err := e.average(noIdx, e.JoinQueries, func() (string, error) {
			return e.joinQuery(datagen.Amazon, fn, th, 10), nil
		})
		if err != nil {
			return err
		}
		rows[i] = row{label: p, noIdx: m}
	}
	for _, d := range ddl {
		if _, err := db.Query(d); err != nil {
			return err
		}
	}
	for i, p := range points {
		fn := simFn
		if p == "exact" {
			fn = exactFn
		}
		th := p
		m, err := e.average(withIdx, e.JoinQueries, func() (string, error) {
			return e.joinQuery(datagen.Amazon, fn, th, 10), nil
		})
		if err != nil {
			return err
		}
		rows[i].withIdx = m
	}
	for _, r := range rows {
		e.logf("%-14s %16s %16s %12d\n", r.label, ms(r.noIdx.Wall), ms(r.withIdx.Wall), r.withIdx.Rows)
	}
	return nil
}

// Fig24a is the Jaccard join sweep.
func (e *Env) Fig24a() error {
	return e.joinSweep(
		"Figure 24(a): Jaccard self-join on AmazonReview.summary (10 outer records)",
		"jaccard", "exact-jaccard",
		[]string{"0.2", "0.5", "0.8"},
		[]string{`create index f24_sum_kw on AmazonReview(summary) type keyword;`})
}

// Fig24b is the edit-distance join sweep.
func (e *Env) Fig24b() error {
	return e.joinSweep(
		"Figure 24(b): edit-distance self-join on AmazonReview.reviewerName (10 outer records)",
		"edit-distance", "exact-ed",
		[]string{"1", "2", "3"},
		[]string{`create index f24_rn_ng on AmazonReview(reviewerName) type ngram(2);`})
}

// Fig25a varies the outer record count across the three join plans:
// the paper's crossover figure.
func (e *Env) Fig25a() error {
	if err := e.EnsureDataset(datagen.Amazon); err != nil {
		return err
	}
	db, err := e.DB()
	if err != nil {
		return err
	}
	if _, err := db.Query(`create index f25_sum_kw on AmazonReview(summary) type keyword;`); err != nil {
		// Index may exist from an earlier experiment in an "all" run.
		_ = err
	}
	nl := sessionWith(func(o *optimizer.Options) { o.UseIndexes = false; o.UseThreeStageJoin = false })
	threeStage := sessionWith(func(o *optimizer.Options) { o.UseIndexes = false })
	inlj := sessionWith(nil)
	e.logf("\n=== Figure 25(a): join time vs outer records (Jaccard 0.8) ===\n")
	e.logf("%-8s %16s %18s %18s\n", "Outer", "NLJoin(ms)", "ThreeStage(ms)", "IndexNL(ms)")
	for _, outer := range []int{200, 400, 600, 800, 1000, 1200, 1400} {
		row := [3]measured{}
		for i, sess := range []*core.Session{nl, threeStage, inlj} {
			m, err := e.average(sess, e.JoinQueries, func() (string, error) {
				return e.joinQuery(datagen.Amazon, "jaccard", "0.8", outer), nil
			})
			if err != nil {
				return err
			}
			row[i] = m
		}
		e.logf("%-8d %16s %18s %18s\n", outer, ms(row[0].Wall), ms(row[1].Wall), ms(row[2].Wall))
	}
	return nil
}

// Fig25b runs the multi-way (two-similarity-predicate) join on all
// three datasets with three predicate orders.
func (e *Env) Fig25b() error {
	db, err := e.DB()
	if err != nil {
		return err
	}
	e.logf("\n=== Figure 25(b): multi-way joins (equi + Jaccard 0.8 + edit distance 1) ===\n")
	e.logf("%-14s %18s %18s %18s\n", "Dataset", "Jac-I,ED-NI(ms)", "ED-I,Jac-NI(ms)", "Jac-NI,ED-NI(ms)")
	for _, kind := range []datagen.Kind{datagen.Amazon, datagen.Reddit, datagen.Twitter} {
		if err := e.EnsureDataset(kind); err != nil {
			return err
		}
		name := datasetName(kind)
		jf, ef, _ := datagen.Fields(kind)
		for _, ddl := range []string{
			fmt.Sprintf(`create index f25b_%s_kw on %s(%s) type keyword;`, name, name, jf),
			fmt.Sprintf(`create index f25b_%s_ng on %s(%s) type ngram(2);`, name, name, ef),
		} {
			if _, err := db.Query(ddl); err != nil {
				return err
			}
		}
		n := e.scaleOf(kind)
		queryWith := func(first string) string {
			gid := e.rng.Intn(maxInt(1, n/20))
			jac := fmt.Sprintf("similarity-jaccard(word-tokens($o.%[1]s), word-tokens($i.%[1]s)) >= 0.8", jf)
			ed := fmt.Sprintf("edit-distance($o.%[1]s, $i.%[1]s) <= 1", ef)
			conds := jac + " and " + ed
			if first == "ed" {
				conds = ed + " and " + jac
			}
			return fmt.Sprintf(
				`count(for $o in dataset %[1]s for $i in dataset %[1]s where $o.gid = %[2]d and %[3]s and $o.id < $i.id return $o.id)`,
				name, gid, conds)
		}
		withIdx := sessionWith(nil)
		noIdx := sessionWith(func(o *optimizer.Options) { o.UseIndexes = false; o.UseThreeStageJoin = false })
		jacFirst, err := e.average(withIdx, e.JoinQueries, func() (string, error) { return queryWith("jac"), nil })
		if err != nil {
			return err
		}
		edFirst, err := e.average(withIdx, e.JoinQueries, func() (string, error) { return queryWith("ed"), nil })
		if err != nil {
			return err
		}
		none, err := e.average(noIdx, e.JoinQueries, func() (string, error) { return queryWith("jac"), nil })
		if err != nil {
			return err
		}
		e.logf("%-14s %18s %18s %18s\n", name, ms(jacFirst.Wall), ms(edFirst.Wall), ms(none.Wall))
	}
	return nil
}

// Table6 reports candidate-set vs final-result sizes for the indexed
// Jaccard selection.
func (e *Env) Table6() error {
	if err := e.EnsureDataset(datagen.Amazon); err != nil {
		return err
	}
	db, err := e.DB()
	if err != nil {
		return err
	}
	if _, err := db.Query(`create index t6_sum_kw on AmazonReview(summary) type keyword;`); err != nil {
		_ = err // may already exist in an "all" run
	}
	sess := sessionWith(nil)
	e.logf("\n=== Table 6: candidate set vs results (indexed Jaccard selection) ===\n")
	e.logf("%-10s %14s %14s %10s\n", "Threshold", "Results(B)", "Candidates(C)", "B/C")
	for _, th := range []string{"0.2", "0.5", "0.8"} {
		m, err := e.average(sess, e.SelQueries, func() (string, error) {
			return e.selQuery(datagen.Amazon, "jaccard", th)
		})
		if err != nil {
			return err
		}
		ratio := 0.0
		if m.Stats.Candidates > 0 {
			ratio = float64(m.Rows) / float64(m.Stats.Candidates) * 100
		}
		e.logf("%-10s %14d %14d %9.1f%%\n", th, m.Rows, m.Stats.Candidates, ratio)
	}
	return nil
}

// Fig15 compiles the Figure 4(a) join query with and without the
// three-stage rewrite and reports operator counts plus the AQL+
// compilation overhead (§6.4.1).
func (e *Env) Fig15() error {
	if err := e.EnsureDataset(datagen.Amazon); err != nil {
		return err
	}
	db, err := e.DB()
	if err != nil {
		return err
	}
	query := `
		set simfunction 'jaccard';
		set simthreshold '0.5';
		for $t1 in dataset AmazonReview
		for $t2 in dataset AmazonReview
		where word-tokens($t1.summary) ~= word-tokens($t2.summary)
		return { 's1': $t1, 's2': $t2 }
	`
	nlSess := sessionWith(func(o *optimizer.Options) {
		o.UseIndexes = false
		o.UseThreeStageJoin = false
		o.ReuseSubplans = false
	})
	nl, err := db.Explain(nlSess, query)
	if err != nil {
		return err
	}
	threeSess := sessionWith(func(o *optimizer.Options) { o.UseIndexes = false })
	three, err := db.Explain(threeSess, query)
	if err != nil {
		return err
	}
	e.logf("\n=== Figure 15: plan operator counts ===\n")
	e.logf("%-28s %12s %14s\n", "Operator", "NestedLoop", "ThreeStage")
	kinds := map[string]bool{}
	for k := range nl.KindCounts {
		kinds[k] = true
	}
	for k := range three.KindCounts {
		kinds[k] = true
	}
	var names []string
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		e.logf("%-28s %12d %14d\n", k, nl.KindCounts[k], three.KindCounts[k])
	}
	e.logf("%-28s %12d %14d\n", "TOTAL", nl.PlanOps, three.PlanOps)
	e.logf("\nAQL+ compile overhead (three-stage): translate %.1f ms, optimize %.1f ms, total %.1f ms\n",
		float64(three.TranslateNs)/1e6, float64(three.OptimizeNs)/1e6,
		float64(three.TranslateNs+three.OptimizeNs)/1e6)
	return nil
}
