package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"simdb/benchmark/gen"
	"simdb/internal/adm"
	"simdb/internal/hyracks"
	"simdb/internal/sim"
	"simdb/internal/tokenizer"
)

// memoJoinAQL is the benchmark join's shape over dataset ds: the outer
// records with lo <= id < hi, every inner record with a larger id.
func memoJoinAQL(ds string, lo, hi int64, delta float64) string {
	return fmt.Sprintf(`for $o in dataset %[1]s for $i in dataset %[1]s
		where similarity-jaccard(word-tokens($o.t), word-tokens($i.t)) >= %[4]g
		and $o.id >= %[2]d and $o.id < %[3]d and $o.id < $i.id
		return {'o': $o.id, 'i': $i.id}`, ds, lo, hi, delta)
}

// nestedLoopPairs is memoJoinAQL's answer by a nested loop over texts,
// keyed by id, in joinPairs' form.
func nestedLoopPairs(texts map[int64]string, lo, hi int64, delta float64) []string {
	pairs := []string{}
	for o, ot := range texts {
		if o < lo || o >= hi {
			continue
		}
		for i, it := range texts {
			if o < i && sim.Jaccard(tokenizer.WordTokens(ot), tokenizer.WordTokens(it)) >= delta {
				pairs = append(pairs, fmt.Sprintf("%d-%d", o, i))
			}
		}
	}
	sort.Strings(pairs)
	return pairs
}

// memoText is a record text over a vocabulary small enough that many
// pairs pass the thresholds the tests use.
func memoText(r *rand.Rand) string {
	words := make([]string, 3+r.Intn(6))
	for i := range words {
		words[i] = fmt.Sprintf("w%d", r.Intn(14))
	}
	return strings.Join(words, " ")
}

// memoWrite inserts n records with ids in [1, maxID] — overwrites once
// the ids repeat — into every dataset of dss, one batch each, and notes
// the texts.
func memoWrite(c *Cluster, r *rand.Rand, texts map[int64]string, n int, maxID int64, dss ...string) error {
	recs := make([]adm.Value, n)
	for k := range recs {
		id, text := 1+r.Int63n(maxID), memoText(r)
		texts[id] = text
		recs[k] = memoRecord(id, text)
	}
	for _, ds := range dss {
		if err := c.InsertBatch("Default", ds, recs); err != nil {
			return err
		}
	}
	return nil
}

// memoOutcomes returns the outcome of every memo operator of a run, or
// fails unless the plan has the two the three-stage join gets.
func memoOutcomes(t *testing.T, res *Result) map[string]string {
	t.Helper()
	if len(res.Stats.Memo) != 2 {
		t.Fatalf("memo outcomes %v, want the token order and the ranked lists", res.Stats.Memo)
	}
	return res.Stats.Memo
}

// TestThreeStageJoinKeepsPairsAtTheThreshold is a pair whose Jaccard is
// exactly the threshold: 55 of 100 words. 0.55*100 rounds to
// 55.000000000000007, and a prefix cut from it without the epsilon was
// one token short, so the three-stage join lost the pair that
// similarity-jaccard itself evaluates to 0.55.
func TestThreeStageJoinKeepsPairsAtTheThreshold(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	exec(t, c, sess, `create dataset E primary key id;`)
	words := make([]string, 100)
	for i := range words {
		words[i] = fmt.Sprintf("word%03d", i)
	}
	for id, text := range map[int64]string{1: strings.Join(words, " "), 2: strings.Join(words[:55], " ")} {
		if err := c.Insert("Default", "E", adm.NewRecord(adm.NewRecordFromFields([]string{"id", "t"},
			[]adm.Value{adm.NewInt(id), adm.NewString(text)}))); err != nil {
			t.Fatal(err)
		}
	}
	simRes := exec(t, c, sess, `for $a in dataset E for $b in dataset E where $a.id = 1 and $b.id = 2
		return similarity-jaccard(word-tokens($a.t), word-tokens($b.t))`)
	if len(simRes.Rows) != 1 || simRes.Rows[0].Double() != 0.55 {
		t.Fatalf("similarity-jaccard of the pair is %v, want [0.55]", simRes.Rows)
	}
	res := exec(t, c, sess, `for $a in dataset E for $b in dataset E
		where similarity-jaccard(word-tokens($a.t), word-tokens($b.t)) >= 0.55 and $a.id < $b.id
		return {'o': $a.id, 'i': $b.id}`)
	if !strings.Contains(res.Stats.LogicalPlan(), "rank") {
		t.Fatalf("not the three-stage plan:\n%s", res.Stats.LogicalPlan())
	}
	if got := joinPairs(res); fmt.Sprint(got) != "[1-2]" {
		t.Errorf("pairs %v, want [1-2]", got)
	}
}

// memoDeltas are the thresholds the memo's property test joins at.
var memoDeltas = []float64{0.5, 0.6, 0.7, 0.8, 0.9}

// TestJoinMemoMatchesNestedLoopAndIndexJoin is the memo's property test:
// rounds of inserts and overwrites, and between them three-stage joins at
// five thresholds, each against a nested loop over the written texts and
// against the index-nested-loop join of an indexed twin of the dataset.
// The first join after a write misses both memos; a join at a threshold
// the data version has not seen yet probes the kept token order and keeps
// its prefix tables, and the next join at that threshold, over another
// outer range, probes both. Between the rounds, joins at two thresholds
// run concurrently over the same kept tables.
func TestJoinMemoMatchesNestedLoopAndIndexJoin(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	exec(t, c, sess, `create dataset M primary key id;`)
	exec(t, c, sess, `create dataset MI primary key id;`)
	exec(t, c, sess, `create index mit on MI(t) type keyword;`)
	r := rand.New(rand.NewSource(41))
	texts := map[int64]string{}
	if err := memoWrite(c, r, texts, 150, 200, "M", "MI"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for k, delta := range memoDeltas {
			for rep := 0; rep < 2; rep++ {
				lo := 1 + r.Int63n(180)
				want := nestedLoopPairs(texts, lo, lo+20, delta)
				three := exec(t, c, sess, memoJoinAQL("M", lo, lo+20, delta))
				if !strings.Contains(three.Stats.LogicalPlan(), "rank") {
					t.Fatalf("M: not the three-stage plan:\n%s", three.Stats.LogicalPlan())
				}
				wantOrder, wantPrefix := memoHit, memoHit
				if k == 0 && rep == 0 {
					wantOrder = memoMiss
				}
				if rep == 0 {
					wantPrefix = memoMiss
				}
				for key, o := range memoOutcomes(t, three) {
					if w := map[bool]string{true: wantOrder, false: wantPrefix}[strings.HasPrefix(key, "order(")]; o != w {
						t.Errorf("round %d, delta %g, join %d: memo %s is %s, want %s", round, delta, rep, key, o, w)
					}
				}
				inlj := exec(t, c, sess, memoJoinAQL("MI", lo, lo+20, delta))
				if !strings.Contains(inlj.Stats.LogicalPlan(), "secondary-index-search") {
					t.Fatalf("MI: not the index-nested-loop plan:\n%s", inlj.Stats.LogicalPlan())
				}
				if got := joinPairs(three); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("round %d, delta %g, ids [%d, %d): three-stage %v, nested loop %v", round, delta, lo, lo+20, got, want)
				}
				if got := joinPairs(inlj); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("round %d, delta %g, ids [%d, %d): index join %v, nested loop %v", round, delta, lo, lo+20, got, want)
				}
			}
		}
		var wg sync.WaitGroup
		for g, delta := range []float64{0.6, 0.8} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gsess := NewSession()
				for q := int64(0); q < 3; q++ {
					lo := 1 + q*60 + int64(g)*30
					res, err := c.Execute(context.Background(), gsess, memoJoinAQL("M", lo, lo+30, delta))
					if err != nil {
						t.Error(err)
						return
					}
					if got, want := joinPairs(res), nestedLoopPairs(texts, lo, lo+30, delta); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("round %d, concurrent delta %g, ids [%d, %d): three-stage %v, nested loop %v", round, delta, lo, lo+30, got, want)
					}
				}
			}()
		}
		wg.Wait()
		if err := memoWrite(c, r, texts, 25, 220, "M", "MI"); err != nil {
			t.Fatal(err)
		}
		if round%2 == 1 {
			if err := c.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := c.MemoStats(); st.Entries != 1+len(memoDeltas) || st.Bytes <= 0 || st.Hits == 0 || st.Misses == 0 {
		t.Errorf("memo stats %+v, want the order and one prefix entry a threshold, their bytes, hits and misses", st)
	}
}

// TestJoinMemoConcurrentWriter races a writer, inserting and overwriting
// records, with joins. Every pair a join returns during the race
// satisfies the predicate on the two records it returns, and once the
// writer stops, the next join — and the one that probes the tables it
// kept — equals the nested loop over the final data.
func TestJoinMemoConcurrentWriter(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	exec(t, c, sess, `create dataset W primary key id;`)
	r := rand.New(rand.NewSource(7))
	texts := map[int64]string{}
	if err := memoWrite(c, r, texts, 120, 150, "W"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wr := rand.New(rand.NewSource(8))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := memoWrite(c, wr, texts, 5, 160, "W"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const delta = 0.5
	for k := int64(0); k < 12; k++ {
		lo, hi := 1+k*10, 21+k*10
		res, err := c.Execute(context.Background(), sess, fmt.Sprintf(`for $o in dataset W for $i in dataset W
			where similarity-jaccard(word-tokens($o.t), word-tokens($i.t)) >= %g
			and $o.id >= %d and $o.id < %d and $o.id < $i.id
			return {'o': $o.id, 'i': $i.id, 'ot': $o.t, 'it': $i.t}`, delta, lo, hi))
		if err != nil {
			t.Error(err)
			continue
		}
		for _, row := range res.Rows {
			o, _ := row.Rec().Get("o")
			i, _ := row.Rec().Get("i")
			ot, _ := row.Rec().Get("ot")
			it, _ := row.Rec().Get("it")
			j := sim.Jaccard(tokenizer.WordTokens(ot.Str()), tokenizer.WordTokens(it.Str()))
			if o.Int() < lo || o.Int() >= hi || o.Int() >= i.Int() || j < delta {
				t.Errorf("join %d returned %d-%d with Jaccard %g: %q, %q", k, o.Int(), i.Int(), j, ot.Str(), it.Str())
			}
		}
	}
	close(stop)
	wg.Wait()

	for _, want := range []string{memoMiss, memoHit} {
		res := exec(t, c, sess, memoJoinAQL("W", 1, 60, delta))
		if got, naive := joinPairs(res), nestedLoopPairs(texts, 1, 60, delta); fmt.Sprint(got) != fmt.Sprint(naive) {
			t.Errorf("after the writer stopped (%s): three-stage %v, nested loop %v", want, got, naive)
		}
		for key, o := range memoOutcomes(t, res) {
			if o != want {
				t.Errorf("after the writer stopped: memo %s is %s, want %s", key, o, want)
			}
		}
	}
}

// memoRecord is a record of the memo tests' datasets.
func memoRecord(id int64, text string) adm.Value {
	return adm.NewRecord(adm.NewRecordFromFields([]string{"id", "t"}, []adm.Value{adm.NewInt(id), adm.NewString(text)}))
}

// TestJoinMemoWriteBetweenResolutions lands a write between a job's two
// memo resolutions: the token order, resolved first, hits, and the
// prefix tables, missing from the memo, are resolved after the write.
// Both resolve against one reading of the dataset's version, so the
// tables that job builds from lists ranked by the kept order are never
// stored as the newer version's; the job itself runs again without the
// memo, and every join after it equals the nested loop. The write makes
// the words w0…w6 far more frequent than the rest, which reorders the
// tokens.
func TestJoinMemoWriteBetweenResolutions(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	exec(t, c, sess, `create dataset B primary key id;`)
	r := rand.New(rand.NewSource(11))
	texts := map[int64]string{}
	if err := memoWrite(c, r, texts, 150, 200, "B"); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		exec(t, c, sess, memoJoinAQL("B", 1, 60, 0.5))
	}
	c.memo.mu.Lock()
	for k, e := range c.memo.entries {
		if strings.HasPrefix(k, "ranked(") {
			c.memo.drop(k, e)
		}
	}
	kept := len(c.memo.entries)
	c.memo.mu.Unlock()
	if kept != 1 {
		t.Fatalf("memo holds %d entries after dropping the ranked lists, want the order alone", kept)
	}

	var resolved []string
	c.memoResolved = func(key string) {
		resolved = append(resolved, key)
		if len(resolved) != 1 {
			return
		}
		recs := []adm.Value{}
		for id := int64(61); id <= 200; id++ {
			words := make([]string, 4+r.Intn(4))
			for i := range words {
				words[i] = fmt.Sprintf("w%d", r.Intn(7))
			}
			texts[id] = strings.Join(words, " ")
			recs = append(recs, memoRecord(id, texts[id]))
		}
		if err := c.InsertBatch("Default", "B", recs); err != nil {
			t.Error(err)
		}
	}
	res := exec(t, c, sess, memoJoinAQL("B", 1, 60, 0.5))
	c.memoResolved = nil
	if len(resolved) < 2 || !strings.HasPrefix(resolved[0], "order(") {
		t.Fatalf("memos resolved in the order %v, want the token order first", resolved)
	}
	if got, naive := joinPairs(res), nestedLoopPairs(texts, 1, 60, 0.5); fmt.Sprint(got) != fmt.Sprint(naive) {
		t.Errorf("the join the write interrupted: three-stage %v, nested loop %v", got, naive)
	}
	if st := c.MemoStats(); st.Reruns != 1 {
		t.Errorf("memo reruns %d, want 1", st.Reruns)
	}
	for k, delta := range []float64{0.5, 0.6, 0.5, 0.8} {
		lo := 1 + int64(k)*15
		res := exec(t, c, sess, memoJoinAQL("B", lo, lo+40, delta))
		if got, naive := joinPairs(res), nestedLoopPairs(texts, lo, lo+40, delta); fmt.Sprint(got) != fmt.Sprint(naive) {
			t.Errorf("join %d after the write: three-stage %v, nested loop %v", k, got, naive)
		}
	}
}

// TestJoinMemoWriteAfterGenerationReruns lands a write after a job that
// probes both kept tables was generated: outer record a becomes record
// b's words plus twelve words no stored record has. The kept order has
// no rank for those, so a run that kept probing it would cut them from
// a's ranked list and return a-b at Jaccard 1; the job runs again
// without the memo instead. The query streams, so this also checks
// that the rows of the abandoned run never reach the client.
func TestJoinMemoWriteAfterGenerationReruns(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	exec(t, c, sess, `create dataset A primary key id;`)
	r := rand.New(rand.NewSource(12))
	texts := map[int64]string{}
	if err := memoWrite(c, r, texts, 150, 200, "A"); err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for id := range texts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	a, b := ids[0], ids[1]
	q := memoJoinAQL("A", 1, 60, 0.5)
	for _, want := range []string{memoMiss, memoHit} {
		for key, o := range memoOutcomes(t, exec(t, c, sess, q)) {
			if o != want {
				t.Fatalf("warm-up: memo %s is %s, want %s", key, o, want)
			}
		}
	}

	resolved := 0
	c.memoResolved = func(string) {
		if resolved++; resolved != 2 {
			return
		}
		texts[a] = texts[b]
		for w := 0; w < 12; w++ {
			texts[a] += fmt.Sprintf(" new%d", w)
		}
		if err := c.Insert("Default", "A", memoRecord(a, texts[a])); err != nil {
			t.Error(err)
		}
	}
	var rows []adm.Value
	res, err := c.ExecuteStream(context.Background(), sess, q, StreamHandler{OnRow: func(v adm.Value) error {
		rows = append(rows, v)
		return nil
	}})
	c.memoResolved = nil
	if err != nil {
		t.Fatal(err)
	}
	if got, naive := joinPairs(&Result{Rows: rows}), nestedLoopPairs(texts, 1, 60, 0.5); fmt.Sprint(got) != fmt.Sprint(naive) {
		t.Errorf("record %d rewritten during the join: three-stage %v, nested loop %v", a, got, naive)
	}
	if st := c.MemoStats(); st.Reruns != 1 {
		t.Errorf("memo reruns %d, want 1", st.Reruns)
	}
	for key, o := range res.Stats.Memo {
		if o != memoMiss {
			t.Errorf("the rerun: memo %s is %s, want miss", key, o)
		}
	}
}

// TestJoinMemoHitRunsNoDataOnlyOperators is the attribution: on a hit,
// the benchmark join runs neither stage 1 (token counts, order, rank)
// nor the inner side of stage 2 (tokenize, rank join, group, prefix
// unnest), builds no hash table — its two hash joins probe the tables
// the memo kept — and, its result reading only the two keys, has no
// stage 3: it runs only the outer side's scan, which reads the key range
// of its select, and no Replicate. A miss also runs the memo subplans'
// shared full scan, whose pipeline ends in a Replicate to both of them.
func TestJoinMemoHitRunsNoDataOnlyOperators(t *testing.T) {
	c, sess, recs := loadBenchJoin(t)
	q := "explain analyze " + benchJoin.AQL("ReviewsPlain")
	// count counts the stages of the job's nodes by name, as "Scan" the
	// nodes whose chain scans ReviewsPlain, and as "Memo" any that a
	// memo generated itself.
	count := func(res *Result) map[string]int {
		n := map[string]int{}
		for _, op := range res.Stats.PhysicalOps() {
			for _, stage := range strings.Split(op.Name, "+") {
				n[stage]++
			}
			if hasStage(op.Name, "DataScan(ReviewsPlain)") {
				n["Scan"]++
			}
			if strings.HasPrefix(op.Name, "Memo") {
				n["Memo"]++
			}
		}
		return n
	}
	// replicated is what the partitioned nodes whose pipeline ends in a
	// Replicate emit to their ports, all of them together.
	replicated := func(res *Result) int64 {
		var out int64
		for _, op := range res.Stats.PhysicalOps() {
			if hasStage(op.Name, "Replicate") && op.Instances == c.cfg.Partitions() {
				out += op.TuplesOut
			}
		}
		return out
	}
	miss := exec(t, c, sess, q)
	hit := exec(t, c, sess, q)
	for _, tc := range []struct {
		res        *Result
		outcome    string
		replicated int
		// rank counts the Rank and HashGroupLocal stages of stage 1,
		// built and kept the hash joins that build a table and those
		// that probe a kept one, unnests the unnests: stage 1, both
		// sides' tokens and both sides' prefixes on a miss, the outer
		// side's two on a hit.
		rank, built, kept, unnests int
	}{
		{miss, memoMiss, 2 * len(recs), 1, 3, 0, 5},
		{hit, memoHit, 0, 0, 0, 2, 2},
	} {
		text := rowsText(tc.res)
		if n := strings.Count(text, "  memo: "+tc.outcome+"\n"); n != 2 {
			t.Errorf("explain analyze prints memo: %s on %d lines, want 2:\n%s", tc.outcome, n, text)
		}
		ops := count(tc.res)
		if ops["Rank"] != tc.rank || ops["HashGroupLocal"] != tc.rank || ops["HashJoin"] != tc.built || ops["HashJoin(kept)"] != tc.kept || ops["Unnest"] != tc.unnests {
			t.Errorf("%s: %d Rank, %d HashGroupLocal, %d HashJoin, %d HashJoin(kept) and %d Unnest stages, want %d, %d, %d, %d and %d",
				tc.outcome, ops["Rank"], ops["HashGroupLocal"], ops["HashJoin"], ops["HashJoin(kept)"], ops["Unnest"],
				tc.rank, tc.rank, tc.built, tc.kept, tc.unnests)
		}
		scans := 2
		if tc.outcome == memoHit {
			scans = 1
		}
		if ops["Memo"] != 0 || ops["Scan"] != scans {
			t.Errorf("%s: %d memo nodes (a replay source or a capture) and %d scans, want none and %d", tc.outcome, ops["Memo"], ops["Scan"], scans)
		}
		// A node exists only where rows change partition, or for a shared
		// node's readers. A miss: the shared scan ends in a Replicate to
		// the token counts' pipeline and the inner side's, and the rank
		// of the token order in a Replicate to both sides' prefix joins;
		// then the two sides' group-bys, the pairs' join and group-by,
		// and the result: 11 nodes, 38 instances.
		if n, inst := len(tc.res.Stats.PhysicalOps()), len(tc.res.Stats.Spans); tc.outcome == memoMiss && (n != 11 || inst != 38) {
			t.Errorf("miss: %d job nodes and %d instances, want 11 and 38", n, inst)
		}
		if tc.outcome == memoHit {
			// A hit: the outer scan heads the pipeline of the outer
			// side's select, assign, unnest and its probe of the kept
			// token order, and each hash repartition starts the next (the
			// group-by, the prefix join's probe, the group-by of the
			// pairs), then the result: 5 nodes, 17 instances.
			if n, inst := len(tc.res.Stats.PhysicalOps()), len(tc.res.Stats.Spans); n != 5 || inst != 17 {
				t.Errorf("hit: %d job nodes and %d instances, want 5 and 17", n, inst)
			}
			// Both ends of the outer range are closed: the scan reads
			// the ten keys and the one at the range's strict end.
			for _, op := range tc.res.Stats.PhysicalOps() {
				if hasStage(op.Name, "DataScan(ReviewsPlain)") && op.TuplesIn > gen.JoinOuter+1 {
					t.Errorf("hit: the outer scan reads %d rows, want at most %d", op.TuplesIn, gen.JoinOuter+1)
				}
			}
		}
		if got := replicated(tc.res); got != int64(tc.replicated) {
			t.Errorf("%s: the scan's Replicate emits %d tuples, want %d", tc.outcome, got, tc.replicated)
		}
	}
}

// TestJoinMemoNonKeyResultRunsStage3 returns a field of the inner
// record: stage 3 joins the rid pairs back to both inputs, on a miss and
// on a hit, and the pairs and the field agree with the nested loop.
func TestJoinMemoNonKeyResultRunsStage3(t *testing.T) {
	c, sess, recs := loadBenchJoin(t)
	q := strings.Replace(benchJoin.AQL("ReviewsPlain"), "'i': $i.id}", "'i': $i.id, 's': $i.summary}", 1)
	want := benchJoinReference(recs)
	summary := map[int64]string{}
	for _, r := range recs {
		summary[r.ID] = r.Summary
	}
	for _, tc := range []struct {
		outcome     string
		built, kept int
	}{{memoMiss, 5, 0}, {memoHit, 2, 2}} {
		res := exec(t, c, sess, q)
		if got := joinPairs(res); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: pairs %v, want %v", tc.outcome, got, want)
		}
		for _, row := range res.Rows {
			i, _ := row.Rec().Get("i")
			if s, _ := row.Rec().Get("s"); s.Str() != summary[i.Int()] {
				t.Errorf("%s: pair with %d returns summary %q, want %q", tc.outcome, i.Int(), s.Str(), summary[i.Int()])
			}
		}
		n := map[string]int{}
		for _, op := range res.Stats.PhysicalOps() {
			for _, stage := range strings.Split(op.Name, "+") {
				n[stage]++
			}
		}
		if n["HashJoin"] != tc.built || n["HashJoin(kept)"] != tc.kept {
			t.Errorf("%s: %d HashJoin and %d HashJoin(kept) stages, want stage 3's %d and %d", tc.outcome, n["HashJoin"], n["HashJoin(kept)"], tc.built, tc.kept)
		}
		for key, o := range memoOutcomes(t, res) {
			if o != tc.outcome {
				t.Errorf("memo %s is %s, want %s", key, o, tc.outcome)
			}
		}
	}
}

// TestJoinMemoKeyEqualityJoin joins on the two keys' equality besides
// the similarity, alone or beside $o.id < $i.id. The equality becomes a
// second key of the prefix join, which then reads the ranked memo
// through an assign and cannot probe its entry. After the plain join has
// kept that entry, the query misses the ranked memo, keeps nothing and
// answers as the nested loop, run after run; the plain join still hits.
func TestJoinMemoKeyEqualityJoin(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	exec(t, c, sess, `create dataset M primary key id;`)
	texts := map[int64]string{}
	if err := memoWrite(c, rand.New(rand.NewSource(7)), texts, 150, 200, "M"); err != nil {
		t.Fatal(err)
	}
	const lo, hi, delta = 20, 80, 0.6
	plain := memoJoinAQL("M", lo, hi, delta)
	eq := strings.Replace(plain, "$o.id < $i.id", "$o.id = $i.id", 1)
	both := strings.Replace(plain, "$o.id < $i.id", "$o.id < $i.id and $o.id = $i.id", 1)
	// Every record is similar to itself: the pairs are the outer range's ids.
	wantEq := []string{}
	for id := range texts {
		if id >= lo && id < hi {
			wantEq = append(wantEq, fmt.Sprintf("%d-%d", id, id))
		}
	}
	sort.Strings(wantEq)
	for run, tc := range []struct {
		q, ranked string
		want      []string
	}{
		{plain, memoMiss, nestedLoopPairs(texts, lo, hi, delta)},
		{eq, memoMiss, wantEq},
		{eq, memoMiss, wantEq},
		{both, memoMiss, []string{}},
		{plain, memoHit, nestedLoopPairs(texts, lo, hi, delta)},
	} {
		res := exec(t, c, sess, tc.q)
		if got := joinPairs(res); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("run %d: pairs %v, nested loop %v", run, got, tc.want)
		}
		for key, o := range memoOutcomes(t, res) {
			if strings.HasPrefix(key, "ranked(") && o != tc.ranked {
				t.Errorf("run %d: memo %s is %s, want %s", run, key, o, tc.ranked)
			}
		}
	}
	if st := c.MemoStats(); st.Entries != 2 {
		t.Errorf("memo holds %d entries, want the plain join's order and prefix tables", st.Entries)
	}
}

// TestJoinMemoFreedByDDL drops the dataset a join kept tables of: the
// memo frees them with the statement, and the gauges read zero.
func TestJoinMemoFreedByDDL(t *testing.T) {
	c, sess, _ := loadBenchJoin(t)
	exec(t, c, sess, benchJoin.AQL("ReviewsPlain"))
	if g := c.Metrics().Gauges; g["cluster.joinmemo.entries"] != 2 || g["cluster.joinmemo.bytes"] <= 0 {
		t.Fatalf("after the join the memo gauges read %d entries and %d bytes, want 2 and their bytes",
			g["cluster.joinmemo.entries"], g["cluster.joinmemo.bytes"])
	}
	exec(t, c, sess, `drop dataset ReviewsPlain;`)
	if g := c.Metrics().Gauges; g["cluster.joinmemo.entries"] != 0 || g["cluster.joinmemo.bytes"] != 0 {
		t.Errorf("after drop dataset the memo gauges read %d entries and %d bytes, want 0 and 0",
			g["cluster.joinmemo.entries"], g["cluster.joinmemo.bytes"])
	}
}

// TestJoinMemoCaptureOverBudgetIsDropped runs the join under the
// smallest budget (hyracks.MinQueryMemory): the joins' build sides
// spill, so no table is kept, the join answers as without memo, and
// nothing is stored. The first run marks both keys unkept, so the next
// job builds the prefix join on the optimizer's side, the small outer
// one, as a job that keeps the table would not.
func TestJoinMemoCaptureOverBudgetIsDropped(t *testing.T) {
	c, sess, _ := loadBenchJoin(t)
	want := joinPairs(exec(t, c, NewSession(), `set memorybudget 'unlimited'; `+benchJoin.AQL("ReviewsPlain")))
	c.memo = newMemoStore()
	exec(t, c, sess, `set memorybudget '64k';`)
	for run := 0; run < 2; run++ {
		res := exec(t, c, sess, benchJoin.AQL("ReviewsPlain"))
		if got := joinPairs(res); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("run %d: pairs %v, want %v", run, got, want)
		}
		for key, o := range memoOutcomes(t, res) {
			if o != memoMiss {
				t.Errorf("run %d: memo %s is %s, want miss", run, key, o)
			}
		}
	}
	if st := c.MemoStats(); st.Entries != 0 || len(c.memo.unkept) != 2 {
		t.Errorf("memo holds %d entries and %d unkept marks, want none and both keys", st.Entries, len(c.memo.unkept))
	}
	// prefixJoin returns the build and probe inputs of the job's prefix
	// join, the one hash join that repartitions its build side: the
	// node it is a stage of reads the probe side through its first port
	// and the build side through its second.
	prefixJoin := func() (build, probe string) {
		bp := explainedPlan(t, c, sess, benchJoin.AQL("ReviewsPlain"))
		g, _, err := c.generateJob(bp, nil, true, c.snapshotSession(sess).Opts.MemoryBudgetBytes)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range g.job.Nodes() {
			if hasStage(n.Name, "HashJoin") && len(n.Inputs) == 2 && n.Inputs[1].Conn.Type == hyracks.Hash {
				return n.Inputs[1].From.Name, n.Inputs[0].From.Name
			}
		}
		t.Fatal("no prefix join in the job")
		return "", ""
	}
	unkeptBuild, _ := prefixJoin()
	c.memo = newMemoStore()
	keptBuild, keptProbe := prefixJoin()
	if unkeptBuild != keptProbe || keptBuild == keptProbe {
		t.Errorf("with the keys unkept the prefix join builds on %s, want %s, the input a capturing job probes with (it builds on %s)",
			unkeptBuild, keptProbe, keptBuild)
	}
}

// TestJoinMemoSpillMarkYieldsToALargerBudget runs the join where its
// build sides spill and then unbudgeted: the spill marked both keys
// unkept under the small budget, and the unbudgeted job captures them
// again, so a third run hits.
func TestJoinMemoSpillMarkYieldsToALargerBudget(t *testing.T) {
	c, sess, _ := loadBenchJoin(t)
	want := joinPairs(exec(t, c, NewSession(), `set memorybudget 'unlimited'; `+benchJoin.AQL("ReviewsPlain")))
	c.memo = newMemoStore()
	exec(t, c, sess, `set memorybudget '64k';`)
	for run, tc := range []struct {
		budget  string
		outcome string
		entries int
	}{
		{"64k", memoMiss, 0},
		{"unlimited", memoMiss, 2},
		{"unlimited", memoHit, 2},
	} {
		exec(t, c, sess, `set memorybudget '`+tc.budget+`';`)
		res := exec(t, c, sess, benchJoin.AQL("ReviewsPlain"))
		if got := joinPairs(res); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("run %d: pairs %v, want %v", run, got, want)
		}
		for key, o := range memoOutcomes(t, res) {
			if o != tc.outcome {
				t.Errorf("run %d (%s): memo %s is %s, want %s", run, tc.budget, key, o, tc.outcome)
			}
		}
		if st := c.MemoStats(); st.Entries != tc.entries {
			t.Errorf("run %d (%s): memo holds %d entries, want %d", run, tc.budget, st.Entries, tc.entries)
		}
	}
}

// TestMemoUnkeptMarkBudgets checks which budgets an unkept mark turns
// away: a spill mark every budget up to the one that spilled, a mark of
// tables the memo had no room for every budget.
func TestMemoUnkeptMarkBudgets(t *testing.T) {
	s := newMemoStore()
	s.put("spilled", &memoEntry{ds: "d", epoch: 1, version: 1, spilledAt: 64 << 10})
	s.put("full", &memoEntry{ds: "d", epoch: 1, version: 1, tables: []*hyracks.JoinTable{}, bytes: memoByteCap + 1})
	for _, tc := range []struct {
		key    string
		budget int64
		keep   bool
	}{
		{"spilled", 32 << 10, false},
		{"spilled", 64 << 10, false},
		{"spilled", 2 << 20, true},
		{"spilled", 0, true},
		{"full", 2 << 20, false},
		{"full", 0, false},
	} {
		if _, keep := s.get(tc.key, 1, 1, tc.budget); keep != tc.keep {
			t.Errorf("%s mark, budget %d: keep = %v, want %v", tc.key, tc.budget, keep, tc.keep)
		}
	}
}
