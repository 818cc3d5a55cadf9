package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/optimizer"
	"simdb/internal/sim"
	"simdb/internal/tokenizer"
)

// boundedRec is one record of the bounded-search tests: its id, a
// summary for the keyword index and a name for the 2-gram index.
type boundedRec struct {
	id            int64
	summary, name string
}

func (r boundedRec) value() adm.Value {
	rec := adm.EmptyRecord(3)
	rec.Set("id", adm.NewInt(r.id))
	rec.Set("summary", adm.NewString(r.summary))
	rec.Set("name", adm.NewString(r.name))
	return adm.NewRecord(rec)
}

// loadOverwritten loads dataset B, builds a keyword index on summary and
// a 2-gram index on name over it, then overwrites a third of the records
// with more words and longer names and a fifth with fewer words and
// shorter names — some of them twice, once each way — flushing between
// the rounds and leaving the last round in the memtables. Every
// overwrite leaves the old version's postings behind under the old
// token count. Three records hold more than 255 words, the counts the
// index keeps in one top length byte. It returns the final records and
// every summary and name any version held.
func loadOverwritten(t *testing.T, c *Cluster, sess *Session) (final map[int64]boundedRec, summaries, names []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(39))
	vocab := strings.Fields("good great product love value nice price fast cheap works " +
		"fine best ever bought quality gift broke returned small big " +
		"red blue light heavy sturdy flimsy happy sad okay perfect")
	word := func() string { return vocab[int(float64(len(vocab))*rng.Float64()*rng.Float64())] }
	words := func(n int) string {
		w := make([]string, n)
		for i := range w {
			w[i] = word()
		}
		return strings.Join(w, " ")
	}
	letters := "aeimnorst"
	nameOf := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return string(b)
	}
	long := func(from, n int) string {
		w := make([]string, n)
		for i := range w {
			w[i] = fmt.Sprintf("w%d", from+i)
		}
		return strings.Join(w, " ")
	}

	final = map[int64]boundedRec{}
	put := func(r boundedRec) {
		if err := c.Insert("Default", "B", r.value()); err != nil {
			t.Fatal(err)
		}
		final[r.id] = r
		summaries = append(summaries, r.summary)
		names = append(names, r.name)
	}
	exec(t, c, sess, `create dataset B primary key id;`)
	for id := int64(0); id < 240; id++ {
		put(boundedRec{id, words(1 + rng.Intn(10)), nameOf(4 + rng.Intn(6))})
	}
	put(boundedRec{240, long(0, 300), nameOf(8)})
	put(boundedRec{241, long(10, 290), nameOf(8)})
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	exec(t, c, sess, `create index bkw on B(summary) type keyword;`)
	exec(t, c, sess, `create index bng on B(name) type ngram(2);`)

	for round := 0; round < 2; round++ {
		for id := int64(0); id < 240; id++ {
			r := final[id]
			switch {
			case id%3 == 0 && (round == 0 || id%15 != 0):
				r.summary += " " + words(1+rng.Intn(6))
				r.name += nameOf(1 + rng.Intn(3))
			case id%5 == 0 && (round == 1 || id%15 != 0):
				r.summary = strings.Join(strings.Fields(r.summary)[:1], " ")
				r.name = r.name[:max(len(r.name)-1-rng.Intn(3), 1)]
			default:
				continue
			}
			put(r)
		}
		if round == 0 {
			put(boundedRec{242, long(5, 280), nameOf(8)})
			if err := c.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return final, summaries, names
}

// TestBoundedIndexSelectionMatchesScan: a selection through the
// length- and count-filtered index search returns what the scan plan
// and a reference computed from the final records return, although
// overwrites changed records' token counts in both directions and left
// their old postings behind.
func TestBoundedIndexSelectionMatchesScan(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	final, summaries, names := loadOverwritten(t, c, sess)
	ids := func(keep func(boundedRec) bool) string {
		var out []int64
		for _, r := range final {
			if keep(r) {
				out = append(out, r.id)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return fmt.Sprint(out)
	}
	noIdx := sessionOpts(func(o *optimizer.Options) { o.UseIndexes = false })
	rng := rand.New(rand.NewSource(7))
	pick := func(vals []string) string { return vals[rng.Intn(len(vals))] }
	type selection struct {
		q    string
		keep func(boundedRec) bool
	}
	var sels []selection
	for i := 0; i < 24; i++ {
		v := pick(summaries)
		if i < 3 {
			v = summaries[240+i]
		}
		q := tokenizer.WordTokens(v)
		for _, d := range []float64{0.3, 0.5, 0.8, 1} {
			sels = append(sels, selection{
				fmt.Sprintf(`for $r in dataset B where similarity-jaccard(word-tokens($r.summary), word-tokens('%s')) >= %g return $r.id`, v, d),
				func(r boundedRec) bool { return sim.Jaccard(tokenizer.WordTokens(r.summary), q) >= d },
			})
		}
		sels = append(sels, selection{
			fmt.Sprintf(`for $r in dataset B where similarity-jaccard(word-tokens($r.summary), word-tokens('%s')) > 0.5 return $r.id`, v),
			func(r boundedRec) bool { return sim.Jaccard(tokenizer.WordTokens(r.summary), q) > 0.5 },
		})
	}
	for i := 0; i < 24; i++ {
		v := pick(names)
		for k := 1; k <= 3; k++ {
			sels = append(sels, selection{
				fmt.Sprintf(`for $r in dataset B where edit-distance($r.name, '%s') <= %d return $r.id`, v, k),
				func(r boundedRec) bool { return sim.EditDistance(r.name, v) <= k },
			})
		}
	}
	indexed, answers := 0, 0
	for _, s := range sels {
		want := ids(s.keep)
		got := fmt.Sprint(rowInts(t, exec(t, c, NewSession(), s.q).Rows))
		if scan := fmt.Sprint(rowInts(t, exec(t, c, noIdx, s.q).Rows)); scan != want {
			t.Fatalf("%s\nscan %s, reference %s", s.q, scan, want)
		}
		if got != want {
			t.Errorf("%s\nindex plan %s, reference %s", s.q, got, want)
		}
		if strings.Contains(rowsText(exec(t, c, NewSession(), "explain "+s.q)), "secondary-index-search") {
			indexed++
		}
		if want != "[]" {
			answers++
		}
	}
	if indexed < len(sels)*3/4 || answers < len(sels)/2 {
		t.Errorf("%d of %d selections took the index and %d had answers: the test is vacuous", indexed, len(sels), answers)
	}
}

// TestBoundedIndexJoinsAgree: the index-nested-loop joins, whose
// searches take their bounds from each outer record's token count at
// run time, agree with the three-stage join, the nested loop and a
// reference over the final records, over the same overwritten data.
func TestBoundedIndexJoinsAgree(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	final, _, _ := loadOverwritten(t, c, sess)
	recs := make([]boundedRec, 0, len(final))
	for _, r := range final {
		recs = append(recs, r)
	}
	reference := func(keep func(a, b boundedRec) bool) string {
		var want []string
		for _, a := range recs {
			for _, b := range recs {
				if a.id < 60 && a.id < b.id && keep(a, b) {
					want = append(want, fmt.Sprintf("%d-%d", a.id, b.id))
				}
			}
		}
		sortStrings(want)
		return fmt.Sprint(want)
	}
	plans := map[string]*Session{
		"inlj-surrogate": sessionOpts(nil),
		"inlj-plain":     sessionOpts(func(o *optimizer.Options) { o.SurrogateINLJ = false }),
		"three-stage":    sessionOpts(func(o *optimizer.Options) { o.UseIndexes = false }),
		"nested-loop": sessionOpts(func(o *optimizer.Options) {
			o.UseIndexes, o.UseThreeStageJoin, o.ReuseSubplans = false, false, false
		}),
	}
	for _, d := range []float64{0.5, 0.8} {
		q := fmt.Sprintf(`
			set simfunction 'jaccard';
			set simthreshold '%g';
			for $a in dataset B
			for $b in dataset B
			where $a.id < 60 and word-tokens($a.summary) ~= word-tokens($b.summary) and $a.id < $b.id
			return { 'l': $a.id, 'r': $b.id }`, d)
		want := reference(func(a, b boundedRec) bool {
			return sim.Jaccard(tokenizer.WordTokens(a.summary), tokenizer.WordTokens(b.summary)) >= d
		})
		if want == "[]" {
			t.Fatalf("Jaccard %g: no similar pairs; the test is vacuous", d)
		}
		for name, s := range plans {
			if got := pairKey(exec(t, c, s, q)); got != want {
				t.Errorf("Jaccard %g, %s: %s\nreference %s", d, name, got, want)
			}
		}
	}
	for _, k := range []int{1, 2} {
		q := fmt.Sprintf(`
			set simfunction 'edit-distance';
			set simthreshold '%d';
			for $a in dataset B
			for $b in dataset B
			where $a.id < 60 and $a.name ~= $b.name and $a.id < $b.id
			return { 'l': $a.id, 'r': $b.id }`, k)
		want := reference(func(a, b boundedRec) bool { return sim.EditDistance(a.name, b.name) <= k })
		if want == "[]" {
			t.Fatalf("edit distance %d: no similar pairs; the test is vacuous", k)
		}
		for _, name := range []string{"inlj-surrogate", "nested-loop"} {
			if got := pairKey(exec(t, c, plans[name], q)); got != want {
				t.Errorf("edit distance %d, %s: %s\nreference %s", k, name, got, want)
			}
		}
	}
}
