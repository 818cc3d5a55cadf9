package invindex

import (
	"fmt"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/datagen"
	"simdb/internal/sim"
	"simdb/internal/storage"
	"simdb/internal/tokenizer"
)

// canonShape is one of the four query shapes of the canonical selection
// workload: which index it searches, which stored value supplies the
// query tokens, the occurrence threshold, and the bounds the engine
// searches it under.
type canonShape struct {
	name   string
	gram   bool
	value  string
	t      int
	bounds sim.Bounds
}

// canonIndexes builds a flushed keyword index over the summaries and a
// flushed 2-gram index over the reviewer names of n generated Amazon
// records, and picks the four CANON shapes from values the data holds:
// a 4-token summary searched at T = 4 and T = 2 (Jaccard 0.8 and 0.5)
// and a 10-character name — 11 padded 2-grams — at T = 9 and T = 7
// (edit distance 1 and 2).
func canonIndexes(tb testing.TB, n int) (kw, ng *Index, shapes []canonShape) {
	tb.Helper()
	open := func(name string) *Index {
		ix, err := Open(tb.TempDir(), storage.LSMOptions{Cache: storage.NewBufferCache(64<<20, 32<<10)})
		if err != nil {
			tb.Fatalf("open %s: %v", name, err)
		}
		tb.Cleanup(func() { ix.Close() })
		return ix
	}
	kw, ng = open("keyword"), open("ngram")
	var summary, name string
	err := datagen.Generate(datagen.Amazon, n, datagen.Options{Seed: 1}, func(v adm.Value) error {
		rec := v.Rec()
		id, _ := rec.Get("id")
		s, _ := rec.Get("summary")
		rn, _ := rec.Get("reviewerName")
		pk := PK(adm.OrderedKey(id))
		words := tokenizer.WordTokens(s.Str())
		grams := tokenizer.GramTokens(rn.Str(), 2, true)
		// The query constants come from the middle of the data, and are
		// the first values of the canonical sizes found there.
		if i, _ := id.Num(); int(i) > n/2 {
			if summary == "" && len(words) == 4 && len(distinct(words)) == 4 {
				summary = s.Str()
			}
			if name == "" && len(grams) == 11 && len(distinct(grams)) == 11 {
				name = rn.Str()
			}
		}
		if err := kw.Insert(words, pk); err != nil {
			return err
		}
		return ng.Insert(grams, pk)
	})
	if err == nil {
		err = kw.Flush()
	}
	if err == nil {
		err = ng.Flush()
	}
	if err != nil {
		tb.Fatal(err)
	}
	if summary == "" || name == "" {
		tb.Fatalf("no 4-token summary (%q) or 11-gram name (%q) in the data", summary, name)
	}
	return kw, ng, []canonShape{
		{"jaccard_08", false, summary, 4, sim.JaccardBounds(4, 0.8)},
		{"jaccard_05", false, summary, 2, sim.JaccardBounds(4, 0.5)},
		{"ed_1", true, name, 9, sim.EditDistanceBounds(11, 1, 2)},
		{"ed_2", true, name, 7, sim.EditDistanceBounds(11, 2, 2)},
	}
}

func distinct(tokens []string) map[string]bool {
	m := map[string]bool{}
	for _, t := range tokens {
		m[t] = true
	}
	return m
}

func (s canonShape) tokens() []string {
	if s.gram {
		return tokenizer.GramTokens(s.value, 2, true)
	}
	return tokenizer.WordTokens(s.value)
}

func (s canonShape) index(kw, ng *Index) *Index {
	if s.gram {
		return ng
	}
	return kw
}

// searchCeiling is what a warm search of each CANON shape may cost
// under the default solver, over 5000 records: the bounded search the
// engine runs (SearchBounded under the shape's bounds), and, under
// "<shape>/plain", the plain Search at the shape's T that contains(),
// btree probes and the benchmark harness run — the whole length range
// with need ≡ T. allocs is dominated by the answer itself — one string
// per candidate — and the rest is a dozen allocations of per-search
// scratch sized by the token count. postings is the work: the postings
// the solver decoded (SearchStats.PostingsRead), which depends on how a
// seek searches a page, on how exactly the size hints rank the lists,
// and on the length range the bounds admit. candidates is what the
// filters leave for the primary lookup to fetch and verify. All three
// repeat exactly and may only move down: a change that raises allocs
// has put an allocation on the per-posting path, one that raises
// postings decodes more to find the same answer, one that raises
// candidates prunes less.
var searchCeiling = map[string]struct {
	allocs     float64
	postings   int64
	candidates int
}{
	"jaccard_08":       {17, 45, 1},
	"jaccard_05":       {50, 766, 27},
	"ed_1":             {23, 423, 4},
	"ed_2":             {27, 839, 6},
	"jaccard_08/plain": {17, 67, 1},
	"jaccard_05/plain": {406, 2870, 381},
	"ed_1/plain":       {24, 914, 5},
	"ed_2/plain":       {26, 1591, 7},
}

func TestSearchAllocationCeiling(t *testing.T) {
	kw, ng, shapes := canonIndexes(t, 5000)
	for _, s := range shapes {
		ix, toks := s.index(kw, ng), s.tokens()
		for _, plain := range []bool{false, true} {
			name, search := s.name, func() ([]PK, SearchStats, error) {
				return ix.SearchBounded(toks, s.bounds, DivideSkip)
			}
			if plain {
				name, search = s.name+"/plain", func() ([]PK, SearchStats, error) {
					return ix.Search(toks, s.t, DivideSkip)
				}
			}
			var cands int
			var stats SearchStats
			allocs := testing.AllocsPerRun(20, func() {
				pks, st, err := search()
				if err != nil {
					t.Fatal(err)
				}
				cands, stats = len(pks), st
			})
			t.Logf("%s: %d tokens, T=%d: %.0f allocations and %d postings for %d candidates (%d pruned)",
				name, len(toks), s.t, allocs, stats.PostingsRead, cands, stats.Pruned)
			if cands == 0 {
				t.Errorf("%s: no candidates: the shape searches nothing", name)
			}
			ceiling := searchCeiling[name]
			if allocs > ceiling.allocs {
				t.Errorf("%s: %.0f allocations per warm search, ceiling %.0f", name, allocs, ceiling.allocs)
			}
			if stats.PostingsRead > ceiling.postings {
				t.Errorf("%s: %d postings decoded per search, ceiling %d", name, stats.PostingsRead, ceiling.postings)
			}
			if cands > ceiling.candidates {
				t.Errorf("%s: %d candidates per search, ceiling %d", name, cands, ceiling.candidates)
			}
		}
	}
}

func benchmarkSearch(b *testing.B, algo Algorithm) {
	kw, ng, shapes := canonIndexes(b, 20000)
	for _, s := range shapes {
		ix, toks := s.index(kw, ng), s.tokens()
		b.Run(fmt.Sprintf("%s/T=%d", s.name, s.t), func(b *testing.B) {
			var stats SearchStats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if _, stats, err = ix.SearchBounded(toks, s.bounds, algo); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.PostingsRead), "postings/op")
			b.ReportMetric(float64(stats.Candidates), "candidates/op")
			b.ReportMetric(float64(stats.Pruned), "pruned/op")
		})
	}
}

func BenchmarkSearchScanCount(b *testing.B)  { benchmarkSearch(b, ScanCount) }
func BenchmarkSearchMergeSkip(b *testing.B)  { benchmarkSearch(b, MergeSkip) }
func BenchmarkSearchDivideSkip(b *testing.B) { benchmarkSearch(b, DivideSkip) }
