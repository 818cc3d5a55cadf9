package invindex

import (
	"fmt"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/datagen"
	"simdb/internal/storage"
	"simdb/internal/tokenizer"
)

// canonShape is one of the four query shapes of the canonical selection
// workload: which index it searches, which stored value supplies the
// query tokens, and the occurrence threshold.
type canonShape struct {
	name  string
	gram  bool
	value string
	t     int
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
		{"jaccard_08", false, summary, 4},
		{"jaccard_05", false, summary, 2},
		{"ed_1", true, name, 9},
		{"ed_2", true, name, 7},
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

// searchCeiling is what a warm Search of each CANON shape may cost under
// the default solver, over 5000 records. allocs is dominated by the
// answer itself — one string per candidate — and the rest is a dozen
// allocations of per-search scratch sized by the token count. postings
// is the work: the postings the solver decoded (SearchStats.PostingsRead),
// which depends on how a seek searches a page and on how exactly the
// size hints rank the lists. Both repeat exactly and may only move down:
// a change that raises allocs has put an allocation on the per-posting
// path, one that raises postings decodes more to find the same answer.
var searchCeiling = map[string]struct {
	allocs   float64
	postings int64
}{
	"jaccard_08": {19, 74},    // 1 candidate
	"jaccard_05": {406, 2943}, // 381 candidates
	"ed_1":       {31, 1004},  // 5 candidates
	"ed_2":       {30, 1672},  // 7 candidates
}

func TestSearchAllocationCeiling(t *testing.T) {
	kw, ng, shapes := canonIndexes(t, 5000)
	for _, s := range shapes {
		ix, toks := s.index(kw, ng), s.tokens()
		var cands int
		var stats SearchStats
		allocs := testing.AllocsPerRun(20, func() {
			pks, st, err := ix.Search(toks, s.t, DivideSkip)
			if err != nil {
				t.Fatal(err)
			}
			cands, stats = len(pks), st
		})
		t.Logf("%s: %d tokens, T=%d: %.0f allocations and %d postings for %d candidates",
			s.name, len(toks), s.t, allocs, stats.PostingsRead, cands)
		if cands == 0 {
			t.Errorf("%s: no candidates: the shape searches nothing", s.name)
		}
		ceiling := searchCeiling[s.name]
		if allocs > ceiling.allocs {
			t.Errorf("%s: %.0f allocations per warm Search, ceiling %.0f", s.name, allocs, ceiling.allocs)
		}
		if stats.PostingsRead > ceiling.postings {
			t.Errorf("%s: %d postings decoded per Search, ceiling %d", s.name, stats.PostingsRead, ceiling.postings)
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
				if _, stats, err = ix.Search(toks, s.t, algo); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.PostingsRead), "postings/op")
			b.ReportMetric(float64(stats.Candidates), "candidates/op")
		})
	}
}

func BenchmarkSearchScanCount(b *testing.B)  { benchmarkSearch(b, ScanCount) }
func BenchmarkSearchMergeSkip(b *testing.B)  { benchmarkSearch(b, MergeSkip) }
func BenchmarkSearchDivideSkip(b *testing.B) { benchmarkSearch(b, DivideSkip) }
