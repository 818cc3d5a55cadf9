package invindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/storage"
	"simdb/internal/tokenizer"
)

func pkOf(id int64) PK {
	return PK(adm.OrderedKey(adm.NewInt(id)))
}

func newTestIndex(t *testing.T) *Index {
	t.Helper()
	ix, err := Open(t.TempDir(), storage.LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

func TestInsertAndPostings(t *testing.T) {
	ix := newTestIndex(t)
	// Paper Figure 2: 2-grams of usernames; we index a few.
	data := map[int64]string{
		1: "james",
		4: "jamie",
		3: "mario",
		5: "maria",
		2: "mary",
	}
	for id, name := range data {
		toks := tokenizer.GramTokens(name, 2, false)
		if err := ix.Insert(toks, pkOf(id)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ix.Postings("ma")
	if err != nil {
		t.Fatal(err)
	}
	want := []PK{pkOf(2), pkOf(3), pkOf(5)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Postings(ma): got %d entries, want ids 2,3,5", len(got))
	}
	if got, _ := ix.Postings("zz"); len(got) != 0 {
		t.Errorf("Postings(zz) should be empty, got %d", len(got))
	}
}

func TestSearchPaperExample(t *testing.T) {
	// Paper Figure 3: query "marla", 2-grams {ma, ar, rl, la}, T=2
	// over the username data yields candidates {2, 3, 5}.
	ix := newTestIndex(t)
	data := map[int64]string{
		1: "james", 2: "mary", 3: "mario", 4: "jamie", 5: "maria",
	}
	for id, name := range data {
		if err := ix.Insert(tokenizer.GramTokens(name, 2, false), pkOf(id)); err != nil {
			t.Fatal(err)
		}
	}
	q := tokenizer.GramTokens("marla", 2, false)
	for _, algo := range []Algorithm{ScanCount, MergeSkip, DivideSkip} {
		got, stats, err := ix.Search(q, 2, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		want := []PK{pkOf(2), pkOf(3), pkOf(5)}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: candidates = %d entries, want ids {2,3,5}", algo, len(got))
		}
		if stats.Candidates != 3 {
			t.Errorf("%v: stats.Candidates = %d", algo, stats.Candidates)
		}
	}
}

func TestSearchCornerCaseRejected(t *testing.T) {
	ix := newTestIndex(t)
	if _, _, err := ix.Search([]string{"ab"}, 0, ScanCount); err == nil {
		t.Error("T=0 should be rejected as a corner case")
	}
	if _, _, err := ix.Search([]string{"ab"}, -2, MergeSkip); err == nil {
		t.Error("negative T should be rejected")
	}
}

func TestSearchTAboveListCount(t *testing.T) {
	ix := newTestIndex(t)
	ix.Insert([]string{"a", "b"}, pkOf(1))
	got, _, err := ix.Search([]string{"a", "b"}, 3, ScanCount)
	if err != nil || len(got) != 0 {
		t.Errorf("T above list count should yield no candidates, got %v, %v", got, err)
	}
}

func TestSearchDuplicateQueryTokensCollapse(t *testing.T) {
	ix := newTestIndex(t)
	ix.Insert([]string{"aa"}, pkOf(1))
	// Query "aaa" has grams {aa, aa}; duplicates collapse to one list,
	// so T=2 cannot be satisfied by a single token.
	got, stats, err := ix.Search([]string{"aa", "aa"}, 2, ScanCount)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Lists != 1 {
		t.Errorf("duplicate tokens should collapse: %d lists", stats.Lists)
	}
	if len(got) != 0 {
		t.Errorf("expected no candidates, got %d", len(got))
	}
}

func TestRemove(t *testing.T) {
	ix := newTestIndex(t)
	toks := []string{"x", "y"}
	ix.Insert(toks, pkOf(1))
	ix.Insert(toks, pkOf(2))
	if err := ix.Remove(toks, pkOf(1)); err != nil {
		t.Fatal(err)
	}
	got, _ := ix.Postings("x")
	if !reflect.DeepEqual(got, []PK{pkOf(2)}) {
		t.Errorf("after Remove, Postings(x) has %d entries", len(got))
	}
}

func TestBulkLoad(t *testing.T) {
	ix := newTestIndex(t)
	type pair struct {
		tok string
		pk  PK
	}
	var pairs []pair
	for id := int64(0); id < 50; id++ {
		pairs = append(pairs, pair{fmt.Sprintf("t%02d", id%7), pkOf(id)})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].tok != pairs[j].tok {
			return pairs[i].tok < pairs[j].tok
		}
		return pairs[i].pk < pairs[j].pk
	})
	i := 0
	err := ix.BulkLoad(func() (string, PK, bool, error) {
		if i >= len(pairs) {
			return "", "", false, nil
		}
		p := pairs[i]
		i++
		return p.tok, p.pk, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Postings("t03")
	if err != nil {
		t.Fatal(err)
	}
	// ids with id%7==3: 3, 10, 17, 24, 31, 38, 45
	if len(got) != 7 {
		t.Errorf("Postings(t03) = %d entries, want 7", len(got))
	}
}

// naiveTOccurrence is the oracle: count occurrences per pk across lists.
func naiveTOccurrence(lists [][]PK, t int) []PK {
	counts := map[PK]int{}
	for _, l := range lists {
		for _, pk := range l {
			counts[pk]++
		}
	}
	var out []PK
	for pk, c := range counts {
		if c >= t {
			out = append(out, pk)
		}
	}
	sort.Strings(out)
	return out
}

func randomLists(r *rand.Rand, maxLists, maxLen, universe int) [][]PK {
	nl := r.Intn(maxLists) + 1
	lists := make([][]PK, nl)
	if maxLen > universe {
		maxLen = universe
	}
	for i := range lists {
		n := r.Intn(maxLen)
		seen := map[int]bool{}
		var ids []int
		for len(ids) < n {
			id := r.Intn(universe)
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		sort.Ints(ids)
		l := make([]PK, n)
		for j, id := range ids {
			l[j] = pkOf(int64(id))
		}
		lists[i] = l
	}
	return lists
}

func TestMergeAlgorithmsAgreeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		lists := randomLists(r, 8, 40, 30)
		for tt := 1; tt <= len(lists); tt++ {
			want := naiveTOccurrence(lists, tt)
			if got := MergeSkipMerge(lists, tt); !equalPKs(got, want) {
				t.Fatalf("trial %d T=%d: MergeSkip = %d results, oracle %d\nlists: %v",
					trial, tt, len(got), len(want), listLens(lists))
			}
			if got := DivideSkipMerge(lists, tt); !equalPKs(got, want) {
				t.Fatalf("trial %d T=%d: DivideSkip = %d results, oracle %d\nlists: %v",
					trial, tt, len(got), len(want), listLens(lists))
			}
			if got := ScanCountMerge(lists, tt); !equalPKs(got, want) {
				t.Fatalf("trial %d T=%d: ScanCount disagrees with oracle", trial, tt)
			}
		}
	}
}

func TestMergeSkipSkewedLists(t *testing.T) {
	// One very long list plus several short ones — the regime DivideSkip
	// is built for.
	var long []PK
	for i := 0; i < 5000; i++ {
		long = append(long, pkOf(int64(i)))
	}
	short1 := []PK{pkOf(100), pkOf(2000), pkOf(4999)}
	short2 := []PK{pkOf(100), pkOf(4999)}
	lists := [][]PK{long, short1, short2}
	want := []PK{pkOf(100), pkOf(4999)}
	for _, algo := range []func([][]PK, int) []PK{MergeSkipMerge, DivideSkipMerge, ScanCountMerge} {
		if got := algo(lists, 3); !equalPKs(got, want) {
			t.Errorf("skewed lists: got %d results, want 2", len(got))
		}
	}
}

func TestMergeSkipEmptyLists(t *testing.T) {
	if got := MergeSkipMerge(nil, 1); len(got) != 0 {
		t.Error("no lists should give no candidates")
	}
	if got := MergeSkipMerge([][]PK{{}, {}}, 1); len(got) != 0 {
		t.Error("empty lists should give no candidates")
	}
	if got := DivideSkipMerge([][]PK{{}, {pkOf(1)}}, 1); !equalPKs(got, []PK{pkOf(1)}) {
		t.Errorf("divideSkip single-entry = %v", got)
	}
}

func TestAlgorithmString(t *testing.T) {
	if ScanCount.String() != "ScanCount" || MergeSkip.String() != "MergeSkip" || DivideSkip.String() != "DivideSkip" {
		t.Error("algorithm names")
	}
}

func TestSearchAcrossFlushedComponents(t *testing.T) {
	// Posting lists must merge correctly across the memtable and
	// multiple disk components.
	ix := newTestIndex(t)
	ix.Insert([]string{"tok"}, pkOf(1))
	ix.Flush()
	ix.Insert([]string{"tok"}, pkOf(3))
	ix.Flush()
	ix.Insert([]string{"tok"}, pkOf(2))
	got, err := ix.Postings("tok")
	if err != nil {
		t.Fatal(err)
	}
	want := []PK{pkOf(1), pkOf(2), pkOf(3)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cross-component postings: got %d entries in wrong order", len(got))
	}
}

func equalPKs(a, b []PK) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func listLens(lists [][]PK) []int {
	out := make([]int, len(lists))
	for i, l := range lists {
		out[i] = len(l)
	}
	return out
}
