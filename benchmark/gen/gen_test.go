package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"regexp"
	"strings"
	"testing"
)

// The inputs of seed 1 at the canonical size, pinned: a change to either
// hash means every recorded baseline has to be measured again.
const (
	goldenRecords = "70be14cd2de4e90e7371cc97cbcaefe40e9b161978dc1579da9d9940a9130a17"
	goldenQueries = "58c2b68b96a54aed6ddd561d74f48b47ef02e2e19562de56924c7c2617660e0c"
)

func hashRecords(recs []Record) string {
	h := sha256.New()
	var buf []byte
	for _, r := range recs {
		buf = append(r.AppendJSON(buf[:0]), '\n')
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashQueries(d *Dataset, n int) string {
	h := sha256.New()
	st := d.Stream(0)
	for i := 0; i < n; i++ {
		h.Write([]byte(st.Next().AQL("Reviews") + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGolden(t *testing.T) {
	d := New(1, 20000)
	if got := hashRecords(d.Records[:1000]); got != goldenRecords {
		t.Errorf("first 1000 records of seed 1 hash to %s, want %s", got, goldenRecords)
	}
	if got := hashQueries(d, 100); got != goldenQueries {
		t.Errorf("first 100 queries of seed 1 hash to %s, want %s", got, goldenQueries)
	}
}

func TestSeedDecidesEverything(t *testing.T) {
	a, b, c := New(7, 2000), New(7, 2000), New(8, 2000)
	if hashRecords(a.Records) != hashRecords(b.Records) || hashQueries(a, 200) != hashQueries(b, 200) {
		t.Error("same seed gave different inputs")
	}
	if hashRecords(a.Records) == hashRecords(c.Records) || hashQueries(a, 200) == hashQueries(c, 200) {
		t.Error("different seeds gave the same inputs")
	}
	if hashRecords(a.Fresh(2001, 64)) != hashRecords(b.Fresh(2001, 64)) {
		t.Error("Fresh is not deterministic")
	}
	if f := a.Fresh(2001, 3); f[0].ID != 2001 || f[2].ID != 2003 {
		t.Errorf("Fresh ids = %d..%d, want 2001..2003", f[0].ID, f[2].ID)
	}
	// Streams of different clients are different sequences.
	s0, s1 := a.Stream(0), a.Stream(1)
	same := 0
	for i := 0; i < 100; i++ {
		if s0.Next() == s1.Next() {
			same++
		}
	}
	if same > 50 {
		t.Errorf("clients 0 and 1 sent the same query %d times out of 100", same)
	}
}

func TestRecordShape(t *testing.T) {
	d := New(3, 4000)
	plain := regexp.MustCompile(`^[A-Za-z0-9 ]+$`)
	words, chars, short := 0, 0, 0
	for i, r := range d.Records {
		if r.ID != int64(i+1) {
			t.Fatalf("record %d has id %d", i, r.ID)
		}
		for _, s := range []string{r.ReviewerName, r.Summary, r.ASIN, r.ReviewText} {
			if !plain.MatchString(s) {
				t.Fatalf("record %d: %q would need escaping in JSON or AQL", r.ID, s)
			}
		}
		toks := strings.Fields(r.Summary)
		seen := map[string]bool{}
		for _, w := range toks {
			if seen[w] {
				t.Fatalf("record %d: summary %q repeats a word", r.ID, r.Summary)
			}
			seen[w] = true
		}
		words += len(toks)
		chars += len(r.ReviewerName)
		if len(r.ReviewerName) <= 3 {
			short++
		}
	}
	n := float64(len(d.Records))
	if mean := float64(words) / n; mean < 3.5 || mean > 4.5 {
		t.Errorf("summaries average %.2f words, want about 4", mean)
	}
	if mean := float64(chars) / n; mean < 8 || mean > 12 {
		t.Errorf("names average %.2f characters, want about 10", mean)
	}
	// Names of at most three letters make ed_2's T <= 0 corner case.
	if share := float64(short) / n; share < 0.01 || share > 0.1 {
		t.Errorf("%.1f%% of names have at most 3 letters, want a few percent", share*100)
	}
}

func TestMixAndConstants(t *testing.T) {
	d := New(5, 4000)
	st := d.Stream(0)
	counts := map[Class]int{}
	distinct := map[string]bool{}
	inData := map[string]bool{}
	for _, r := range d.Records {
		inData[r.Summary] = true
		inData[r.ReviewerName] = true
	}
	const n = 1000
	for i := 0; i < n; i++ {
		q := st.Next()
		counts[q.Class]++
		distinct[q.AQL("Reviews")] = true
		if !inData[q.Const] {
			t.Fatalf("constant %q is not a value of the data", q.Const)
		}
		if q.Class.IsJaccard() && strings.Count(q.Const, " ") < 2 {
			t.Fatalf("Jaccard constant %q has fewer than 3 tokens", q.Const)
		}
	}
	if counts[Jaccard08] != 300 || counts[Jaccard05] != 300 || counts[Ed1] != 200 || counts[Ed2] != 200 {
		t.Errorf("mix over %d queries = %v, want 3:3:2:2", n, counts)
	}
	// Zipf(1.1) over 4096 constants: texts mostly differ, but not all.
	if len(distinct) < n/4 || len(distinct) > n*9/10 {
		t.Errorf("%d distinct texts in %d queries", len(distinct), n)
	}
}

func TestJoinRange(t *testing.T) {
	d := New(2, 1000)
	js := d.Joins(200)
	for i := 0; i < 500; i++ {
		if j := js.Next(); j.Start < 1 || j.Start+JoinOuter > 201 {
			t.Fatalf("join outer range starts at %d, outside 1..200", j.Start)
		}
	}
}
