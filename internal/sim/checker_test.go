package sim

import (
	"math/rand"
	"testing"
)

func byteToks(toks []string) [][]byte {
	out := make([][]byte, len(toks))
	for i, t := range toks {
		out[i] = []byte(t)
	}
	return out
}

// TestJaccardCheckerMatchesJaccardCheck drives one reused checker
// through many random candidates and thresholds and demands bit-exact
// agreement with the stateless JaccardCheck. Reusing a single checker
// per query is the point: it proves the match scratch is cleared after
// every call, including early-terminated ones.
func TestJaccardCheckerMatchesJaccardCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	randToks := func(max int) []string {
		n := rng.Intn(max + 1)
		out := make([]string, n)
		for i := range out {
			out[i] = vocab[rng.Intn(len(vocab))]
		}
		return out
	}
	deltas := []float64{-0.5, 0, 0.1, 0.3, 0.5, 0.75, 0.9, 1.0}
	for trial := 0; trial < 200; trial++ {
		query := randToks(12)
		checker := NewJaccardChecker(query)
		for cand := 0; cand < 20; cand++ {
			c := randToks(12)
			for _, delta := range deltas {
				wantSim, wantOK := JaccardCheck(query, c, delta)
				gotSim, gotOK := checker.Check(byteToks(c), delta)
				if gotSim != wantSim || gotOK != wantOK {
					t.Fatalf("query %v cand %v delta %v: checker (%v, %v), JaccardCheck (%v, %v)",
						query, c, delta, gotSim, gotOK, wantSim, wantOK)
				}
			}
		}
		// After all that reuse the checker must still see the query as
		// identical to itself.
		if len(query) > 0 {
			if sim, ok := checker.Check(byteToks(query), 1.0); !ok || sim != 1.0 {
				t.Fatalf("self-check after reuse: (%v, %v), want (1, true)", sim, ok)
			}
		}
	}
}

// TestEditDistanceCheckerMatchesEditDistanceCheck drives one reused
// checker per query through random candidates — ASCII, multi-byte and
// invalid UTF-8 — and every k around the true distance, against the
// stateless EditDistanceCheck and the full DP.
func TestEditDistanceCheckerMatchesEditDistanceCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := []string{"a", "b", "c", "é", "İ", "日", "\xff", " "}
	randStr := func(max int) string {
		s := ""
		for n := rng.Intn(max + 1); n > 0; n-- {
			s += alphabet[rng.Intn(len(alphabet))]
		}
		return s
	}
	for trial := 0; trial < 300; trial++ {
		query := randStr(10)
		checker := NewEditDistanceChecker(query)
		for cand := 0; cand < 20; cand++ {
			c := randStr(10)
			d := EditDistance(query, c)
			for k := -1; k <= d+2; k++ {
				_, want := EditDistanceCheck(query, c, k)
				if got := checker.Check([]byte(c), k); got != want || got != (k >= 0 && d <= k) {
					t.Fatalf("query %q cand %q k %d (distance %d): checker %v, EditDistanceCheck %v", query, c, k, d, got, want)
				}
			}
		}
	}
	// A byte-length difference beyond k is not a rune-count difference:
	// "İİ" is four bytes and two runes.
	if !NewEditDistanceChecker("ab").Check([]byte("İİ"), 2) {
		t.Error(`"ab" vs "İİ": distance 2 rejected at k = 2`)
	}
}
