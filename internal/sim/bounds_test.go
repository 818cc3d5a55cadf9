package sim

import (
	"math"
	"slices"
	"testing"

	"simdb/internal/tokenizer"
)

// pruned reports whether bounds b drop a candidate of l tokens sharing c
// with the query.
func pruned(b Bounds, l, c int) bool { return l < b.Lo || l > b.Hi || c < b.Need(l) }

// TestJaccardBoundsAgainstBruteForce: over every query size 1–12,
// candidate size 1–24 and overlap the two sizes allow, and every
// threshold 0.1–1.0, the bounds never drop a pair whose Jaccard passes
// (>= delta, and > delta under the next double up, which is how a
// strict predicate reaches the search), and drop every pair that fails
// >= delta: with exact counts the filter is the predicate.
func TestJaccardBoundsAgainstBruteForce(t *testing.T) {
	for q := 1; q <= 12; q++ {
		for _, delta := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
			b := JaccardBounds(q, delta)
			strict := JaccardBounds(q, math.Nextafter(delta, 2))
			if b.Need(b.Lo) < TOccurrenceJaccard(q, delta) {
				t.Errorf("q=%d delta=%g: Need(Lo) = %d below T = %d", q, delta, b.Need(b.Lo), TOccurrenceJaccard(q, delta))
			}
			for l := 1; l <= 24; l++ {
				if b.Need(l) < b.Need(l-1) {
					t.Errorf("q=%d delta=%g: Need(%d) = %d < Need(%d) = %d", q, delta, l, b.Need(l), l-1, b.Need(l-1))
				}
				for c := 0; c <= min(q, l); c++ {
					j := float64(c) / float64(q+l-c)
					if j >= delta && pruned(b, l, c) {
						t.Errorf("q=%d |r|=%d c=%d: Jaccard %g >= %g pruned (bounds %+v, Need %d)", q, l, c, j, delta, b, b.Need(l))
					}
					if j < delta && !pruned(b, l, c) {
						t.Errorf("q=%d |r|=%d c=%d: Jaccard %g < %g kept (bounds %+v, Need %d)", q, l, c, j, delta, b, b.Need(l))
					}
					if j > delta && pruned(strict, l, c) {
						t.Errorf("q=%d |r|=%d c=%d: Jaccard %g > %g pruned by the strict bounds", q, l, c, j, delta)
					}
				}
			}
		}
	}
}

// TestEditDistanceBoundsAgainstBruteForce: for every pair of strings of
// length 0–5 over three letters, every k 0–3 and gram length 2–3, a pair
// within distance k has a padded gram count inside the bounds and shares
// at least Need of it (counted grams: the multiset overlap) — the
// bounds never drop an answer.
func TestEditDistanceBoundsAgainstBruteForce(t *testing.T) {
	var strs []string
	var grow func(s string)
	grow = func(s string) {
		strs = append(strs, s)
		if len(s) < 5 {
			for _, r := range "abc" {
				grow(s + string(r))
			}
		}
	}
	grow("")
	for n := 2; n <= 3; n++ {
		grams := make([][]string, len(strs))
		for i, s := range strs {
			grams[i] = tokenizer.GramTokens(s, n, true)
			slices.Sort(grams[i])
		}
		checked := 0
		for i, q := range strs {
			for j, r := range strs {
				d := EditDistance(q, r)
				if d > 3 {
					continue
				}
				c := sortedOverlap(grams[i], grams[j])
				for k := d; k <= 3; k++ {
					b := EditDistanceBounds(len(grams[i]), k, n)
					if pruned(b, len(grams[j]), c) {
						t.Fatalf("n=%d k=%d: %q and %q (distance %d, %d and %d grams, %d shared) pruned by %+v, Need %d",
							n, k, q, r, d, len(grams[i]), len(grams[j]), c, b, b.Need(len(grams[j])))
					}
					if b.Need(b.Lo) != TOccurrenceEditDistance(len(grams[i]), k, n) {
						t.Fatalf("n=%d k=%d g=%d: Need(Lo) = %d, T = %d", n, k, len(grams[i]), b.Need(b.Lo), TOccurrenceEditDistance(len(grams[i]), k, n))
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Fatal("no pairs checked")
		}
	}
}

// sortedOverlap is the multiset overlap of two sorted token lists.
func sortedOverlap(a, b []string) int {
	n := 0
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] == b[0]:
			n++
			a, b = a[1:], b[1:]
		case a[0] < b[0]:
			a = a[1:]
		default:
			b = b[1:]
		}
	}
	return n
}

// TestCountBoundsAreFlat: a plain T-occurrence probe bounds no length and
// needs T everywhere; a Jaccard threshold of zero or less prunes nothing
// and has the non-positive T a search refuses.
func TestCountBoundsAreFlat(t *testing.T) {
	b := CountBounds(3)
	if !b.Flat() || b.Lo != 0 || b.Hi < 1<<30 || b.Need(0) != 3 || b.Need(1000) != 3 {
		t.Errorf("CountBounds(3) = %+v", b)
	}
	for _, delta := range []float64{0, -0.5} {
		if b := JaccardBounds(5, delta); b.Lo != 0 || b.Hi < 1<<30 || b.Need(b.Lo) > 0 {
			t.Errorf("JaccardBounds(5, %g) = %+v, Need %d", delta, b, b.Need(b.Lo))
		}
	}
	if b := JaccardBounds(5, 1.5); b.Lo <= b.Hi {
		t.Errorf("JaccardBounds(5, 1.5) = %+v: a threshold above 1 admits a length", b)
	}
}

// TestMeasureBounds: the two measures a query names map to their
// bounds, and any other name to none.
func TestMeasureBounds(t *testing.T) {
	for _, tc := range []struct {
		measure string
		want    Bounds
		ok      bool
	}{
		{"jaccard", JaccardBounds(7, 0.6), true},
		{"edit-distance", EditDistanceBounds(7, 2, 3), true},
		{"", Bounds{}, false},
		{"cosine", Bounds{}, false},
	} {
		threshold := 0.6
		if tc.measure == "edit-distance" {
			threshold = 2
		}
		if got, ok := MeasureBounds(tc.measure, 7, threshold, 3); got != tc.want || ok != tc.ok {
			t.Errorf("MeasureBounds(%q) = %+v, %v; want %+v, %v", tc.measure, got, ok, tc.want, tc.ok)
		}
	}
}
