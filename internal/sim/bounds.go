package sim

import "math"

// jaccardEps keeps float rounding from over-tightening a Jaccard bound
// (3.0000000000000004 must not become 4): JaccardCheck, JaccardChecker,
// JaccardBounds, PrefixLenJaccard and TOccurrenceJaccard all loosen by
// it, and the exact similarity test still rejects whatever it lets
// through.
const jaccardEps = 1e-9

// Bounds is what a similarity predicate says about a candidate record r
// from its token count l = |r| alone, the count an inverted index
// stores beside each posting: l lies in [Lo, Hi], and r must share at
// least Need(l) of the query's tokens (counted, so the count is the
// multiset overlap). Need never decreases as l grows, so Need(Lo) is
// the T-occurrence threshold of the whole search. The length filter is
// [Lo, Hi]; the count filter is Need.
type Bounds struct {
	Lo, Hi int
	kind   boundsKind
	q      int     // |q| (Jaccard), the padded gram count g (edit distance), or T (count)
	delta  float64 // Jaccard threshold
	kn     int     // k·n: the grams k edits of n-grams can destroy
}

type boundsKind uint8

const (
	countBounds boundsKind = iota
	jaccardBounds
	editBounds
)

// noLength is the Hi of a bound that says nothing about long records.
const noLength = math.MaxInt32

// CountBounds is a plain T-occurrence search: any token count, and at
// least t shared tokens. contains(), btree probes and searches that
// name no measure use it.
func CountBounds(t int) Bounds {
	return Bounds{Lo: 0, Hi: noLength, kind: countBounds, q: t}
}

// JaccardBounds bounds a candidate of Jaccard(q, r) >= delta for a
// query of q tokens: delta·q <= |r| <= q/delta, since the overlap is at
// most the smaller multiset and the union at least the larger, and the
// overlap c satisfies c/(q+|r|-c) >= delta exactly when
// c >= delta/(1+delta)·(q+|r|). A strict > may pass the next double up,
// or delta itself, which is looser and so sound. delta <= 0 prunes
// nothing: every record qualifies, sharing a token or not, and Need is
// 0, which a search refuses as the corner case.
func JaccardBounds(q int, delta float64) Bounds {
	if !(delta > 0) {
		return Bounds{Lo: 0, Hi: noLength, kind: countBounds}
	}
	hi := math.Floor((float64(q) + jaccardEps) / delta)
	return Bounds{
		Lo:    max(int(math.Ceil(delta*float64(q)-jaccardEps)), 0),
		Hi:    int(min(hi, noLength)),
		kind:  jaccardBounds,
		q:     q,
		delta: delta,
	}
}

// EditDistanceBounds bounds a candidate within edit distance k of a
// query whose padded n-grams number g: a string of length m has
// m+n-1 padded grams, k edits change the length by at most k, and they
// destroy at most k·n of the longer string's grams, so the candidate's
// gram count l lies in [g-k, g+k] and it shares at least
// max(g, l) - k·n grams with the query (Jokinen & Ukkonen). At l = g-k
// that is TOccurrenceEditDistance's T; T <= 0 is the corner case.
func EditDistanceBounds(g, k, n int) Bounds {
	return Bounds{Lo: max(g-k, 0), Hi: g + k, kind: editBounds, q: g, kn: k * n}
}

// MeasureBounds is the one place a similarity measure, as a query
// names it, maps to search bounds: "jaccard" with threshold delta, or
// "edit-distance" with threshold k over n-grams, for a query of q
// counted tokens (q padded grams for edit distance). ok is false for
// any other name: a search that serves no measure is bounded by its
// T-occurrence threshold alone (CountBounds).
func MeasureBounds(measure string, q int, threshold float64, n int) (b Bounds, ok bool) {
	switch measure {
	case "jaccard":
		return JaccardBounds(q, threshold), true
	case "edit-distance":
		return EditDistanceBounds(q, int(threshold), n), true
	}
	return Bounds{}, false
}

// Need is the least number of query tokens a candidate with l tokens
// must share with the query. It never decreases as l grows.
func (b Bounds) Need(l int) int {
	switch b.kind {
	case jaccardBounds:
		return max(int(math.Ceil(b.delta/(1+b.delta)*float64(b.q+l)-jaccardEps)), 1)
	case editBounds:
		return max(b.q, l) - b.kn
	}
	return b.q
}

// Flat reports whether Need is the same for every length and the range
// is the whole one: a search under it needs no token counts.
func (b Bounds) Flat() bool { return b.kind == countBounds }
