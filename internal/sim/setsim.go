package sim

import "math"

// Set-similarity functions. All of them operate on token multisets
// (string slices) using multiset semantics: the intersection counts
// each token min(#a, #b) times and the union max(#a, #b) times. For
// duplicate-free inputs this is exactly set semantics, matching the
// paper's example Jaccard({Good, Product, Value}, {Nice, Product}) = 1/4.

// Jaccard returns |a ∩ b| / |a ∪ b| for two token multisets. Two empty
// multisets have similarity 0 (there is no shared element to speak of,
// and this keeps "no tokens" fields from matching everything).
func Jaccard(a, b []string) float64 {
	inter := overlap(a, b)
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// JaccardCheck reports whether Jaccard(a, b) >= delta, returning the
// similarity when it is. It applies the length filter first — similar
// multisets satisfy delta <= |a|/|b| <= 1/delta — and terminates the
// overlap count early once the remaining tokens cannot reach the
// required overlap. This is AsterixDB's similarity-jaccard-check, the
// early-terminating variant the paper credits for reducing verification
// cost at higher thresholds.
func JaccardCheck(a, b []string, delta float64) (float64, bool) {
	if delta <= 0 {
		return Jaccard(a, b), true
	}
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0, false
	}
	// Length filter: |a∩b| <= min(la,lb), |a∪b| >= max(la,lb).
	minLen, maxLen := la, lb
	if minLen > maxLen {
		minLen, maxLen = maxLen, minLen
	}
	if float64(minLen) < delta*float64(maxLen)-jaccardEps {
		return 0, false
	}
	// Required overlap o: o/(la+lb-o) >= delta  <=>  o >= delta/(1+delta)*(la+lb).
	// The small epsilon keeps float rounding from over-tightening the
	// bound (e.g. 3.0000000000000004 must not become 4); the exact
	// similarity test below still rejects any false positive this lets
	// through.
	required := int(math.Ceil(delta/(1+delta)*float64(la+lb) - jaccardEps))
	counts := make(map[string]int, la)
	for _, t := range a {
		counts[t]++
	}
	inter := 0
	for i, t := range b {
		if c := counts[t]; c > 0 {
			counts[t] = c - 1
			inter++
		}
		// Early termination: even if every remaining token matched we
		// could not reach the required overlap.
		if inter+(lb-i-1) < required {
			return 0, false
		}
	}
	if inter < required {
		return 0, false
	}
	sim := float64(inter) / float64(la+lb-inter)
	if sim < delta {
		return 0, false
	}
	return sim, true
}

// JaccardChecker checks many candidates against one fixed query token
// multiset without allocating: the query's tokens are numbered once
// into a read-only token → slot map, and each check counts matches in
// a per-slot scratch that is reset afterwards by replaying only the
// slots it touched. Candidates arrive as byte slices (tokens cut out of
// a stored record) and are looked up with slot[string(tok)], which does
// not allocate. Not safe for concurrent use — give each goroutine its
// own checker.
type JaccardChecker struct {
	slot    map[string]int // token → index into count; never written after construction
	count   []int          // multiplicity of each distinct query token
	used    []int          // scratch: matches consumed per slot during one check
	touched []int          // scratch: slots with used > 0
	qLen    int
}

// NewJaccardChecker builds a checker for a fixed query token multiset.
func NewJaccardChecker(query []string) *JaccardChecker {
	c := &JaccardChecker{slot: make(map[string]int, len(query)), qLen: len(query)}
	for _, t := range query {
		i, ok := c.slot[t]
		if !ok {
			i = len(c.count)
			c.slot[t] = i
			c.count = append(c.count, 0)
		}
		c.count[i]++
	}
	c.used = make([]int, len(c.count))
	c.touched = make([]int, 0, len(c.count))
	return c
}

// Check reports whether Jaccard(query, cand) >= delta, exactly like
// JaccardCheck(query, cand, delta) — length filter, early termination,
// and float behavior included.
func (c *JaccardChecker) Check(cand [][]byte, delta float64) (float64, bool) {
	la, lb := c.qLen, len(cand)
	if delta <= 0 {
		inter := c.intersect(cand, 0)
		union := la + lb - inter
		if union == 0 {
			return 0, true
		}
		return float64(inter) / float64(union), true
	}
	if la == 0 || lb == 0 {
		return 0, false
	}
	minLen, maxLen := la, lb
	if minLen > maxLen {
		minLen, maxLen = maxLen, minLen
	}
	if float64(minLen) < delta*float64(maxLen)-jaccardEps {
		return 0, false
	}
	required := int(math.Ceil(delta/(1+delta)*float64(la+lb) - jaccardEps))
	inter := c.intersect(cand, required)
	if inter < required {
		return 0, false
	}
	sim := float64(inter) / float64(la+lb-inter)
	if sim < delta {
		return 0, false
	}
	return sim, true
}

// intersect counts the multiset overlap with cand, stopping early once
// the remaining candidate tokens cannot reach required, then clears the
// scratch. required <= 0 disables early termination.
func (c *JaccardChecker) intersect(cand [][]byte, required int) int {
	inter := 0
	lb := len(cand)
	for i, t := range cand {
		if s, ok := c.slot[string(t)]; ok && c.used[s] < c.count[s] {
			if c.used[s] == 0 {
				c.touched = append(c.touched, s)
			}
			c.used[s]++
			inter++
		}
		if required > 0 && inter+(lb-i-1) < required {
			break
		}
	}
	for _, s := range c.touched {
		c.used[s] = 0
	}
	c.touched = c.touched[:0]
	return inter
}

// Dice returns 2|a ∩ b| / (|a| + |b|).
func Dice(a, b []string) float64 {
	if len(a)+len(b) == 0 {
		return 0
	}
	return 2 * float64(overlap(a, b)) / float64(len(a)+len(b))
}

// Cosine returns |a ∩ b| / sqrt(|a| * |b|) (multiset cosine over
// 0/1-weighted occurrence vectors generalized to multisets).
func Cosine(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return float64(overlap(a, b)) / math.Sqrt(float64(len(a))*float64(len(b)))
}

// overlap returns the multiset intersection size.
func overlap(a, b []string) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	counts := make(map[string]int, len(a))
	for _, t := range a {
		counts[t]++
	}
	inter := 0
	for _, t := range b {
		if c := counts[t]; c > 0 {
			counts[t] = c - 1
			inter++
		}
	}
	return inter
}

// PrefixLenJaccard returns the prefix-filter length for a token set of
// size l under Jaccard threshold delta: an ordered set needs only its
// first l - ceil(delta*l) + 1 tokens indexed/probed, because two sets
// with Jaccard >= delta must share at least one token within those
// prefixes. This is AsterixDB's prefix-len-jaccard() built-in used by
// stage 2 of the three-stage join.
func PrefixLenJaccard(l int, delta float64) int {
	if l == 0 {
		return 0
	}
	p := l - int(math.Ceil(delta*float64(l)-jaccardEps)) + 1
	if p < 0 {
		p = 0
	}
	if p > l {
		p = l
	}
	return p
}

// TOccurrenceJaccard returns the minimum number of query tokens a
// candidate must contain to possibly reach Jaccard >= delta against a
// query with qTokens tokens: |r ∩ q| >= delta * |r ∪ q| >= delta * |q|.
// The result is always >= 1 for a non-empty query, so Jaccard has no
// corner case (paper §5.1.1).
func TOccurrenceJaccard(qTokens int, delta float64) int {
	t := int(math.Ceil(delta*float64(qTokens) - jaccardEps))
	if t < 1 {
		t = 1
	}
	return t
}

// TOccurrenceEditDistance returns the T-occurrence lower bound for an
// edit-distance query: a string within distance k of q must share at
// least T = |G(q)| - k*n of q's n-grams (Jokinen & Ukkonen). The result
// can be zero or negative — the corner case where the index cannot
// prune and the plan must fall back to a scan (paper §5.1).
func TOccurrenceEditDistance(gramCount, k, n int) int {
	return gramCount - k*n
}
