package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// referenceEditDistance is the plain full-matrix DP used as an oracle.
func referenceEditDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	d := make([][]int, len(ra)+1)
	for i := range d {
		d[i] = make([]int, len(rb)+1)
		d[i][0] = i
	}
	for j := 0; j <= len(rb); j++ {
		d[0][j] = j
	}
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := d[i-1][j-1] + cost
			if v := d[i-1][j] + 1; v < m {
				m = v
			}
			if v := d[i][j-1] + 1; v < m {
				m = v
			}
			d[i][j] = m
		}
	}
	return d[len(ra)][len(rb)]
}

func TestEditDistanceBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"james", "jamie", 2}, // the paper's example
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
		{"same", "same", 0},
		{"a", "b", 1},
		{"café", "cafe", 1}, // rune-based, not byte-based
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceSeqWords(t *testing.T) {
	// The paper's ordered-list example.
	a := []string{"Better", "than", "I", "expected"}
	b := []string{"Better", "than", "expected"}
	if got := EditDistanceSeq(a, b); got != 1 {
		t.Errorf("word-list edit distance = %d, want 1", got)
	}
}

func TestEditDistanceMatchesReferenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	randStr := func() string {
		n := r.Intn(18)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(byte('a' + r.Intn(5))) // small alphabet: more matches
		}
		return sb.String()
	}
	for i := 0; i < 500; i++ {
		a, b := randStr(), randStr()
		want := referenceEditDistance(a, b)
		if got := EditDistance(a, b); got != want {
			t.Fatalf("EditDistance(%q, %q) = %d, reference %d", a, b, got, want)
		}
	}
}

func TestEditDistanceMetricAxiomsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	randStr := func() string {
		n := r.Intn(12)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(byte('a' + r.Intn(4)))
		}
		return sb.String()
	}
	for i := 0; i < 300; i++ {
		a, b, c := randStr(), randStr(), randStr()
		dab, dba := EditDistance(a, b), EditDistance(b, a)
		if dab != dba {
			t.Fatalf("not symmetric: d(%q,%q)=%d d(%q,%q)=%d", a, b, dab, b, a, dba)
		}
		if (dab == 0) != (a == b) {
			t.Fatalf("identity violated for %q, %q", a, b)
		}
		if dac := EditDistance(a, c); dac > dab+EditDistance(b, c) {
			t.Fatalf("triangle inequality violated for %q, %q, %q", a, b, c)
		}
	}
}

func TestEditDistanceCheck(t *testing.T) {
	cases := []struct {
		a, b   string
		k      int
		want   int
		within bool
	}{
		{"james", "jamie", 2, 2, true},
		{"james", "jamie", 1, 0, false},
		{"abc", "abc", 0, 0, true},
		{"abc", "abd", 0, 0, false},
		{"", "abcd", 3, 0, false},
		{"", "abc", 3, 3, true},
		{"marla", "maria", 1, 1, true},
		{"x", "y", -1, 0, false},
	}
	for _, c := range cases {
		got, ok := EditDistanceCheck(c.a, c.b, c.k)
		if ok != c.within || (ok && got != c.want) {
			t.Errorf("EditDistanceCheck(%q, %q, %d) = (%d, %v), want (%d, %v)",
				c.a, c.b, c.k, got, ok, c.want, c.within)
		}
	}
}

func TestEditDistanceCheckMatchesReferenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	randStr := func() string {
		n := r.Intn(15)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(byte('a' + r.Intn(4)))
		}
		return sb.String()
	}
	for i := 0; i < 800; i++ {
		a, b := randStr(), randStr()
		k := r.Intn(5)
		want := referenceEditDistance(a, b)
		got, ok := EditDistanceCheck(a, b, k)
		if (want <= k) != ok {
			t.Fatalf("EditDistanceCheck(%q, %q, %d) ok=%v but reference distance %d", a, b, k, ok, want)
		}
		if ok && got != want {
			t.Fatalf("EditDistanceCheck(%q, %q, %d) = %d, reference %d", a, b, k, got, want)
		}
	}
}

func TestHammingDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"karolin", "kathrin", 3},
		{"", "", 0},
		{"abc", "abd", 1},
		{"abc", "abcde", 2},
		{"", "xy", 2},
	}
	for _, c := range cases {
		if got := HammingDistance(c.a, c.b); got != c.want {
			t.Errorf("HammingDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := HammingDistance(c.b, c.a); got != c.want {
			t.Errorf("HammingDistance not symmetric for %q, %q", c.a, c.b)
		}
	}
}

func TestJaroWinkler(t *testing.T) {
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-3 }
	if got := JaroSimilarity("MARTHA", "MARHTA"); !approx(got, 0.944) {
		t.Errorf("Jaro(MARTHA, MARHTA) = %f, want 0.944", got)
	}
	if got := JaroWinklerSimilarity("MARTHA", "MARHTA"); !approx(got, 0.961) {
		t.Errorf("JaroWinkler(MARTHA, MARHTA) = %f, want 0.961", got)
	}
	if got := JaroSimilarity("", ""); got != 1 {
		t.Errorf("Jaro of empty strings = %f, want 1", got)
	}
	if got := JaroSimilarity("a", ""); got != 0 {
		t.Errorf("Jaro(a, \"\") = %f, want 0", got)
	}
	if got := JaroSimilarity("abc", "xyz"); got != 0 {
		t.Errorf("Jaro of disjoint strings = %f, want 0", got)
	}
	if got := JaroWinklerSimilarity("same", "same"); got != 1 {
		t.Errorf("JaroWinkler of identical strings = %f, want 1", got)
	}
}

func TestJaccardPaperExample(t *testing.T) {
	r := []string{"good", "product", "value"}
	s := []string{"nice", "product"}
	if got := Jaccard(r, s); got != 0.25 {
		t.Errorf("Jaccard = %f, want 0.25", got)
	}
}

func TestJaccardMultisetSemantics(t *testing.T) {
	a := []string{"x", "x", "y"}
	b := []string{"x", "y", "y"}
	// intersection: min counts -> x:1? no: min(2,1)+min(1,2) = 1+1 = 2
	// union: max(2,1)+max(1,2) = 2+2 = 4 -> 0.5
	if got := Jaccard(a, b); got != 0.5 {
		t.Errorf("multiset Jaccard = %f, want 0.5", got)
	}
}

func TestJaccardEdge(t *testing.T) {
	if Jaccard(nil, nil) != 0 {
		t.Error("Jaccard(nil, nil) should be 0")
	}
	if Jaccard([]string{"a"}, nil) != 0 {
		t.Error("Jaccard with one empty side should be 0")
	}
	if Jaccard([]string{"a"}, []string{"a"}) != 1 {
		t.Error("identical singletons should have Jaccard 1")
	}
}

func TestJaccardCheckAgreesWithJaccardProperty(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	vocab := []string{"a", "b", "c", "d", "e", "f"}
	randSet := func() []string {
		n := r.Intn(10)
		out := make([]string, n)
		for i := range out {
			out[i] = vocab[r.Intn(len(vocab))]
		}
		return out
	}
	for i := 0; i < 1000; i++ {
		a, b := randSet(), randSet()
		delta := float64(r.Intn(10)+1) / 10
		want := Jaccard(a, b)
		got, ok := JaccardCheck(a, b, delta)
		if (want >= delta) != ok {
			t.Fatalf("JaccardCheck(%v, %v, %.1f) ok=%v but Jaccard=%f", a, b, delta, ok, want)
		}
		if ok && math.Abs(got-want) > 1e-12 {
			t.Fatalf("JaccardCheck(%v, %v, %.1f) = %f, want %f", a, b, delta, got, want)
		}
	}
}

func TestJaccardCheckZeroDelta(t *testing.T) {
	got, ok := JaccardCheck([]string{"a"}, []string{"b"}, 0)
	if !ok || got != 0 {
		t.Errorf("JaccardCheck with delta 0 = (%f, %v), want (0, true)", got, ok)
	}
}

func TestDiceCosine(t *testing.T) {
	a := []string{"good", "product", "value"}
	b := []string{"nice", "product"}
	if got := Dice(a, b); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("Dice = %f, want 0.4", got)
	}
	want := 1 / math.Sqrt(6)
	if got := Cosine(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("Cosine = %f, want %f", got, want)
	}
	if Dice(nil, nil) != 0 || Cosine(nil, nil) != 0 {
		t.Error("empty-input dice/cosine should be 0")
	}
}

func TestPrefixLenJaccard(t *testing.T) {
	// l - ceil(delta*l) + 1
	cases := []struct {
		l     int
		delta float64
		want  int
	}{
		{10, 0.5, 6},
		{10, 0.8, 3},
		{4, 0.5, 3},
		{1, 0.9, 1},
		{0, 0.5, 0},
		{10, 1.0, 1},
	}
	for _, c := range cases {
		if got := PrefixLenJaccard(c.l, c.delta); got != c.want {
			t.Errorf("PrefixLenJaccard(%d, %.1f) = %d, want %d", c.l, c.delta, got, c.want)
		}
	}
}

// TestJaccardLengthsAgainstRationals compares PrefixLenJaccard and
// TOccurrenceJaccard with exact rational arithmetic for every threshold
// k/20 (0.05 … 0.95) and every length 1 … 200: with delta = k/20,
// ceil(delta*l) is ceil(k*l/20) on integers. The float product rounds
// up past an integer for some pairs (0.55*100 is 55.000000000000007),
// which without the epsilon shortened the prefix by one token and
// raised T by one.
func TestJaccardLengthsAgainstRationals(t *testing.T) {
	for k := 1; k <= 19; k++ {
		delta := float64(k) / 20 // the same double as the literal, e.g. 0.55
		for l := 1; l <= 200; l++ {
			ceil := (k*l + 19) / 20
			if got, want := PrefixLenJaccard(l, delta), l-ceil+1; got != want {
				t.Errorf("PrefixLenJaccard(%d, %g) = %d, want %d", l, delta, got, want)
			}
			if got, want := TOccurrenceJaccard(l, delta), max(ceil, 1); got != want {
				t.Errorf("TOccurrenceJaccard(%d, %g) = %d, want %d", l, delta, got, want)
			}
		}
	}
}

func TestPrefixFilterCompletenessProperty(t *testing.T) {
	// Two sets with Jaccard >= delta, tokens sorted by a global order,
	// must share a token within their prefix-filter prefixes. This is
	// the correctness property stage 2 of the three-stage join relies on.
	r := rand.New(rand.NewSource(6))
	vocab := make([]string, 30)
	for i := range vocab {
		vocab[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	randSet := func() []string {
		n := r.Intn(12) + 1
		seen := map[string]bool{}
		var out []string
		for len(out) < n {
			tok := vocab[r.Intn(len(vocab))]
			if !seen[tok] {
				seen[tok] = true
				out = append(out, tok)
			}
		}
		return out
	}
	for i := 0; i < 2000; i++ {
		a, b := randSet(), randSet()
		delta := []float64{0.2, 0.5, 0.8}[r.Intn(3)]
		if Jaccard(a, b) < delta {
			continue
		}
		// Global order: lexicographic (any total order works).
		sortStrings(a)
		sortStrings(b)
		pa := a[:PrefixLenJaccard(len(a), delta)]
		pb := b[:PrefixLenJaccard(len(b), delta)]
		if !shareToken(pa, pb) {
			t.Fatalf("prefix filter missed similar pair: %v / %v (delta %.1f)", a, b, delta)
		}
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func shareToken(a, b []string) bool {
	set := map[string]bool{}
	for _, t := range a {
		set[t] = true
	}
	for _, t := range b {
		if set[t] {
			return true
		}
	}
	return false
}

func TestTOccurrenceJaccard(t *testing.T) {
	if got := TOccurrenceJaccard(4, 0.5); got != 2 {
		t.Errorf("TOccurrenceJaccard(4, 0.5) = %d, want 2", got)
	}
	if got := TOccurrenceJaccard(3, 0.1); got != 1 {
		t.Errorf("TOccurrenceJaccard(3, 0.1) = %d, want 1", got)
	}
	if got := TOccurrenceJaccard(0, 0.5); got != 1 {
		t.Errorf("TOccurrenceJaccard(0, 0.5) = %d, want 1 (floor)", got)
	}
}

func TestTOccurrenceEditDistancePaperExample(t *testing.T) {
	// Paper Figure 3: q = "marla", n = 2, k = 1 -> T = 4 - 2*1 = 2.
	if got := TOccurrenceEditDistance(4, 1, 2); got != 2 {
		t.Errorf("T = %d, want 2", got)
	}
	// Paper corner-case example: threshold 3 -> T = 4 - 2*3 = -2.
	if got := TOccurrenceEditDistance(4, 3, 2); got != -2 {
		t.Errorf("T = %d, want -2", got)
	}
}

func TestTOccurrenceSoundnessProperty(t *testing.T) {
	// If ed(a, b) <= k then a and b share at least T = |G(a)| - k*n grams
	// (multiset overlap of n-grams, padded).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		randStr := func() string {
			n := r.Intn(10) + 1
			var sb strings.Builder
			for i := 0; i < n; i++ {
				sb.WriteByte(byte('a' + r.Intn(4)))
			}
			return sb.String()
		}
		a, b := randStr(), randStr()
		k := r.Intn(3) + 1
		if referenceEditDistance(a, b) > k {
			return true
		}
		const n = 2
		ga := gramsOf(a, n)
		gb := gramsOf(b, n)
		tOcc := TOccurrenceEditDistance(len(ga), k, n)
		if tOcc <= 0 {
			return true // corner case: no claim
		}
		return overlap(ga, gb) >= tOcc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

func gramsOf(s string, n int) []string {
	runes := []rune(s)
	padded := make([]rune, 0, len(runes)+2*(n-1))
	for i := 0; i < n-1; i++ {
		padded = append(padded, '#')
	}
	padded = append(padded, runes...)
	for i := 0; i < n-1; i++ {
		padded = append(padded, '$')
	}
	var grams []string
	for i := 0; i+n <= len(padded); i++ {
		grams = append(grams, string(padded[i:i+n]))
	}
	return grams
}
