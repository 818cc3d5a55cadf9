// Package tokenizer implements the tokenizers behind SimDB's
// similarity functions: word tokenization (for Jaccard over keyword
// indexes) and n-gram extraction (for edit distance over n-gram
// indexes), mirroring AsterixDB's word-tokens() and gram-tokens()
// built-ins described in the paper.
package tokenizer

import (
	"strings"
	"unicode"
)

// WordTokens splits s into lower-cased word tokens. A word is a maximal
// run of letters and digits; everything else is a delimiter. Duplicates
// are preserved (the result is a multiset), matching AsterixDB's
// word-tokens() used by the paper's Jaccard queries.
func WordTokens(s string) []string {
	var tokens []string
	start := -1
	flush := func(end int) {
		if start >= 0 {
			tokens = append(tokens, strings.ToLower(s[start:end]))
			start = -1
		}
	}
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
		} else {
			flush(i)
		}
	}
	flush(len(s))
	return tokens
}

// WordScratch holds the reusable buffers of its WordTokens method, for
// callers that tokenize many stored values and keep none of the tokens.
// Not safe for concurrent use.
type WordScratch struct {
	lower []byte
	toks  [][]byte
}

// WordTokens is the package's WordTokens over the bytes of a stored
// string: the same tokens in the same order, as byte slices valid until
// the next call. A value that is all ASCII — letters and digits are
// [0-9A-Za-z], lower-casing is one bit — is cut out of one lower-cased
// copy without allocating once the scratch has grown; any byte >= 0x80
// sends the whole value through WordTokens, which knows Unicode.
func (s *WordScratch) WordTokens(b []byte) [][]byte {
	s.toks = s.toks[:0]
	s.lower = append(s.lower[:0], b...)
	start := -1
	for i, c := range s.lower {
		switch {
		case c >= 0x80:
			s.toks = s.toks[:0]
			for _, t := range WordTokens(string(b)) {
				s.toks = append(s.toks, []byte(t))
			}
			return s.toks
		case 'A' <= c && c <= 'Z':
			s.lower[i] = c | 0x20
			fallthrough
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
			if start < 0 {
				start = i
			}
		default:
			if start >= 0 {
				s.toks = append(s.toks, s.lower[start:i])
				start = -1
			}
		}
	}
	if start >= 0 {
		s.toks = append(s.toks, s.lower[start:])
	}
	return s.toks
}

// UniqueWordTokens returns WordTokens with duplicates removed,
// preserving first-occurrence order.
func UniqueWordTokens(s string) []string {
	return dedupe(WordTokens(s))
}

// GramTokens returns the n-grams of s (lower-cased). If pad is true the
// string is padded with n-1 leading '#' and trailing '$' characters, so
// every string of length >= 1 has at least one gram and prefix/suffix
// positions are distinguishable; this is the form secondary n-gram
// indexes use. If pad is false and len(s) < n the result is empty.
// Grams are computed over runes, not bytes.
func GramTokens(s string, n int, pad bool) []string {
	if n <= 0 {
		return nil
	}
	runes := []rune(strings.ToLower(s))
	if pad {
		padded := make([]rune, 0, len(runes)+2*(n-1))
		for i := 0; i < n-1; i++ {
			padded = append(padded, '#')
		}
		padded = append(padded, runes...)
		for i := 0; i < n-1; i++ {
			padded = append(padded, '$')
		}
		runes = padded
	}
	if len(runes) < n {
		return nil
	}
	grams := make([]string, 0, len(runes)-n+1)
	for i := 0; i+n <= len(runes); i++ {
		grams = append(grams, string(runes[i:i+n]))
	}
	return grams
}

// UniqueGramTokens returns GramTokens with duplicates removed,
// preserving first-occurrence order.
func UniqueGramTokens(s string, n int, pad bool) []string {
	return dedupe(GramTokens(s, n, pad))
}

// GramCount returns the number of (padded or unpadded) n-grams the
// string would produce, without materializing them. It is the |G(r)|
// term of the T-occurrence lower bound T = |G(q)| - k*n.
func GramCount(s string, n int, pad bool) int {
	l := 0
	for range s {
		l++
	}
	if pad {
		l += 2 * (n - 1)
	}
	if l < n {
		return 0
	}
	return l - n + 1
}

func dedupe(tokens []string) []string {
	if len(tokens) <= 1 {
		return tokens
	}
	seen := make(map[string]struct{}, len(tokens))
	out := tokens[:0]
	for _, t := range tokens {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// CountedToken is a token qualified by its occurrence ordinal: the
// second occurrence of "good" becomes ("good", 2). Counted tokens turn
// a multiset Jaccard computation into a set computation, which is how
// AsterixDB tokenizes fields for multiset semantics.
type CountedToken struct {
	Token string
	Count int
}

// CountTokens converts a token multiset into counted (set) form,
// preserving order of first occurrences.
func CountTokens(tokens []string) []CountedToken {
	counts := make(map[string]int, len(tokens))
	out := make([]CountedToken, len(tokens))
	for i, t := range tokens {
		counts[t]++
		out[i] = CountedToken{Token: t, Count: counts[t]}
	}
	return out
}
