// Package sim implements the similarity measures SimDB supports:
// string-similarity functions (edit distance — on strings and on
// ordered lists, per the paper's extension — Hamming, Jaro-Winkler) and
// set-similarity functions (Jaccard, dice, cosine), together with the
// filter arithmetic that index-accelerated plans rely on: prefix
// lengths for prefix filtering and T-occurrence lower bounds for
// inverted-index searches, including corner-case (T <= 0) detection.
package sim

import (
	"math"
	"unicode/utf8"
)

// EditDistance returns the Levenshtein distance between two strings,
// computed over runes.
func EditDistance(a, b string) int {
	return EditDistanceSeq([]rune(a), []rune(b))
}

// EditDistanceSeq returns the Levenshtein distance between two
// sequences of comparable elements. Passing word slices gives the
// paper's ordered-list edit distance, e.g. the distance between
// ["Better","than","I","expected"] and ["Better","than","expected"]
// is 1.
func EditDistanceSeq[T comparable](a, b []T) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	// b is the shorter sequence; keep one DP row of len(b)+1.
	if len(b) == 0 {
		return len(a)
	}
	row := make([]int, len(b)+1)
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		prev := row[0] // row[i-1][j-1]
		row[0] = i
		for j := 1; j <= len(b); j++ {
			cur := row[j]
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev + cost
			if d := row[j] + 1; d < m {
				m = d
			}
			if d := row[j-1] + 1; d < m {
				m = d
			}
			row[j] = m
			prev = cur
		}
	}
	return row[len(b)]
}

// EditDistanceCheck reports whether the edit distance between a and b
// is at most k, and if so returns the exact distance. It uses the
// length filter and a banded dynamic program of width 2k+1, so it costs
// O(k * min(|a|,|b|)) and exits early when every cell in a band row
// exceeds k. This is the "check" variant AsterixDB exposes for
// verification, which the paper notes can terminate early.
func EditDistanceCheck(a, b string, k int) (int, bool) {
	return EditDistanceCheckSeq([]rune(a), []rune(b), k)
}

// EditDistanceCheckSeq is EditDistanceCheck over element sequences.
func EditDistanceCheckSeq[T comparable](a, b []T, k int) (int, bool) {
	return editDistanceCheckRow(a, b, k, new([]int))
}

// editDistanceCheckRow is EditDistanceCheckSeq with the DP row kept in
// *scratch, so a caller checking many candidates allocates it once.
func editDistanceCheckRow[T comparable](a, b []T, k int, scratch *[]int) (int, bool) {
	if k < 0 {
		return 0, false
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	// Length filter: distance is at least the length difference.
	if len(a)-len(b) > k {
		return 0, false
	}
	if len(b) == 0 {
		return len(a), len(a) <= k
	}
	const inf = math.MaxInt32
	if cap(*scratch) < len(b)+1 {
		*scratch = make([]int, len(b)+1)
	}
	row := (*scratch)[:len(b)+1]
	for j := range row {
		if j <= k {
			row[j] = j
		} else {
			row[j] = inf
		}
	}
	for i := 1; i <= len(a); i++ {
		lo := i - k
		if lo < 1 {
			lo = 1
		}
		hi := i + k
		if hi > len(b) {
			hi = len(b)
		}
		prev := row[lo-1] // diagonal d[i-1][lo-1]
		if lo == 1 {
			if i <= k {
				row[0] = i
			} else {
				row[0] = inf
			}
		}
		rowMin := inf
		for j := lo; j <= hi; j++ {
			cur := row[j]
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := inf
			if prev < inf {
				m = prev + cost
			}
			if cur < inf && cur+1 < m { // deletion
				m = cur + 1
			}
			if j > lo || lo == 1 {
				if left := row[j-1]; left < inf && left+1 < m { // insertion
					m = left + 1
				}
			}
			if m > k {
				m = inf
			}
			row[j] = m
			if m < rowMin {
				rowMin = m
			}
			prev = cur
		}
		if lo > 1 {
			row[lo-1] = inf
		}
		if hi < len(b) {
			row[hi+1] = inf
		}
		if rowMin == inf {
			return 0, false
		}
	}
	d := row[len(b)]
	if d > k {
		return 0, false
	}
	return d, true
}

// EditDistanceChecker checks many candidates against one fixed string
// without allocating per candidate: the query's runes are decoded once
// and the candidate's runes and the DP row live in reused scratch.
// Candidates arrive as the bytes of a stored string. Not safe for
// concurrent use.
type EditDistanceChecker struct {
	query, cand []rune
	row         []int
}

// NewEditDistanceChecker builds a checker for a fixed query string.
func NewEditDistanceChecker(query string) *EditDistanceChecker {
	return &EditDistanceChecker{query: []rune(query)}
}

// Check reports whether EditDistance(query, string(cand)) <= k, like
// EditDistanceCheck. The rune-count filter runs before any rune is
// decoded: most candidates of a selective query end there.
func (c *EditDistanceChecker) Check(cand []byte, k int) bool {
	if d := utf8.RuneCount(cand) - len(c.query); d > k || -d > k {
		return false
	}
	c.cand = c.cand[:0]
	for len(cand) > 0 {
		r, n := utf8.DecodeRune(cand)
		c.cand = append(c.cand, r)
		cand = cand[n:]
	}
	_, ok := editDistanceCheckRow(c.query, c.cand, k, &c.row)
	return ok
}

// HammingDistance returns the number of rune positions at which the two
// strings differ; strings of different rune length have distance
// max(len) (each excess position counts as a mismatch).
func HammingDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	d := len(ra) - len(rb)
	for i := range rb {
		if ra[i] != rb[i] {
			d++
		}
	}
	return d
}

// JaroSimilarity returns the Jaro similarity of two strings in [0, 1].
func JaroSimilarity(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := len(ra)
	if len(rb) > window {
		window = len(rb)
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, len(ra))
	matchB := make([]bool, len(rb))
	matches := 0
	for i := range ra {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window
		if hi >= len(rb) {
			hi = len(rb) - 1
		}
		for j := lo; j <= hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i], matchB[j] = true, true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	transpositions := 0
	j := 0
	for i := range ra {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-t)/m) / 3
}

// JaroWinklerSimilarity returns the Jaro-Winkler similarity with the
// standard prefix scale of 0.1 over at most 4 common prefix runes.
func JaroWinklerSimilarity(a, b string) float64 {
	j := JaroSimilarity(a, b)
	ra, rb := []rune(a), []rune(b)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}
