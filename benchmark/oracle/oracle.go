// Package oracle is simbench's reference answer: nested loops over the
// generated records with its own tokenizer, Jaccard and edit distance.
// It shares no code with internal/sim or internal/tokenizer, so an
// engine bug cannot hide in both.
package oracle

import (
	"sort"
	"unicode"

	"simdb/benchmark/gen"
)

// words splits s into lower-cased maximal runs of letters and digits.
func words(s string) []string {
	var out []string
	var cur []rune
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur = append(cur, unicode.ToLower(r))
			continue
		}
		if len(cur) > 0 {
			out = append(out, string(cur))
			cur = cur[:0]
		}
	}
	if len(cur) > 0 {
		out = append(out, string(cur))
	}
	return out
}

// jaccardAtLeast reports whether the multiset Jaccard similarity of two
// token lists is at least num/den, in integer arithmetic.
func jaccardAtLeast(wa, wb []string, num, den int) bool {
	var used [64]bool // no summary has more words
	inter := 0
	for _, x := range wa {
		for j, y := range wb {
			if !used[j] && x == y {
				used[j] = true
				inter++
				break
			}
		}
	}
	union := len(wa) + len(wb) - inter
	return union > 0 && inter*den >= num*union
}

// JaccardAtLeast reports whether the Jaccard similarity of the word
// tokens of a and b is at least num/den.
func JaccardAtLeast(a, b string, num, den int) bool {
	return jaccardAtLeast(words(a), words(b), num, den)
}

// editDistance is the Levenshtein distance by the textbook dynamic
// program, one row at a time.
func editDistance(ra, rb []rune) int {
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			c := prev[j-1]
			if ra[i-1] != rb[j-1] {
				c++
			}
			cur[j] = min(c, prev[j]+1, cur[j-1]+1)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// EditDistance is the Levenshtein distance of a and b over runes.
func EditDistance(a, b string) int { return editDistance([]rune(a), []rune(b)) }

// Table is a set of records prepared for many questions: every summary
// tokenized and every name split into runes once.
type Table struct {
	recs  []gen.Record
	words [][]string
	names [][]rune
}

// NewTable prepares recs.
func NewTable(recs []gen.Record) *Table {
	t := &Table{recs: recs, words: make([][]string, len(recs)), names: make([][]rune, len(recs))}
	for i, r := range recs {
		t.words[i] = words(r.Summary)
		t.names[i] = []rune(r.ReviewerName)
	}
	return t
}

// Matches reports whether rec satisfies q.
func Matches(q gen.Query, rec gen.Record) bool {
	num, den := q.Class.Threshold()
	if q.Class.IsJaccard() {
		return JaccardAtLeast(rec.Summary, q.Const, num, den)
	}
	return EditDistance(rec.ReviewerName, q.Const) <= num
}

func (t *Table) matches(q gen.Query, qWords []string, qRunes []rune, i int) bool {
	num, den := q.Class.Threshold()
	if q.Class.IsJaccard() {
		return jaccardAtLeast(t.words[i], qWords, num, den)
	}
	return editDistance(t.names[i], qRunes) <= num
}

// Select returns the ids of the records satisfying q, ascending when the
// records are in id order.
func (t *Table) Select(q gen.Query) []int64 {
	qWords, qRunes := words(q.Const), []rune(q.Const)
	var ids []int64
	for i, rec := range t.recs {
		if t.matches(q, qWords, qRunes, i) {
			ids = append(ids, rec.ID)
		}
	}
	return ids
}

// Pair is one join result: outer id, inner id.
type Pair struct{ O, I int64 }

// Join returns the (outer, inner) id pairs of j, sorted; the table's
// records must have ids 1..n in order.
func (t *Table) Join(j gen.Join) []Pair {
	var out []Pair
	for o := j.Start - 1; o < j.Start-1+gen.JoinOuter; o++ {
		for i := range t.recs {
			if t.recs[o].ID < t.recs[i].ID && jaccardAtLeast(t.words[o], t.words[i], 4, 5) {
				out = append(out, Pair{t.recs[o].ID, t.recs[i].ID})
			}
		}
	}
	SortPairs(out)
	return out
}

// SortPairs orders pairs by outer then inner id.
func SortPairs(p []Pair) {
	sort.Slice(p, func(a, b int) bool {
		if p[a].O != p[b].O {
			return p[a].O < p[b].O
		}
		return p[a].I < p[b].I
	})
}
