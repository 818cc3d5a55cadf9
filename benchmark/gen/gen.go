// Package gen makes simbench's inputs from a seed: Amazon-shaped review
// records, the CANON selection-query stream, and the join queries. It
// imports nothing from the engine, internal/datagen or internal/bench,
// so a change to any of those cannot move the workload; gen_test.go
// pins the bytes for seed 1.
//
// Randomness is a private splitmix64 and a table-driven Zipf sampler,
// not math/rand, so the inputs do not depend on the Go release either.
package gen

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// rng is splitmix64.
type rng struct{ s uint64 }

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newRNG returns an independent generator per (seed, stream), so adding
// draws to one stream never shifts another.
func newRNG(seed, stream uint64) *rng {
	return &rng{s: mix(seed+0x9e3779b97f4a7c15) ^ mix(stream*0xd1342543de82ef95+1)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks 0..n-1 with P(k) proportional to (k+1)^-s.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) *zipf {
	cum := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -s)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	return &zipf{cum: cum}
}

func (z *zipf) draw(r *rng) int {
	k := sort.SearchFloat64s(z.cum, r.float())
	if k >= len(z.cum) {
		k = len(z.cum) - 1
	}
	return k
}

var syllables = []string{
	"ba", "be", "bi", "bo", "bu", "ca", "ce", "co", "cu", "da", "de", "di",
	"do", "du", "fa", "fe", "fi", "fo", "ga", "ge", "go", "ha", "he", "hi",
	"ho", "ja", "jo", "ka", "ke", "ki", "ko", "la", "le", "li", "lo", "lu",
	"ma", "me", "mi", "mo", "mu", "na", "ne", "ni", "no", "nu", "pa", "pe",
	"pi", "po", "ra", "re", "ri", "ro", "ru", "sa", "se", "si", "so", "su",
	"ta", "te", "ti", "to", "tu", "va", "ve", "vi", "vo", "wa", "we", "wi",
	"za", "zo",
}

const (
	vocabSize = 4000
	vocabSkew = 1.15
	// PoolSize is how many search constants are sampled from the data per
	// field; ConstSkew is the Zipf exponent queries draw them with.
	PoolSize  = 4096
	ConstSkew = 1.1
	typoRate  = 0.3
	shortRate = 0.04
)

// word returns the vocabulary word of a frequency rank; the vocabulary
// is the same for every seed, only the draws differ.
func word(rank int) string {
	n := len(syllables)
	return syllables[rank/n%n] + syllables[rank%n]
}

func capitalize(s string) string { return strings.ToUpper(s[:1]) + s[1:] }

// Record is one review.
type Record struct {
	ID             int64
	ReviewerName   string
	Summary        string
	Overall        int64
	ASIN           string
	Helpful        int64
	UnixReviewTime int64
	ReviewText     string
}

// AppendJSON appends the record as one JSON object. Every string field
// is ASCII letters, digits and spaces, so none needs escaping.
func (r Record) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, r.ID, 10)
	dst = append(dst, `,"reviewerName":"`...)
	dst = append(dst, r.ReviewerName...)
	dst = append(dst, `","summary":"`...)
	dst = append(dst, r.Summary...)
	dst = append(dst, `","overall":`...)
	dst = strconv.AppendInt(dst, r.Overall, 10)
	dst = append(dst, `,"asin":"`...)
	dst = append(dst, r.ASIN...)
	dst = append(dst, `","helpful":`...)
	dst = strconv.AppendInt(dst, r.Helpful, 10)
	dst = append(dst, `,"unixReviewTime":`...)
	dst = strconv.AppendInt(dst, r.UnixReviewTime, 10)
	dst = append(dst, `,"reviewText":"`...)
	dst = append(dst, r.ReviewText...)
	return append(dst, `"}`...)
}

// Class is one CANON query class.
type Class int

// The four classes, in report order.
const (
	Jaccard08 Class = iota
	Jaccard05
	Ed1
	Ed2
	NumClasses
)

func (c Class) String() string {
	return [...]string{"jaccard_08", "jaccard_05", "ed_1", "ed_2"}[c]
}

// IsJaccard reports whether the class is a Jaccard selection on
// summary (otherwise it is an edit-distance selection on reviewerName).
func (c Class) IsJaccard() bool { return c == Jaccard08 || c == Jaccard05 }

// Threshold returns the class's Jaccard threshold as a fraction, or its
// edit-distance bound in num with den 1.
func (c Class) Threshold() (num, den int) {
	switch c {
	case Jaccard08:
		return 4, 5
	case Jaccard05:
		return 1, 2
	case Ed1:
		return 1, 1
	}
	return 2, 1
}

// mixPattern is the fixed 3:3:2:2 interleave of one period of CANON.
var mixPattern = [10]Class{
	Jaccard08, Jaccard05, Ed1, Jaccard08, Jaccard05,
	Ed2, Jaccard08, Jaccard05, Ed1, Ed2,
}

// Query is one selection: a class and its search constant.
type Query struct {
	Class Class
	Const string
}

const returnRow = ` return {'id': $r.id, 'summary': $r.summary, 'reviewerName': $r.reviewerName}`

// AQL renders the query against a dataset (the paper's Figure 21 shape,
// returning rows rather than a count).
func (q Query) AQL(dataset string) string {
	switch q.Class {
	case Jaccard08, Jaccard05:
		th := "0.8"
		if q.Class == Jaccard05 {
			th = "0.5"
		}
		return "for $r in dataset " + dataset +
			" where similarity-jaccard(word-tokens($r.summary), word-tokens('" + q.Const + "')) >= " + th + returnRow
	}
	k, _ := q.Class.Threshold()
	return "for $r in dataset " + dataset +
		" where edit-distance($r.reviewerName, '" + q.Const + "') <= " + strconv.Itoa(k) + returnRow
}

// Dataset is the base records of one seed plus the ranked constant
// pools the query streams draw from.
type Dataset struct {
	Seed    uint64
	Records []Record

	names  []string // base name pool records draw from
	words  *zipf
	consts [NumClasses][PoolSize]string // search constants by class and Zipf rank
	ranks  *zipf
}

// New generates n base records (ids 1..n) and samples the constant
// pools from them.
func New(seed uint64, n int) *Dataset {
	d := &Dataset{Seed: seed, words: newZipf(vocabSize, vocabSkew), ranks: newZipf(PoolSize, ConstSkew)}
	nr := newRNG(seed, 1)
	d.names = make([]string, 1+n/8)
	for i := range d.names {
		d.names[i] = baseName(nr)
	}
	rr := newRNG(seed, 2)
	d.Records = make([]Record, n)
	for i := range d.Records {
		d.Records[i] = d.record(rr, int64(i+1))
	}
	d.samplePools()
	return d
}

// Fresh generates count records with ids first, first+1, ... from their
// own stream: what the ingest workload inserts beside the reads.
func (d *Dataset) Fresh(first int64, count int) []Record {
	r := newRNG(d.Seed^uint64(first), 3)
	out := make([]Record, count)
	for i := range out {
		out[i] = d.record(r, first+int64(i))
	}
	return out
}

func baseName(r *rng) string {
	if r.float() < shortRate {
		// Two- and three-letter names: an ed_2 search for one has T <= 0 on
		// a 2-gram index, the paper's corner case.
		s := capitalize(syllables[r.intn(len(syllables))])
		if r.intn(2) == 0 {
			s += string(rune('a' + r.intn(26)))
		}
		return s
	}
	syl := func(k int) string {
		var sb strings.Builder
		for i := 0; i < k; i++ {
			sb.WriteString(syllables[r.intn(len(syllables))])
		}
		return capitalize(sb.String())
	}
	return syl(2) + " " + syl(2+r.intn(2))
}

// typo applies k random single-character edits.
func typo(r *rng, s string, k int) string {
	b := []byte(s)
	for i := 0; i < k && len(b) > 1; i++ {
		pos := r.intn(len(b))
		c := byte('a' + r.intn(26))
		switch r.intn(3) {
		case 0:
			b[pos] = c
		case 1:
			b = append(b[:pos], b[pos+1:]...)
		case 2:
			b = append(b[:pos], append([]byte{c}, b[pos:]...)...)
		}
	}
	return string(b)
}

func (d *Dataset) record(r *rng, id int64) Record {
	name := d.names[r.intn(len(d.names))]
	if r.float() < typoRate {
		name = typo(r, name, 1+r.intn(2))
	}
	// 2..6 distinct words, mean 4: with no repeated word, set and multiset
	// Jaccard agree, so the oracle need not know which the engine uses.
	nw := 2 + r.intn(3) + r.intn(3)
	sum := make([]string, 0, nw)
	for len(sum) < nw {
		w := word(d.words.draw(r))
		dup := false
		for _, have := range sum {
			dup = dup || have == w
		}
		if !dup {
			sum = append(sum, w)
		}
	}
	text := make([]string, 12+r.intn(17))
	for i := range text {
		text[i] = word(d.words.draw(r))
	}
	return Record{
		ID:             id,
		ReviewerName:   name,
		Summary:        strings.Join(sum, " "),
		Overall:        int64(1 + r.intn(5)),
		ASIN:           fmt.Sprintf("B%09d", r.intn(1_000_000)),
		Helpful:        int64(r.intn(50)),
		UnixReviewTime: int64(1_300_000_000 + r.intn(100_000_000)),
		ReviewText:     strings.Join(text, " "),
	}
}

// grams returns the padded lower-cased 2-grams of s (the generator's own
// copy: it only ranks constants by how common their grams are).
func grams(s string) []string {
	p := "#" + strings.ToLower(s) + "$"
	out := make([]string, 0, len(p)-1)
	for i := 0; i+2 <= len(p); i++ {
		out = append(out, p[i:i+2])
	}
	return out
}

// samplePools draws PoolSize summaries and names from the records and
// gives each class its own assignment of them to Zipf ranks.
//
// A query's cost follows how common its constant's tokens are, and with
// Zipf(1.1) the ten hottest ranks carry over 40 % of the traffic. Were
// ranks assigned in sample order, two seeds would run different mixes
// of cheap and dear queries and no metric could be compared across
// seeds. So each pool is sorted by an estimate of the query's work and
// ranks walk it in bit-reversed order: rank 0 is the median constant,
// ranks 1 and 2 the quartiles, and so on — every seed's hot set spans
// the same quantiles of its own data.
//
// The estimate is the posting entries an inverted-index search would
// read (the document frequencies of the constant's tokens) and, for the
// Jaccard classes, the candidates it would have to fetch and verify
// (records sharing at least T = ceil(threshold * tokens) of them),
// weighted as about a hundred posting entries each. It is computed from
// the records alone; whether the engine uses an index is its business.
func (d *Dataset) samplePools() {
	wordPost := map[string][]int32{}
	gramDF := map[string]int{}
	for i, rec := range d.Records {
		for _, w := range strings.Fields(rec.Summary) {
			wordPost[w] = append(wordPost[w], int32(i))
		}
		seen := map[string]bool{}
		for _, g := range grams(rec.ReviewerName) {
			if !seen[g] {
				seen[g] = true
				gramDF[g]++
			}
		}
	}
	r := newRNG(d.Seed, 4)
	sample := func(pick func(Record) (string, bool)) []string {
		out := make([]string, 0, PoolSize)
		for len(out) < PoolSize {
			if v, ok := pick(d.Records[r.intn(len(d.Records))]); ok {
				out = append(out, v)
			}
		}
		return out
	}
	rank := func(pool []string, cost func(string) int) (out [PoolSize]string) {
		costs := make(map[string]int, len(pool))
		for _, v := range pool {
			if _, done := costs[v]; !done {
				costs[v] = cost(v)
			}
		}
		sorted := append([]string(nil), pool...)
		sort.Slice(sorted, func(i, j int) bool {
			if ci, cj := costs[sorted[i]], costs[sorted[j]]; ci != cj {
				return ci < cj
			}
			return sorted[i] < sorted[j]
		})
		for k := range out {
			out[k] = sorted[bitrev12(uint(k+1)%PoolSize)]
		}
		return out
	}

	shared := make([]uint8, len(d.Records)) // tokens shared with the constant
	jaccardCost := func(c Class) func(string) int {
		num, den := c.Threshold()
		return func(v string) int {
			toks := strings.Fields(v)
			t := (num*len(toks) + den - 1) / den
			postings, candidates := 0, 0
			for _, w := range toks {
				postings += len(wordPost[w])
				for _, i := range wordPost[w] {
					shared[i]++
					if int(shared[i]) == t {
						candidates++
					}
				}
			}
			for _, w := range toks {
				for _, i := range wordPost[w] {
					shared[i] = 0
				}
			}
			return postings + 100*candidates
		}
	}
	summaries := sample(func(rec Record) (string, bool) { return rec.Summary, strings.Count(rec.Summary, " ") >= 2 })
	d.consts[Jaccard08] = rank(summaries, jaccardCost(Jaccard08))
	d.consts[Jaccard05] = rank(summaries, jaccardCost(Jaccard05))

	names := sample(func(rec Record) (string, bool) { return rec.ReviewerName, true })
	d.consts[Ed1] = rank(names, func(v string) (c int) {
		for _, g := range grams(v) {
			c += gramDF[g]
		}
		return c
	})
	d.consts[Ed2] = d.consts[Ed1]
}

// bitrev12 reverses the low 12 bits (PoolSize = 1<<12).
func bitrev12(x uint) uint {
	var y uint
	for i := 0; i < 12; i++ {
		y = y<<1 | x&1
		x >>= 1
	}
	return y
}

// Stream is one client's deterministic CANON query sequence.
type Stream struct {
	d *Dataset
	r *rng
	i int
}

// Stream returns client's query stream; streams of different clients
// are independent.
func (d *Dataset) Stream(client int) *Stream {
	return &Stream{d: d, r: newRNG(d.Seed, 100+uint64(client))}
}

// Next returns the stream's next query.
func (s *Stream) Next() Query {
	c := mixPattern[s.i%len(mixPattern)]
	s.i++
	return Query{Class: c, Const: s.d.consts[c][s.d.ranks.draw(s.r)]}
}

// JoinOuter is how many consecutive ids the join's outer side covers.
const JoinOuter = 10

// Join is one Jaccard 0.8 self-join whose outer side is the id range
// [Start, Start+JoinOuter).
type Join struct{ Start int64 }

// AQL renders the join (the paper's Figure 23 shape, returning id pairs).
func (j Join) AQL(dataset string) string {
	return fmt.Sprintf("for $o in dataset %[1]s for $i in dataset %[1]s"+
		" where similarity-jaccard(word-tokens($o.summary), word-tokens($i.summary)) >= 0.8"+
		" and $o.id >= %[2]d and $o.id < %[3]d and $o.id < $i.id"+
		" return {'o': $o.id, 'i': $i.id}", dataset, j.Start, j.Start+JoinOuter)
}

// JoinStream is the deterministic sequence of join queries over the
// first n records.
type JoinStream struct {
	r *rng
	n int
}

// Joins returns the join sequence over ids 1..n.
func (d *Dataset) Joins(n int) *JoinStream {
	return &JoinStream{r: newRNG(d.Seed, 5), n: n}
}

// Next returns the next join.
func (s *JoinStream) Next() Join {
	return Join{Start: int64(1 + s.r.intn(s.n-JoinOuter))}
}
