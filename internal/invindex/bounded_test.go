package invindex

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"simdb/internal/sim"
	"simdb/internal/storage"
)

// entryModel is the reference of a bounded search: every (token, length
// byte, pk) entry an Insert wrote and no Remove deleted.
type entryModel map[modelEntry]bool

type modelEntry struct {
	tok string
	l   byte
	pk  PK
}

func distinctTokens(tokens []string) []string {
	d := slices.Clone(tokens)
	slices.Sort(d)
	return slices.Compact(d)
}

func (m entryModel) apply(tokens []string, pk PK, live bool) {
	d := distinctTokens(tokens)
	for _, tok := range d {
		e := modelEntry{tok, lengthByte(len(d)), pk}
		if live {
			m[e] = true
		} else {
			delete(m, e)
		}
	}
}

// search is the naive bounded search: count each (length, pk) id's
// query tokens, keep the ids inside the length bytes the bounds admit
// whose count reaches Need of their length byte, and return their pks
// sorted, each once. ok is false where the search must refuse: T <= 0.
func (m entryModel) search(tokens []string, b sim.Bounds) (pks []PK, ok bool) {
	lo, hi := lengthByte(b.Lo), lengthByte(b.Hi)
	if b.Need(int(lo)) <= 0 {
		return nil, false
	}
	if b.Lo > b.Hi {
		return nil, true
	}
	q := map[string]bool{}
	for _, tok := range tokens {
		q[tok] = true
	}
	type id struct {
		l  byte
		pk PK
	}
	counts := map[id]int{}
	for e := range m {
		if q[e.tok] && e.l >= lo && e.l <= hi {
			counts[id{e.l, e.pk}]++
		}
	}
	for i, c := range counts {
		if c >= b.Need(int(i.l)) {
			pks = append(pks, i.pk)
		}
	}
	slices.Sort(pks)
	return slices.Compact(pks), true
}

// checkBounded runs every solver's bounded search against the model.
func checkBounded(t *testing.T, ix *Index, m entryModel, tokens []string, b sim.Bounds) {
	t.Helper()
	want, ok := m.search(tokens, b)
	for _, algo := range allSolvers {
		got, st, err := ix.SearchBounded(tokens, b, algo)
		if !ok {
			if err == nil {
				t.Fatalf("%v %v under %+v: no error for T = %d", algo, tokens, b, b.Need(int(lengthByte(b.Lo))))
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v %v under %+v: %v", algo, tokens, b, err)
		}
		if !slices.Equal(got, want) || st.Candidates != len(want) {
			t.Fatalf("%v %v under %+v: %d candidates %q, want %d %q", algo, tokens, b, len(got), got, len(want), want)
		}
		if T := b.Need(int(lengthByte(b.Lo))); st.T != T {
			t.Fatalf("%v %v under %+v: SearchStats.T = %d, want Need(Lo) = %d", algo, tokens, b, st.T, T)
		}
	}
}

// randomBounds draws the bounds of a query of q tokens: a plain T, a
// Jaccard threshold (above 1 the length range is empty) or an edit
// distance over 2- or 3-grams.
func randomBounds(rng *rand.Rand, q int) sim.Bounds {
	switch rng.Intn(3) {
	case 0:
		return sim.CountBounds(1 + rng.Intn(q))
	case 1:
		return sim.JaccardBounds(q, []float64{0.2, 0.4, 0.5, 0.6, 0.8, 0.9, 1, 1.2}[rng.Intn(8)])
	}
	return sim.EditDistanceBounds(q, rng.Intn(4), 2+rng.Intn(2))
}

// TestBoundedSearchMatchesNaive: every solver's bounded search returns
// what the naive count over the written entries returns — with records
// overwritten under a different token count, whose stale postings stay
// behind under the old length; removals; counted duplicate tokens; three
// records past the top length byte; empty length ranges; and entries
// spread over the memtable and several components.
func TestBoundedSearchMatchesNaive(t *testing.T) {
	ix := newTestIndex(t)
	m := entryModel{}
	rng := rand.New(rand.NewSource(39))
	vocab := make([]string, 12)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("t%d#%d", i%6, 1+i/6) // counted: t0#1 ... t5#2
	}
	randTokens := func(n int) []string {
		toks := make([]string, n)
		for i := range toks {
			toks[i] = vocab[rng.Intn(len(vocab))]
		}
		return toks
	}
	write := func(tokens []string, pk PK) {
		if err := ix.Insert(tokens, pk); err != nil {
			t.Fatal(err)
		}
		m.apply(tokens, pk, true)
	}
	long := func(from, n int) []string {
		toks := make([]string, n)
		for i := range toks {
			toks[i] = fmt.Sprintf("b%d", from+i)
		}
		return toks
	}
	for round := 0; round < 3; round++ {
		for id := int64(0); id < 150; id++ {
			if round > 0 && rng.Intn(3) != 0 {
				continue // a third overwritten each later round
			}
			write(randTokens(1+rng.Intn(10)), pkOf(id))
		}
		for i := 0; i < 5; i++ {
			id := pkOf(int64(rng.Intn(150)))
			toks := randTokens(1 + rng.Intn(4))
			write(toks, id)
			if err := ix.Remove(toks, id); err != nil {
				t.Fatal(err)
			}
			m.apply(toks, id, false)
		}
		if round < 2 {
			if err := ix.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(long(0, 300), pkOf(1000))
	write(long(20, 260), pkOf(1001))
	write(long(0, 255), pkOf(1002))

	for i := 0; i < 300; i++ {
		q := randTokens(1 + rng.Intn(12))
		checkBounded(t, ix, m, q, randomBounds(rng, len(distinctTokens(q))))
	}
	for _, q := range [][]string{long(0, 300), long(0, 280), append(long(0, 256), "t0#1")} {
		for _, d := range []float64{0.5, 0.8, 0.9, 1} {
			checkBounded(t, ix, m, q, sim.JaccardBounds(len(q), d))
		}
		checkBounded(t, ix, m, q, sim.CountBounds(200))
	}
	// The 300-token record is found by its own tokens at Jaccard 1,
	// although its length byte stands for every count from 255 up.
	if got, _, err := ix.SearchBounded(long(0, 300), sim.JaccardBounds(300, 1), DivideSkip); err != nil || !slices.Contains(got, pkOf(1000)) {
		t.Errorf("Jaccard 1 on the 300-token record: %d candidates, %v", len(got), err)
	}
}

// FuzzBoundedSearch checks every solver's bounded search against the
// naive count over the written entries: random records (some
// overwritten under a new token count, some removed, some flushed),
// random query tokens and random bounds.
func FuzzBoundedSearch(f *testing.F) {
	f.Add([]byte("\x05\x01abc\x02abd\x01b\x03\x07cd\x00abcd\x01\x04"))
	f.Add([]byte("\x20\xff\x13\x7fxyzzy\x00\x00\x01\x02\x03\x04\x05\x06\x07\x08"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		tokens := func(n int) []string {
			toks := make([]string, n)
			for i := range toks {
				toks[i] = string(rune('a' + rd()%8))
			}
			return toks
		}
		ix, err := Open(t.TempDir(), storage.LSMOptions{PageSize: 256, MaxComponents: 100})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		m := entryModel{}
		for n := int(rd() % 40); n > 0; n-- {
			op := rd()
			pk := pkOf(int64(rd() % 16))
			toks := tokens(int(1 + rd()%9))
			switch {
			case op%16 == 0:
				if err := ix.Flush(); err != nil {
					t.Fatal(err)
				}
			case op%16 == 1:
				if err := ix.Remove(toks, pk); err != nil {
					t.Fatal(err)
				}
				m.apply(toks, pk, false)
			default:
				if err := ix.Insert(toks, pk); err != nil {
					t.Fatal(err)
				}
				m.apply(toks, pk, true)
			}
		}
		rng := rand.New(rand.NewSource(int64(rd())))
		for i := 0; i < 4; i++ {
			q := tokens(int(1 + rd()%10))
			checkBounded(t, ix, m, q, randomBounds(rng, len(distinctTokens(q))))
		}
	})
}
