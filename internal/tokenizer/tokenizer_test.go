package tokenizer

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestWordTokens(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Great Product - Fantastic Gift", []string{"great", "product", "fantastic", "gift"}},
		{"", nil},
		{"   ", nil},
		{"one", []string{"one"}},
		{"a,b;c", []string{"a", "b", "c"}},
		{"C3PO and R2-D2!", []string{"c3po", "and", "r2", "d2"}},
		{"dup dup DUP", []string{"dup", "dup", "dup"}},
		{"café olé", []string{"café", "olé"}},
	}
	for _, c := range cases {
		if got := WordTokens(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("WordTokens(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGramTokensUnpadded(t *testing.T) {
	got := GramTokens("james", 2, false)
	want := []string{"ja", "am", "me", "es"}
	// The paper lists the *set* of 2-grams of "james" as {ja, am, me, es};
	// position-ordered they are ja am me es (with "me" from m-e).
	wantOrdered := []string{"ja", "am", "me", "es"}
	_ = want
	if !reflect.DeepEqual(got, wantOrdered) {
		t.Errorf("GramTokens(james,2) = %v, want %v", got, wantOrdered)
	}
	if g := GramTokens("a", 2, false); g != nil {
		t.Errorf("short unpadded string should have no grams, got %v", g)
	}
}

func TestGramTokensPaperExample(t *testing.T) {
	// "marla" -> {ma, ar, rl, la} per the paper's Figure 3 walkthrough.
	got := GramTokens("marla", 2, false)
	want := []string{"ma", "ar", "rl", "la"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GramTokens(marla,2) = %v, want %v", got, want)
	}
}

func TestGramTokensPadded(t *testing.T) {
	got := GramTokens("ab", 3, true)
	want := []string{"##a", "#ab", "ab$", "b$$"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GramTokens(ab,3,pad) = %v, want %v", got, want)
	}
	if g := GramTokens("", 2, true); len(g) != 1 || g[0] != "#$" {
		t.Errorf("GramTokens(\"\",2,pad) = %v, want [#$]", g)
	}
}

func TestGramTokensEdge(t *testing.T) {
	if GramTokens("abc", 0, false) != nil {
		t.Error("n=0 should yield nil")
	}
	if GramTokens("abc", -1, true) != nil {
		t.Error("negative n should yield nil")
	}
	got := GramTokens("ABC", 3, false)
	if !reflect.DeepEqual(got, []string{"abc"}) {
		t.Errorf("case folding: got %v", got)
	}
}

func TestCountTokens(t *testing.T) {
	got := CountTokens([]string{"a", "b", "a", "a"})
	want := []CountedToken{{"a", 1}, {"b", 1}, {"a", 2}, {"a", 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CountTokens = %v, want %v", got, want)
	}
	if len(CountTokens(nil)) != 0 {
		t.Error("CountTokens(nil) should be empty")
	}
}

func TestCountTokensMakesSet(t *testing.T) {
	// Property: counted tokens are unique even when inputs repeat.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		words := []string{"x", "y", "z"}
		var toks []string
		for i := 0; i < r.Intn(20); i++ {
			toks = append(toks, words[r.Intn(len(words))])
		}
		counted := CountTokens(toks)
		seen := map[CountedToken]bool{}
		for _, c := range counted {
			if seen[c] {
				return false
			}
			seen[c] = true
		}
		return len(counted) == len(toks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWordTokensLowercases(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range WordTokens(s) {
			if tok != strings.ToLower(tok) || tok == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// wordTokensBytesAgree reports whether the byte tokenizer yields
// exactly WordTokens(s), twice over one scratch (reuse must not leak
// the previous value's tokens).
func wordTokensBytesAgree(t *testing.T, sc *WordScratch, s string) {
	t.Helper()
	want := WordTokens(s)
	for pass := 0; pass < 2; pass++ {
		got := sc.WordTokens([]byte(s))
		if len(got) != len(want) {
			t.Fatalf("WordTokens(%q) over bytes = %q, want %q", s, got, want)
		}
		for i := range got {
			if string(got[i]) != want[i] {
				t.Fatalf("WordTokens(%q) over bytes = %q, want %q", s, got, want)
			}
		}
	}
}

// wordTokenSeeds are the byte tokenizer's corner cases: the ASCII fast
// path's boundaries, and letters and digits only Unicode knows —
// including ones whose lower case has another byte length ('İ' shrinks
// to "i", the Kelvin sign to "k") or is a title-case digraph.
var wordTokenSeeds = []string{
	"", " ", "a", "A", "z9", "Great Product - Fantastic Gift", "dup dup DUP", "C3PO and R2-D2!",
	"@[`{/:", "tab\tnew\nline", "trailing ", " leading", "café olé", "İstanbul", "ǅemal", "Kelvin",
	"٣ apples ٤٥", "x\xffy", "\xc3", "日本語 テキスト", "ß SS ſ",
	// SNIPPETS.md 1 and 2: AsterixDB's parser-test plans.
	"Transactions for Cooperative Environments",
	"FunctionCall test.similarity-jaccard-check@3[",
	"DatasetDecl DBLP(DBLPType) partitioned by [[nested, id]]",
	"WriteOutputTo asterix_nc1:rttest/inverted-index-complex_ngram-jaccard-check-multi-let.adm",
	"LiteralExpr [STRING] [Transactions for Cooperative Environments]",
}

func TestWordTokensBytesMatchesWordTokens(t *testing.T) {
	var sc WordScratch
	for _, s := range wordTokenSeeds {
		wordTokensBytesAgree(t, &sc, s)
	}
	f := func(s string) bool {
		wordTokensBytesAgree(t, &sc, s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	long := []byte(strings.Repeat("Great Product ", 40))
	if n := testing.AllocsPerRun(100, func() { sc.WordTokens(long) }); n != 0 {
		t.Errorf("ASCII value tokenized with %v allocations per run, want 0", n)
	}
}

// FuzzWordTokensBytes: the byte tokenizer is WordTokens, on any input.
func FuzzWordTokensBytes(f *testing.F) {
	for _, s := range wordTokenSeeds {
		f.Add([]byte(s))
	}
	var sc WordScratch
	f.Fuzz(func(t *testing.T, b []byte) {
		wordTokensBytesAgree(t, &sc, string(b))
	})
}
