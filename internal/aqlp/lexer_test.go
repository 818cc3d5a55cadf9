package aqlp

import (
	"strings"
	"testing"

	"simdb/internal/algebra"
)

func lexOK(t *testing.T, src string) []token {
	t.Helper()
	toks, err := lex(src)
	if err != nil {
		t.Fatalf("lex(%q): %v", src, err)
	}
	return toks
}

func kinds(toks []token) []tokKind {
	out := make([]tokKind, 0, len(toks))
	for _, tk := range toks {
		out = append(out, tk.kind)
	}
	return out
}

func TestLexBasics(t *testing.T) {
	toks := lexOK(t, `for $x in dataset Foo where $x.a >= 1.5 return $x`)
	var idents, vars int
	for _, tk := range toks {
		switch tk.kind {
		case tokIdent:
			idents++
		case tokVar:
			vars++
		}
	}
	if idents != 6 || vars != 3 { // for,in,dataset,Foo,where,return + a? 'a' follows '.' as ident
		// "a" after '.' is an ident too -> 7 idents. Recount loosely.
		if idents < 6 {
			t.Errorf("idents = %d", idents)
		}
	}
	if vars != 3 {
		t.Errorf("vars = %d", vars)
	}
}

func TestLexStringsAndEscapes(t *testing.T) {
	toks := lexOK(t, `'it\'s' "two\nlines" 'tab\t' 'back\\slash'`)
	want := []string{"it's", "two\nlines", "tab\t", "back\\slash"}
	for i, w := range want {
		if toks[i].kind != tokString || toks[i].text != w {
			t.Errorf("string %d = %q (kind %d), want %q", i, toks[i].text, toks[i].kind, w)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks := lexOK(t, `
		// line comment
		for /* block
		comment */ $x
	`)
	if len(toks) != 3 { // for, $x, EOF
		t.Errorf("tokens = %v", kinds(toks))
	}
}

func TestLexHintsVsComments(t *testing.T) {
	toks := lexOK(t, `/*+ hash */ /* plain */ /*+ bcast */`)
	var hints []string
	for _, tk := range toks {
		if tk.kind == tokHint {
			hints = append(hints, tk.text)
		}
	}
	if strings.Join(hints, ",") != "hash,bcast" {
		t.Errorf("hints = %v", hints)
	}
}

func TestLexNumbers(t *testing.T) {
	toks := lexOK(t, `42 3.14 .5 .5f 10f 0`)
	wantKinds := []tokKind{tokInt, tokDouble, tokDouble, tokDouble, tokDouble, tokInt, tokEOF}
	got := kinds(toks)
	for i, w := range wantKinds {
		if got[i] != w {
			t.Errorf("token %d (%q) kind = %d, want %d", i, toks[i].text, got[i], w)
		}
	}
}

func TestLexMetaTokens(t *testing.T) {
	toks := lexOK(t, `$$LEFTPK_3 ##RIGHT_1 $plain`)
	if toks[0].kind != tokMetaVar || toks[0].text != "LEFTPK_3" {
		t.Errorf("meta var = %+v", toks[0])
	}
	if toks[1].kind != tokMetaClause || toks[1].text != "RIGHT_1" {
		t.Errorf("meta clause = %+v", toks[1])
	}
	if toks[2].kind != tokVar || toks[2].text != "plain" {
		t.Errorf("var = %+v", toks[2])
	}
}

func TestLexOperators(t *testing.T) {
	toks := lexOK(t, `:= != <= >= ~= = < > + - * / %`)
	for i, want := range []string{":=", "!=", "<=", ">=", "~=", "=", "<", ">", "+", "-", "*", "/", "%"} {
		if toks[i].kind != tokOp || toks[i].text != want {
			t.Errorf("op %d = %+v, want %q", i, toks[i], want)
		}
	}
}

func TestLexHyphenatedIdentifiers(t *testing.T) {
	// Function names keep interior hyphens; a trailing hyphen is minus.
	toks := lexOK(t, `word-tokens($x) $a - 1`)
	if toks[0].kind != tokIdent || toks[0].text != "word-tokens" {
		t.Errorf("hyphenated ident = %+v", toks[0])
	}
	// $a - 1 must produce var, minus, int.
	rest := toks[4:]
	if rest[0].kind != tokVar || rest[1].kind != tokOp || rest[1].text != "-" || rest[2].kind != tokInt {
		t.Errorf("minus after var: %+v", rest[:3])
	}
}

// TestLexNonASCIIIdentifiers: an identifier or a variable name may hold
// any Unicode letter, read as a character and not byte by byte; a
// character that is no letter still fails.
func TestLexNonASCIIIdentifiers(t *testing.T) {
	toks := lexOK(t, `$é.café _ñame-x $日本`)
	want := []token{{tokVar, "é", 0, 0}, {tokPunct, ".", 3, 0}, {tokIdent, "café", 4, 0}, {tokIdent, "_ñame-x", 10, 0}, {tokVar, "日本", 19, 0}, {tokEOF, "", 26, 0}}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %+v, want %+v", toks, want)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("token %d = %+v, want %+v", i, toks[i], want[i])
		}
	}
	for _, src := range []string{"$€", "€", "\xff"} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) should fail", src)
		}
	}
	c := "for $é in dataset D return $é.café"
	if got := Normalize(c).Canonical; got != c {
		t.Errorf("Normalize(%q).Canonical = %q", c, got)
	}
	if n := testing.AllocsPerRun(10, func() { Normalize(c) }); n != 0 {
		t.Errorf("Normalize of canonical text without literals allocated %v times", n)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{
		`'unterminated`,
		`"unterminated`,
		`'bad \q escape'`,
		`/*+ unterminated hint`,
		`@`,
		`$`,
		`##`,
	} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) should fail", src)
		}
	}
}

// FuzzCanonical: Normalize's canonical text lexes to the same tokens as
// the request (same kinds and texts, or a failure in both), so two
// requests share a canonical text only if they share their tokens; it is
// a fixed point. On a request that lexes, Normalize allocates at most the
// canonical text when the request has no literal, and at most that, the
// shape's text and its parameter list when it has up to eight and its
// shape is no longer than the request.
func FuzzCanonical(f *testing.F) {
	for _, s := range []string{
		"for $r in dataset R return $r",
		"  for   $r\n\tin dataset R\nreturn $r  ",
		"// it's\nfor $r in dataset D where $r.name = 'a  b' return $r.id",
		"/* it's */ return 'a\\'  b'",
		"where /*+  indexnl */ $a.id = $b.id /* open",
		"return a- -1 .5f//x\n*2",
		"return $$V ##C 'unterminated",
		"set simthreshold '.8f'; return 1 ~= 2 @",
		"for $é in dataset D  return $é.café // ü",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		r := Normalize(src)
		c := r.Canonical
		want, werr := lex(src)
		got, gerr := lex(c)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("lex(%q) err %v, lex(canonical) = lex(%q) err %v", src, werr, c, gerr)
		}
		if werr == nil {
			if len(got) != len(want) {
				t.Fatalf("%q lexes to %d tokens, its canonical %q to %d", src, len(want), c, len(got))
			}
			for i := range want {
				if got[i].kind != want[i].kind || got[i].text != want[i].text {
					t.Fatalf("token %d of %q is %v, of its canonical %q %v", i, src, want[i], c, got[i])
				}
			}
		}
		if again := Normalize(c).Canonical; again != c {
			t.Fatalf("canonical text of %q is %q, not a fixed point", c, again)
		}
		limit := 1.0
		if len(r.Shape.Params) > 0 {
			limit = 3
		}
		fits := len(r.Shape.Params) <= 8 && len(r.Shape.Text) <= len(src)
		if n := testing.AllocsPerRun(1, func() { Normalize(src) }); werr == nil && fits && n > limit {
			t.Fatalf("Normalize(%q) allocated %v times", src, n)
		}
	})
}

// fillAll puts every parameter of sh back in place of its placeholder.
func fillAll(sh Shape) string {
	var all algebra.SlotSet
	for i := range sh.Params {
		all.Add(i + 1)
	}
	return sh.Fill(all)
}

// TestShape: literals leave placeholders of their kind and become
// parameters in request order, numbered like the tokens the parser
// reads; everything else stays as the canonical text has it.
func TestShape(t *testing.T) {
	src := "for $r in dataset D /*+ hint 1 */ where $r.id >= 3 and $r.x < .5f and $r.s = 'a\\'  b'\n" +
		"and $r.t = true and $r.n != null return {'k': $r.id, \"m\": -7}"
	r := Normalize(src)
	canonical, sh := r.Canonical, r.Shape
	if r.Mode != Run || r.At != 0 || r.Body != canonical {
		t.Fatalf("a query has mode %d, text after it at %d and %q; want none, 0 and %q", r.Mode, r.At, r.Body, canonical)
	}
	want := "for $r in dataset D /*+ hint 1 */ where $r.id >= ?i and $r.x < ?d and $r.s = ?s " +
		"and $r.t = true and $r.n != null return {?s: $r.id, ?s: -?i}"
	if sh.Text != want || !sh.Lexed {
		t.Fatalf("shape %q (lexed %v), want %q", sh.Text, sh.Lexed, want)
	}
	var raws []string
	for _, p := range sh.Params {
		raws = append(raws, p.Raw)
	}
	if got := strings.Join(raws, " "); got != `3 .5f 'a\'  b' 'k' "m" 7` {
		t.Errorf("parameters %s", got)
	}
	if fillAll(sh) != canonical {
		t.Errorf("filled shape %q, canonical %q", fillAll(sh), canonical)
	}
	for i, want := range []string{"3", "0.5", `"a'  b"`, `"k"`, `"m"`, "7"} {
		if v, err := sh.Params[i].Value(); err != nil || v.String() != want {
			t.Errorf("parameter %d reads %v (%v), want %s", i, v, err, want)
		}
	}
	slot := 0
	for _, tok := range lexOK(t, src) {
		if isLiteral(tok.kind) {
			slot++
		}
		if want := map[bool]int{true: slot, false: 0}[isLiteral(tok.kind)]; tok.slot != want {
			t.Errorf("token %+v has slot %d, want %d", tok, tok.slot, want)
		}
	}
	if sh := Normalize("return 1 @ 2").Shape; sh.Lexed || len(sh.Params) != 1 || sh.Text != "return ?i @ 2" {
		t.Errorf("malformed request: shape %q, %d parameters, lexed %v", sh.Text, len(sh.Params), sh.Lexed)
	}
	if sh := Normalize("for $r in dataset D return $r").Shape; sh.Text != "for $r in dataset D return $r" || sh.Params != nil {
		t.Errorf("request without literals: shape %q, parameters %v", sh.Text, sh.Params)
	}
	for _, bad := range []string{"99999999999999999999", `'a\q'`} {
		sh := Normalize("return " + bad).Shape
		if _, err := sh.Params[0].Value(); err == nil {
			t.Errorf("%s reads as a value", bad)
		}
	}
}

// TestMode: a leading `explain`, then `analyze`, is the request's mode,
// and the text after it has its own canonical text and shape, the ones
// it has on its own: q, `explain q` and `explain analyze q` share them.
func TestMode(t *testing.T) {
	q := "for $r in dataset D where $r.id = 3 return $r"
	for _, tc := range []struct {
		src, canonical string
		mode           Mode
		at             int
		body, shape    string
	}{
		{q, q, Run, 0, q, "for $r in dataset D where $r.id = ?i return $r"},
		{"explain " + q, "explain " + q, Explain, 7, q, "for $r in dataset D where $r.id = ?i return $r"},
		{" explain  analyze\n" + q, "explain analyze " + q, Analyze, 17, q, "for $r in dataset D where $r.id = ?i return $r"},
		{"explain(1)", "explain(1)", Explain, 7, "(1)", "(?i)"},
		{"explain /* c */ 'x'", "explain 'x'", Explain, 7, "'x'", "?s"},
		{"explain", "explain", Explain, 7, "", ""},
		{"explain analyze analyze", "explain analyze analyze", Analyze, 15, "analyze", "analyze"},
		{"analyze explain", "analyze explain", Run, 0, "analyze explain", "analyze explain"},
		{"explain explain 1", "explain explain 1", Explain, 7, "explain 1", "explain ?i"},
		{"$explain", "$explain", Run, 0, "$explain", "$explain"},
	} {
		r := Normalize(tc.src)
		if r.Canonical != tc.canonical || r.Mode != tc.mode || r.At != tc.at || r.Body != tc.body || r.Shape.Text != tc.shape {
			t.Errorf("Normalize(%q) = %q, mode %d, after it at %d %q of shape %q; want %q, %d, %d %q, %q",
				tc.src, r.Canonical, r.Mode, r.At, r.Body, r.Shape.Text, tc.canonical, tc.mode, tc.at, tc.body, tc.shape)
		}
	}
}

// FuzzShape: filling a request's shape with all of its parameters gives
// the canonical text after its mode, so two requests of one shape and
// equal parameters have one; that text is a suffix of the request's
// canonical text and the canonical text of the text after the mode on
// its own, and a request that lexes has one parameter per literal token
// after its mode.
func FuzzShape(f *testing.F) {
	for _, s := range []string{
		"for $r in dataset R where $r.id >= 3 and $r.id < 13 return {'o': $r.id}",
		"  for   $r\n\tin dataset R\nreturn 'a  b'  .5f 2F",
		"return 1 @ ?i 'x'",
		"where /*+ ?i 'q' */ $a.id = 7 // ?s",
		"set simthreshold '.8f'; return 1 ~= 2",
		"return '?s' \"?d\" ?",
		"explain analyze/**/for $r in dataset R where $r.id = 1 return $r",
		"explain(1)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		r := Normalize(src)
		canonical, sh := r.Body, r.Shape
		if !strings.HasSuffix(r.Canonical, canonical) {
			t.Fatalf("Normalize(%q): %q after the mode, not a suffix of %q", src, canonical, r.Canonical)
		}
		if after := Normalize(src[r.At:]); after.Canonical != canonical || after.Mode == Run && after.Shape.Text != sh.Text {
			t.Fatalf("the text of %q after its mode normalizes to %q of shape %q, the request has %q of shape %q",
				src, after.Canonical, after.Shape.Text, canonical, sh.Text)
		}
		if got := fillAll(sh); got != canonical {
			t.Fatalf("shape %q of %q fills to %q, canonical %q", sh.Text, src, got, canonical)
		}
		toks, err := lex(src[r.At:])
		if sh.Lexed != (err == nil) {
			t.Fatalf("%q: lexed %v, lex error %v", src, sh.Lexed, err)
		}
		if err == nil {
			n := 0
			for _, tok := range toks {
				if isLiteral(tok.kind) {
					n++
				}
			}
			if n != len(sh.Params) {
				t.Fatalf("%q has %d literal tokens and %d parameters", src, n, len(sh.Params))
			}
		}
		// Equal shape and parameters mean equal canonical text: spacing
		// the tokens differently changes neither.
		spaced := strings.ReplaceAll(r.Canonical, " ", " \n ")
		r2 := Normalize(spaced)
		c2, sh2 := r2.Body, r2.Shape
		same := sh2.Text == sh.Text && len(sh2.Params) == len(sh.Params)
		for i := 0; same && i < len(sh.Params); i++ {
			same = sh2.Params[i].Raw == sh.Params[i].Raw
		}
		if same && c2 != canonical {
			t.Fatalf("%q and %q share shape %q and parameters but canonicalize to %q and %q", src, spaced, sh.Text, canonical, c2)
		}
	})
}
