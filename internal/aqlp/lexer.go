// Package aqlp implements SimDB's query language: the AQL subset the
// paper's queries use (FLWOR expressions, the ~= similarity operator,
// set/use statements, UDFs, compiler hints) plus the AQL+ extensions of
// Section 5.2 — meta variables ($$v), meta clauses (##c), an explicit
// join clause, and union branches — that the optimizer's similarity-join
// rule uses to re-translate plans during rewriting.
package aqlp

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"simdb/internal/adm"
	"simdb/internal/algebra"
)

// tokKind enumerates lexer token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokVar        // $name
	tokMetaVar    // $$NAME
	tokMetaClause // ##NAME
	tokInt
	tokDouble
	tokString
	tokPunct // ( ) { } [ ] , ; . :
	tokOp    // := = != < <= > >= ~= + - * / %
	tokHint  // /*+ ... */
)

type token struct {
	kind tokKind
	text string
	pos  int // byte offset, for error messages
	// slot is one more than the token's index among the request's
	// literal tokens (int, double and string, counted in request order,
	// the order Normalize lifts them in); 0 for any other token.
	slot int
}

// isLiteral reports whether a token of kind k is a literal the shape
// lifts into a parameter.
func isLiteral(k tokKind) bool { return k == tokInt || k == tokDouble || k == tokString }

type lexer struct {
	src string
	pos int
}

// lex tokenizes the whole input up front.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	var toks []token
	lits := 0
	for {
		l.skipSpaceAndComments()
		start := l.pos
		kind, text, err := l.scan()
		if err == nil && kind == tokString {
			text, err = unquote(text, start+1)
		}
		if err != nil {
			return nil, err
		}
		slot := 0
		if isLiteral(kind) {
			lits++
			slot = lits
		}
		toks = append(toks, token{kind, text, start, slot})
		if kind == tokEOF {
			return toks, nil
		}
	}
}

// Shape is a request as the plan cache keys it: the canonical text after
// its mode (Request.Body) with every int, double and string literal
// token lifted out into Params, in request order, and replaced in Text
// by a placeholder naming its kind (?i, ?d or ?s). Identifiers, hints,
// true, false and null stay in Text as they are. Putting each
// parameter's Raw bytes back in place of its placeholder gives that
// canonical text again, so two requests of one shape and equal
// parameters have one.
type Shape struct {
	Text   string
	Params []Param
	// Lexed reports whether the whole request lexed. When it did not, the
	// text from the malformed token on stays as written, and the request
	// cannot parse.
	Lexed bool
}

// Param is one literal lifted out of a request's shape.
type Param struct {
	// Raw is the literal's bytes as written: a string with its quotes
	// and escapes, a number with its float suffix.
	Raw  string
	kind tokKind
	text string // what scan reads of it
	at   int    // the offset of its placeholder in the shape's Text
}

// Fill returns the shape's text with the Raw bytes of every parameter
// whose slot (one more than its index) is in keep in place of its
// placeholder. Keeping every slot gives the canonical text it shapes.
func (s Shape) Fill(keep algebra.SlotSet) string {
	var b strings.Builder
	b.Grow(len(s.Text) + 16*len(s.Params))
	last := 0
	for i, p := range s.Params {
		if keep.Has(i + 1) {
			b.WriteString(s.Text[last:p.at])
			b.WriteString(p.Raw)
			last = p.at + 2
		}
	}
	b.WriteString(s.Text[last:])
	return b.String()
}

// placeholder is the text a literal of each kind leaves in its shape.
var placeholder = map[tokKind]string{tokInt: "?i", tokDouble: "?d", tokString: "?s"}

// Value returns the literal's value as the parser reads it.
func (p Param) Value() (adm.Value, error) {
	if p.kind == tokString {
		s, err := unquote(p.text, 0)
		if err != nil {
			return adm.Value{}, err
		}
		return adm.NewString(s), nil
	}
	return numberValue(p.kind, p.text)
}

// Mode is what a request asks of its query: Run, its rows; Explain
// (`explain q`), its optimized plan, a row a line, without running it;
// Analyze (`explain analyze q`), a report of its run.
type Mode uint8

const (
	Run Mode = iota
	Explain
	Analyze
)

// modeWords[m] is the keyword that steps a request's mode up from m.
var modeWords = [...]string{Run: "explain", Explain: "analyze"}

// Request is a request text as one pass of the lexer reads it. The text
// after its mode is what it parses and the plan cache keys, so q,
// `explain q` and `explain analyze q` share one cache entry.
type Request struct {
	// Canonical is the whole request as the lexer reads it: each run of
	// whitespace and comments between two tokens becomes one space, none
	// is left at either end, and every token — literals and hints
	// included — keeps its bytes, so it lexes to the request's tokens; a
	// malformed token and everything after it stay as written. /queries,
	// the traces and the slow-query log show it.
	Canonical string
	Mode      Mode
	// At is the byte offset of the text after the mode in the request;
	// Body is its canonical text, a suffix of Canonical, and Shape its
	// shape.
	At    int
	Body  string
	Shape Shape
}

// Normalize reads src in one pass of the lexer. The canonical text is a
// slice of src for as long as it agrees with src's prefix, and the shape
// shares it until the first literal: Normalize allocates only the
// canonical text, the shape's text and its parameter list, each only
// when the request needs it.
func Normalize(src string) Request {
	l := lexer{src: src}
	var r Request
	var b, shape strings.Builder
	shaping, lexed := false, true
	n := 0    // the canonical text so far is src[:n] until b holds a copy
	body := 0 // the canonical text after the mode starts here, after a separator
	for tok := 0; ; tok++ {
		gap := l.pos
		l.skipSpaceAndComments()
		start := l.pos
		if start == len(src) {
			break
		}
		kind, text, err := l.scan()
		if err != nil {
			l.pos, lexed = len(src), false
		}
		sep := start > gap && (n > 0 || b.Len() > 0)
		if err == nil && kind == tokString && !validEscapes(text) {
			lexed = false // lex fails on it
		}
		lit := err == nil && isLiteral(kind)
		if lit && !shaping {
			shaping = true
			shape.Grow(len(src))
			canonical := src[:n]
			if b.Len() > 0 {
				canonical = b.String()
			}
			shape.WriteString(strings.TrimPrefix(canonical[body:], " "))
			r.Shape.Params = make([]Param, 0, 8)
		}
		if shaping {
			if sep && shape.Len() > 0 {
				shape.WriteByte(' ')
			}
			if lit {
				r.Shape.Params = append(r.Shape.Params, Param{Raw: src[start:l.pos], kind: kind, text: text, at: shape.Len()})
				shape.WriteString(placeholder[kind])
			} else {
				shape.WriteString(src[start:l.pos])
			}
		}
		if b.Len() == 0 && (!sep && start == n || sep && start == n+1 && src[n] == ' ') {
			n = l.pos
		} else {
			if b.Len() == 0 {
				b.Grow(len(src))
				b.WriteString(src[:n])
			}
			if sep {
				b.WriteByte(' ')
			}
			b.WriteString(src[start:l.pos])
		}
		if err == nil && kind == tokIdent && tok == int(r.Mode) && r.Mode < Analyze && text == modeWords[r.Mode] {
			r.Mode++
			r.At, body = l.pos, max(n, b.Len())
		}
	}
	r.Canonical = src[:n]
	if b.Len() > 0 {
		r.Canonical = b.String()
	}
	r.Body = strings.TrimPrefix(r.Canonical[body:], " ")
	r.Shape.Text = r.Body
	if shaping {
		r.Shape.Text = shape.String()
	}
	r.Shape.Lexed = lexed
	return r
}

// scan reads the token at l.pos and moves past it. text is what the
// parser reads of it: a variable or meta name, a hint's trimmed body, a
// string's body between its quotes with escapes still in, a number
// without its float suffix, or else the token's bytes. It only slices
// the source.
func (l *lexer) scan() (tokKind, string, error) {
	start := l.pos
	if start >= len(l.src) {
		return tokEOF, "", nil
	}
	c := l.src[start]
	switch {
	case c == '/' && l.peekAt(1) == '*' && l.peekAt(2) == '+':
		end := strings.Index(l.src[start:], "*/")
		if end < 0 {
			return 0, "", fmt.Errorf("aql: unterminated hint at %d", start)
		}
		l.pos += end + 2
		return tokHint, strings.TrimSpace(l.src[start+3 : start+end]), nil
	case c == '$':
		kind, what := tokVar, "variable"
		l.pos++
		if l.peekAt(0) == '$' {
			kind, what = tokMetaVar, "meta variable"
			l.pos++
		}
		name := l.identPlain()
		if name == "" {
			return 0, "", fmt.Errorf("aql: bad %s at %d", what, start)
		}
		return kind, name, nil
	case c == '#' && l.peekAt(1) == '#':
		l.pos += 2
		name := l.identPlain()
		if name == "" {
			return 0, "", fmt.Errorf("aql: bad meta clause at %d", start)
		}
		return tokMetaClause, name, nil
	case c == '\'' || c == '"':
		body, err := l.scanString(c)
		return tokString, body, err
	case c >= '0' && c <= '9' || (c == '.' && l.peekAt(1) >= '0' && l.peekAt(1) <= '9'):
		kind, text := l.scanNumber()
		return kind, text, nil
	case isIdentStart(l.runeAt()):
		return tokIdent, l.ident(), nil
	}
	if op := l.lexOperator(); op != "" {
		return tokOp, op, nil
	}
	if strings.IndexByte("(){}[],;.:", c) >= 0 {
		l.pos++
		return tokPunct, l.src[start:l.pos], nil
	}
	return 0, "", fmt.Errorf("aql: unexpected character %q at %d", c, start)
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off < len(l.src) {
		return l.src[l.pos+off]
	}
	return 0
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '/' && l.peekAt(1) == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.peekAt(1) == '*' && l.peekAt(2) != '+':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += end + 4
		default:
			return
		}
	}
}

// runeAt decodes the character at l.pos; identifiers may hold any
// Unicode letter, so a byte past ASCII does not stand for itself.
func (l *lexer) runeAt() rune {
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentCont(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

// ident consumes an identifier; AQL identifiers may contain '-' (e.g.
// word-tokens) but must not end with it followed by a digit start—we
// accept hyphens inside and let the parser sort out function names.
func (l *lexer) ident() string {
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if l.pos == start {
			if !isIdentStart(r) {
				break
			}
		} else if !isIdentCont(r) {
			break
		}
		l.pos += size
	}
	// Do not swallow a trailing '-' (it is a minus operator).
	for l.pos > start && l.src[l.pos-1] == '-' {
		l.pos--
	}
	return l.src[start:l.pos]
}

// identPlain consumes a hyphen-free identifier (variable and meta
// names, where '-' must stay a minus operator).
func (l *lexer) identPlain() string {
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if l.pos == start {
			if !isIdentStart(r) {
				break
			}
		} else if !(unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_') {
			break
		}
		l.pos += size
	}
	return l.src[start:l.pos]
}

// scanString moves past the string literal at l.pos and returns its
// body between the quotes, escapes still in.
func (l *lexer) scanString(quote byte) (string, error) {
	start := l.pos
	for l.pos++; l.pos < len(l.src); l.pos++ {
		switch l.src[l.pos] {
		case quote:
			l.pos++
			return l.src[start+1 : l.pos-1], nil
		case '\\':
			l.pos++ // the escaped byte
		}
	}
	return "", fmt.Errorf("aql: unterminated string at %d", start)
}

// validEscapes reports whether unquote accepts a string literal's body.
func validEscapes(body string) bool {
	for i := 0; i < len(body); i++ {
		if body[i] == '\\' {
			if i++; i == len(body) || strings.IndexByte(`nt\'"`, body[i]) < 0 {
				return false
			}
		}
	}
	return true
}

// unquote decodes the escapes of a string literal's body, which starts
// at byte offset pos of the request.
func unquote(body string, pos int) (string, error) {
	if strings.IndexByte(body, '\\') < 0 {
		return body, nil
	}
	var sb strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			sb.WriteByte(c)
			continue
		}
		i++
		switch esc := body[i]; esc {
		case 'n':
			sb.WriteByte('\n')
		case 't':
			sb.WriteByte('\t')
		case '\\', '\'', '"':
			sb.WriteByte(esc)
		default:
			return "", fmt.Errorf("aql: bad escape \\%c at %d", esc, pos+i)
		}
	}
	return sb.String(), nil
}

// scanNumber moves past an int or a double, including the paper's
// ".5f" float-suffix style, and returns its kind and its text without
// the suffix.
func (l *lexer) scanNumber() (tokKind, string) {
	start := l.pos
	isDouble := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
		} else if c == '.' && !isDouble && l.peekAt(1) >= '0' && l.peekAt(1) <= '9' {
			isDouble = true
			l.pos++
		} else if c == '.' && !isDouble && l.pos == start {
			isDouble = true
			l.pos++
		} else {
			break
		}
	}
	text := l.src[start:l.pos]
	// Optional trailing 'f' (AQL float literal, e.g. .5f).
	if l.pos < len(l.src) && (l.src[l.pos] == 'f' || l.src[l.pos] == 'F') {
		isDouble = true
		l.pos++
	}
	if isDouble {
		return tokDouble, text
	}
	return tokInt, text
}

func (l *lexer) lexOperator() string {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case ":=", "!=", "<=", ">=", "~=":
		l.pos += 2
		return two
	}
	if strings.IndexByte("=<>+-*/%", l.src[l.pos]) >= 0 {
		l.pos++
		return l.src[l.pos-1 : l.pos]
	}
	return ""
}

// numberValue reads an int or double token's text (scan's, without the
// float suffix) as the parser does.
func numberValue(kind tokKind, text string) (adm.Value, error) {
	if kind == tokInt {
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return adm.Value{}, fmt.Errorf("bad integer %q", text)
		}
		return adm.NewInt(i), nil
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return adm.Value{}, fmt.Errorf("bad double %q", text)
	}
	return adm.NewDouble(f), nil
}
