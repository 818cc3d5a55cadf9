package aqlp

import (
	"testing"

	"simdb/internal/adm"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParseStatements(t *testing.T) {
	q := mustParse(t, `
		use dataverse TextStore;
		set simfunction 'jaccard';
		set simthreshold '0.5';
		create dataverse Foo;
		create dataset AmazonReview primary key review_id;
		create index smix on AmazonReview(summary) type keyword;
		create index nix on AmazonReview(reviewerName) type ngram(2);
		create index uix on Tweets(user.name) type ngram(2);
		create index bx on AmazonReview(summary) type btree;
	`)
	if len(q.Stmts) != 9 || q.Body != nil {
		t.Fatalf("stmts=%d body=%v", len(q.Stmts), q.Body)
	}
	if u := q.Stmts[0].(UseStmt); u.Dataverse != "TextStore" {
		t.Errorf("use = %+v", u)
	}
	if s := q.Stmts[1].(SetStmt); s.Key != "simfunction" || s.Val != "jaccard" {
		t.Errorf("set = %+v", s)
	}
	if c := q.Stmts[4].(CreateDatasetStmt); c.Name != "AmazonReview" || c.PKField != "review_id" {
		t.Errorf("create dataset = %+v", c)
	}
	ix := q.Stmts[6].(CreateIndexStmt)
	if ix.IType != "ngram" || ix.GramLen != 2 || ix.Field != "reviewerName" {
		t.Errorf("ngram index = %+v", ix)
	}
	if nested := q.Stmts[7].(CreateIndexStmt); nested.Field != "user.name" {
		t.Errorf("nested field index = %+v", nested)
	}
}

func TestParsePaperJoinQuery(t *testing.T) {
	// Figure 4(a) of the paper.
	q := mustParse(t, `
		use dataverse TextStore;
		set simfunction 'jaccard';
		set simthreshold '0.5';
		for $t1 in dataset AmazonReview
		for $t2 in dataset AmazonReview
		where word-tokens($t1.summary) ~= word-tokens($t2.summary)
		return { 'summary1': $t1, 'summary2': $t2 }
	`)
	fl, ok := q.Body.(FLWORNode)
	if !ok {
		t.Fatalf("body is %T", q.Body)
	}
	if len(fl.Clauses) != 3 {
		t.Fatalf("clauses = %d", len(fl.Clauses))
	}
	w := fl.Clauses[2].(WhereClause)
	bin, ok := w.E.(BinNode)
	if !ok || bin.Op != "~=" {
		t.Errorf("where = %#v", w.E)
	}
	ret, ok := fl.Ret.(RecordNode)
	if !ok || len(ret.Keys) != 2 || ret.Keys[0] != "summary1" {
		t.Errorf("return = %#v", fl.Ret)
	}
}

func TestParseFunctionNotation(t *testing.T) {
	// Figure 4(b).
	q := mustParse(t, `
		for $t1 in dataset AmazonReview
		for $t2 in dataset AmazonReview
		where similarity-jaccard(word-tokens($t1.summary), word-tokens($t2.summary)) >= 0.5
		return { 'a': $t1, 'b': $t2 }
	`)
	fl := q.Body.(FLWORNode)
	w := fl.Clauses[2].(WhereClause)
	cmp := w.E.(BinNode)
	if cmp.Op != ">=" {
		t.Fatalf("op = %s", cmp.Op)
	}
	call := cmp.L.(CallNode)
	if call.Name != "similarity-jaccard" || len(call.Args) != 2 {
		t.Errorf("call = %+v", call)
	}
	if lit := cmp.R.(LitNode); lit.Val.Double() != 0.5 {
		t.Errorf("threshold = %v", lit.Val)
	}
}

func TestParsePositionalAndHints(t *testing.T) {
	q := mustParse(t, `
		for $t in dataset ARevs
		for $tok at $i in word-tokens($t.summary)
		where $tok = /*+ bcast */ $other
		/*+ hash */ group by $g := $tok with $i
		order by count($i) desc, $g
		return $g
	`)
	fl := q.Body.(FLWORNode)
	fc := fl.Clauses[1].(ForClause)
	if fc.Pos != "i" {
		t.Errorf("positional var = %q", fc.Pos)
	}
	wc := fl.Clauses[2].(WhereClause)
	if h, ok := wc.E.(BinNode).R.(HintNode); !ok || h.Hint != "bcast" {
		t.Errorf("bcast hint = %#v", wc.E)
	}
	gc := fl.Clauses[3].(GroupClause)
	if gc.Hint != "hash" || len(gc.Keys) != 1 || gc.With[0] != "i" {
		t.Errorf("group = %+v", gc)
	}
	oc := fl.Clauses[4].(OrderClause)
	if !oc.Items[0].Desc || oc.Items[1].Desc {
		t.Errorf("order = %+v", oc)
	}
}

func TestParseFloatSuffix(t *testing.T) {
	q := mustParse(t, `for $x in dataset D let $p := prefix-len-jaccard(len($x.t), .5f) return $p`)
	fl := q.Body.(FLWORNode)
	lc := fl.Clauses[1].(LetClause)
	call := lc.E.(CallNode)
	if lit := call.Args[1].(LitNode); lit.Val.Double() != 0.5 {
		t.Errorf("float suffix = %v", lit.Val)
	}
}

func TestParseAQLPlusExtensions(t *testing.T) {
	q := mustParse(t, `
		for $l in ##LEFT_2
		for $t in union((##LEFT_1), (##RIGHT_1))
		join $r in (for $x in dataset D return $x) on $l.k = $r.k
		where $$LEFTPK_2 < 5
		return $l
	`)
	fl := q.Body.(FLWORNode)
	if mc := fl.Clauses[0].(ForClause).In.(MetaClauseNode); mc.Name != "LEFT_2" {
		t.Errorf("meta clause = %+v", mc)
	}
	un := fl.Clauses[1].(ForClause).In.(UnionNode)
	if len(un.Branches) != 2 {
		t.Errorf("union branches = %d", len(un.Branches))
	}
	jc := fl.Clauses[2].(JoinClause)
	if jc.V != "r" || jc.On == nil {
		t.Errorf("join clause = %+v", jc)
	}
	wc := fl.Clauses[3].(WhereClause)
	if mv := wc.E.(BinNode).L.(MetaVarNode); mv.Name != "LEFTPK_2" {
		t.Errorf("meta var = %+v", mv)
	}
}

func TestParseFragmentWithoutReturn(t *testing.T) {
	q := mustParse(t, `for $x in dataset D where $x.a = 1`)
	fl := q.Body.(FLWORNode)
	if fl.Ret != nil || len(fl.Clauses) != 2 {
		t.Errorf("fragment = %+v", fl)
	}
}

func TestParseCreateFunction(t *testing.T) {
	q := mustParse(t, `
		create function my-sim($x, $y) {
			similarity-jaccard(word-tokens($x), word-tokens($y))
		};
		for $a in dataset D where my-sim($a.t, 'q') >= 0.5 return $a
	`)
	f := q.Stmts[0].(CreateFunctionStmt)
	if f.Name != "my-sim" || len(f.Params) != 2 {
		t.Errorf("function = %+v", f)
	}
	if q.Body == nil {
		t.Error("body missing")
	}
}

// parseBody parses src, a query with no statements, and returns its
// body expression.
func parseBody(src string) (Node, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return q.Body, nil
}

func TestParseLiteralsAndConstructors(t *testing.T) {
	e, err := parseBody(`{ 'a': [1, 2.5, 'x', true, false, null], 'b': -3 }`)
	if err != nil {
		t.Fatal(err)
	}
	rec := e.(RecordNode)
	lst := rec.Vals[0].(ListNode)
	if len(lst.Elems) != 6 {
		t.Fatalf("list = %+v", lst)
	}
	if lst.Elems[0].(LitNode).Val.Int() != 1 {
		t.Error("int literal")
	}
	if lst.Elems[1].(LitNode).Val.Double() != 2.5 {
		t.Error("double literal")
	}
	if !adm.Equal(lst.Elems[4].(LitNode).Val, adm.NewBool(false)) {
		t.Error("bool literal")
	}
	if !lst.Elems[5].(LitNode).Val.IsNull() {
		t.Error("null literal")
	}
	neg := rec.Vals[1].(UnaryNode)
	if neg.Op != "-" {
		t.Error("unary minus")
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := parseBody(`1 + 2 * 3 = 7 and not false`)
	if err != nil {
		t.Fatal(err)
	}
	and := e.(BinNode)
	if and.Op != "and" {
		t.Fatalf("top = %s", and.Op)
	}
	eq := and.L.(BinNode)
	if eq.Op != "=" {
		t.Fatalf("left = %s", eq.Op)
	}
	add := eq.L.(BinNode)
	if add.Op != "+" {
		t.Fatalf("addition = %s", add.Op)
	}
	if mul := add.R.(BinNode); mul.Op != "*" {
		t.Fatalf("multiplication inside addition = %s", mul.Op)
	}
}

func TestParseIndexAccess(t *testing.T) {
	e, err := parseBody(`$sim[0]`)
	if err != nil {
		t.Fatal(err)
	}
	ix := e.(IndexNode)
	if ix.Base.(VarNode).Name != "sim" {
		t.Errorf("index access = %+v", ix)
	}
}

func TestParseNonASCIIFieldAndVariable(t *testing.T) {
	q := mustParse(t, `for $é in dataset D return $é.café`)
	fl := q.Body.(FLWORNode)
	if fc := fl.Clauses[0].(ForClause); fc.V != "é" {
		t.Errorf("for variable = %q", fc.V)
	}
	f := fl.Ret.(FieldNode)
	if f.Field != "café" || f.Base.(VarNode).Name != "é" {
		t.Errorf("field access = %+v", f)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`for`,
		`for $x in`,
		`{ 'a' 1 }`,
		`[1, `,
		`set simfunction jaccard`, // unquoted value
		`$x +`,
		`for $x in dataset D return $x extra`,
		`create index i on D(f) type ngram`, // missing gram length
		`/*+ bad`,
		`'unterminated`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseDatasetCallForm(t *testing.T) {
	q := mustParse(t, `for $x in dataset('ARevs') return $x`)
	fc := q.Body.(FLWORNode).Clauses[0].(ForClause)
	if fc.In.(DatasetNode).Name != "ARevs" {
		t.Errorf("dataset = %+v", fc.In)
	}
}

func TestParseLimit(t *testing.T) {
	q := mustParse(t, `for $x in dataset D limit 10 return $x`)
	lc := q.Body.(FLWORNode).Clauses[1].(LimitClause)
	if lc.E.(LitNode).Val.Int() != 10 {
		t.Errorf("limit = %+v", lc)
	}
}

// TestParseExplain: `explain` and `explain analyze` are the request's
// mode, which Normalize reads before any parse; the text after the mode
// is what parses, its statements and body alike, and the parser knows
// no explain.
func TestParseExplain(t *testing.T) {
	for _, tc := range []struct {
		src   string
		mode  Mode
		stmts int
	}{
		{`explain for $x in dataset D return $x`, Explain, 0},
		{`explain analyze use dataverse Default; for $x in dataset D return $x`, Analyze, 1},
		// "explain" downstream of the leading position is no mode.
		{`for $explain in dataset D return $explain`, Run, 0},
	} {
		r := Normalize(tc.src)
		if r.Mode != tc.mode {
			t.Errorf("%q: mode %d, want %d", tc.src, r.Mode, tc.mode)
		}
		q := mustParse(t, tc.src[r.At:])
		if len(q.Stmts) != tc.stmts || q.Body == nil {
			t.Errorf("%q: the text after the mode parses to %d statements and body %v", tc.src, len(q.Stmts), q.Body)
		}
	}
	if _, err := Parse(`explain for $x in dataset D return $x`); err == nil {
		t.Error("the parser read a mode")
	}
}
