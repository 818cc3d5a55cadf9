package algebra

import (
	"fmt"
	"math/rand"
	"testing"

	"simdb/internal/adm"
)

// testCols is the column layout the differential tests compile against:
// three bound variables plus $9, which is deliberately unbound so the
// unbound-variable error path is exercised.
var testCols = map[Var]int{1: 0, 2: 1, 3: 2}

// testRows cover the full layout, a short row (column out of row), and
// rows with nulls and mixed kinds.
var testRows = [][]adm.Value{
	{adm.NewInt(7), adm.NewString("quick brown fox"), adm.NewDouble(0.5)},
	{adm.NewInt(-3), adm.NewString(""), adm.Null},
	{adm.Null, adm.NewStringList([]string{"a", "b"}), adm.NewBool(true)},
	{adm.NewInt(1)}, // short: columns 1 and 2 are out of row
	{adm.NewRecord(adm.NewRecordFromFields([]string{"f", "g"}, []adm.Value{adm.NewString("hello world"), adm.NewInt(4)})),
		adm.NewString("f"), adm.NewDouble(2)},
}

// assertSame evaluates e both ways over every test row and requires
// identical outcomes: same value (by ADM rendering, which distinguishes
// kinds) or same error string.
func assertSame(t *testing.T, e Expr) {
	t.Helper()
	fn, ok := Compile(e, testCols)
	if !ok {
		t.Fatalf("Compile declined %s", e)
	}
	env := NewEnv(testCols, nil)
	for i, row := range testRows {
		env.Reset(row)
		iv, ierr := Eval(e, env)
		cv, cerr := fn(row)
		if (ierr == nil) != (cerr == nil) {
			t.Fatalf("row %d, expr %s: interpreted err=%v, compiled err=%v", i, e, ierr, cerr)
		}
		if ierr != nil {
			if ierr.Error() != cerr.Error() {
				t.Fatalf("row %d, expr %s: error text diverged:\n  interpreted: %v\n  compiled:    %v", i, e, ierr, cerr)
			}
			continue
		}
		if iv.Kind() != cv.Kind() || iv.String() != cv.String() {
			t.Fatalf("row %d, expr %s: interpreted %v (%v), compiled %v (%v)", i, e, iv, iv.Kind(), cv, cv.Kind())
		}
	}
}

func TestCompileMatchesEvalFixed(t *testing.T) {
	exprs := []Expr{
		CInt(42),
		V(1),
		V(9), // unbound
		V(3), // out of row on the short row
		F("eq", V(1), CInt(7)),
		F("lt", V(1), V(3)),
		F("ge", F("add", V(1), CInt(1)), CInt(8)),
		F("add", V(1), V(3)),
		F("mul", CInt(6), CInt(7)),                                  // folds
		F("div", CInt(1), CInt(0)),                                  // folds to an error
		F("and", C(adm.NewBool(false)), F("div", CInt(1), CInt(0))), // short-circuit past folded error
		F("or", F("eq", V(1), CInt(7)), F("div", CInt(1), CInt(0))),
		F("and", F("gt", V(1), CInt(0)), F("lt", V(1), CInt(100))),
		F("not", F("is-null", V(3))),
		F("not", V(2)), // not on a string -> error
		F("field-access", V(1), CStr("f")),
		F("field-access", V(1), CStr("missing")),
		F("similarity-jaccard", F("word-tokens", V(2)), F("word-tokens", CStr("quick fox"))),
		F("similarity-jaccard-check", F("word-tokens", V(2)), F("word-tokens", CStr("quick brown fox")), C(adm.NewDouble(0.8))),
		F("edit-distance", V(2), CStr("quick brown fix")),
		F("prefix-len-jaccard", F("len", F("word-tokens", CStr("a b c d"))), C(adm.NewDouble(0.8))), // folds
		F("t-occurrence-jaccard", CInt(5), C(adm.NewDouble(0.8))),                                   // folds
		F("no-such-function", V(1)),
		F("no-such-function", F("div", CInt(1), CInt(0))), // arg error wins over unknown-function
		F("eq", V(1)),              // wrong arity -> builtin arity error
		F("add", V(1), V(1), V(1)), // wrong arity for fused arith
		F("len", V(2)),
		F("list", V(1), V(2), V(3)),
		F("record", CStr("k"), V(1)),
		F("record", V(1), V(2)), // field name not a string on most rows
	}
	for _, e := range exprs {
		assertSame(t, e)
	}
}

// longTokens is the comprehension of the engine's tests: the tokens of $2
// at least six characters long.
var longTokens = Comprehension{
	Clauses: []CompClause{
		{Kind: "for", V: "tok", E: F("word-tokens", V(2))},
		{Kind: "where", E: F("ge", F("string-length", NameRef{Name: "tok"}), CInt(6))},
	},
	Ret: NameRef{Name: "tok"},
}

// TestCompileAcceptsComprehension: a comprehension compiles wherever it
// sits, and so does a name reference outside any comprehension (to the
// interpreter's unbound-name error).
func TestCompileAcceptsComprehension(t *testing.T) {
	constant := Comprehension{
		Clauses: []CompClause{{Kind: "for", V: "x", PosV: "i", E: F("list", CInt(3), CInt(1))}, {Kind: "order", E: NameRef{Name: "x"}, Desc: true}},
		Ret:     F("list", NameRef{Name: "i"}, NameRef{Name: "x"}),
	}
	for _, e := range []Expr{
		longTokens,
		F("len", longTokens),
		F("and", C(adm.NewBool(false)), longTokens),
		F("ge", F("count", longTokens), CInt(2)),
		constant,
		NameRef{Name: "x"},
		Comprehension{Clauses: []CompClause{{Kind: "for", V: "x", E: CInt(1)}}, Ret: NameRef{Name: "x"}}, // for over an int
	} {
		assertSame(t, e)
	}

	// A variable-free comprehension folds: every call returns the one
	// value computed at compile time.
	fn, ok := Compile(constant, testCols)
	if !ok {
		t.Fatal("Compile declined")
	}
	a, _ := fn(nil)
	b, _ := fn(testRows[0])
	if len(a.Elems()) != 2 || &a.Elems()[0] != &b.Elems()[0] {
		t.Errorf("variable-free comprehension %s was not folded: %v, %v", constant, a, b)
	}

	// The layout is resolved at compile time, as for a VarRef: a later
	// change to the map does not reach the closure.
	cols := map[Var]int{2: 1}
	fn, _ = Compile(F("len", longTokens), cols)
	delete(cols, 2)
	if v, err := fn([]adm.Value{adm.Null, adm.NewString("jumping quickly")}); err != nil || v.Int() != 2 {
		t.Errorf("len(long tokens of 'jumping quickly') = %v, %v; want 2", v, err)
	}
}

// TestCompiledComprehensionShared: one compiled comprehension, shared by
// goroutines the way operator instances share it. Each call binds its
// names in an Env of its own; a shared one is a race under -race and
// wrong answers without it.
func TestCompiledComprehensionShared(t *testing.T) {
	nested := Comprehension{
		Clauses: []CompClause{{Kind: "for", V: "a", E: longTokens}},
		Ret: F("count", Comprehension{
			Clauses: []CompClause{{Kind: "for", V: "b", E: F("word-tokens", V(2))}, {Kind: "where", E: F("lt", NameRef{Name: "b"}, NameRef{Name: "a"})}},
			Ret:     NameRef{Name: "b"},
		}),
	}
	fn, ok := Compile(nested, testCols)
	if !ok {
		t.Fatal("Compile declined")
	}
	rows := make([][]adm.Value, 16)
	want := make([]string, len(rows))
	for i := range rows {
		rows[i] = []adm.Value{adm.NewInt(int64(i)), adm.NewString(fmt.Sprintf("alphabet %d quickly boxes %d jumping %d", i, i*i, i%3))}
		v, err := Eval(nested, NewEnv(testCols, rows[i]))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v.String()
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for n := 0; n < 200; n++ {
				i := (g + n) % len(rows)
				v, err := fn(rows[i])
				if err == nil && v.String() != want[i] {
					err = fmt.Errorf("row %d: %v, want %s", i, v, want[i])
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompileConstFoldShared: a folded constant is computed once and the
// resulting closure is safe to share across goroutines.
func TestCompileConstFoldShared(t *testing.T) {
	e := F("word-tokens", CStr("the quick brown fox"))
	fn, ok := Compile(e, testCols)
	if !ok {
		t.Fatal("Compile declined")
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 100; i++ {
				v, err := fn(nil)
				if err != nil {
					done <- err
					return
				}
				if len(v.Elems()) != 4 {
					done <- errUnexpected
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errUnexpected = &tokenCountError{}

type tokenCountError struct{}

func (*tokenCountError) Error() string { return "unexpected token count" }

// genExpr builds a random expression over the test layout, including
// unknown functions, wrong arities, unbound variables and names, and
// nulls, so the error paths are compared too.
func genExpr(r *rand.Rand, depth int) Expr { return genExprIn(r, depth, nil) }

// genExprIn builds an expression that may read the comprehension names
// in scope.
func genExprIn(r *rand.Rand, depth int, names []string) Expr {
	if depth <= 0 {
		if len(names) > 0 && r.Intn(3) == 0 {
			return NameRef{Name: names[r.Intn(len(names))]}
		}
		switch r.Intn(8) {
		case 0:
			return CInt(int64(r.Intn(21) - 10))
		case 1:
			return C(adm.NewDouble(float64(r.Intn(100)) / 10))
		case 2:
			return CStr([]string{"", "fox", "quick brown fox", "hello world"}[r.Intn(4)])
		case 3:
			return C(adm.NewBool(r.Intn(2) == 0))
		case 4:
			return C(adm.Null)
		case 5:
			return NameRef{Name: "unbound"} // outside any comprehension's scope
		default:
			return V(Var(r.Intn(5))) // 0 and 4 are unbound
		}
	}
	sub := func() Expr { return genExprIn(r, depth-1, names) }
	switch r.Intn(17) {
	case 0:
		return F([]string{"eq", "neq", "lt", "le", "gt", "ge"}[r.Intn(6)], sub(), sub())
	case 1:
		return F([]string{"add", "sub", "mul", "div", "mod"}[r.Intn(5)], sub(), sub())
	case 2:
		return F("and", sub(), sub())
	case 3:
		return F("or", sub(), sub(), sub())
	case 4:
		return F("not", sub())
	case 5:
		return F("is-null", sub())
	case 6:
		return F("field-access", sub(), sub())
	case 7:
		return F("word-tokens", sub())
	case 8:
		return F("similarity-jaccard", F("word-tokens", sub()), F("word-tokens", sub()))
	case 9:
		return F("len", sub())
	case 10:
		return F("list", sub(), sub())
	case 11:
		return F("edit-distance", sub(), sub())
	case 12:
		// Wrong arities and unknown functions: error paths must agree too.
		return F([]string{"eq", "not", "no-such-fn"}[r.Intn(3)], sub())
	case 13:
		return genComp(r, depth, names)
	case 14:
		return F("len", genComp(r, depth, names))
	case 15:
		// Short-circuit past a comprehension, which may raise.
		return F("and", C(adm.NewBool(false)), genComp(r, depth, names))
	default:
		return F("neg", sub())
	}
}

// genComp builds a comprehension of one to three clauses — for (with and
// without at), let, where, order ascending and descending — and a
// return, each of which may read every name bound before it, the
// enclosing comprehensions' included.
func genComp(r *rand.Rand, depth int, names []string) Expr {
	scope := append([]string(nil), names...)
	fresh := func() string {
		scope = append(scope, fmt.Sprintf("n%d", len(scope)))
		return scope[len(scope)-1]
	}
	sub := func() Expr { return genExprIn(r, depth-1, scope) }
	var c Comprehension
	for n := 1 + r.Intn(3); n > 0; n-- {
		switch r.Intn(6) {
		case 0, 1:
			cl := CompClause{Kind: "for", E: genColl(r, depth-1, scope)}
			cl.V = fresh()
			if r.Intn(2) == 0 {
				cl.PosV = fresh()
			}
			c.Clauses = append(c.Clauses, cl)
		case 2:
			cl := CompClause{Kind: "let", E: sub()}
			cl.V = fresh()
			c.Clauses = append(c.Clauses, cl)
		case 3:
			c.Clauses = append(c.Clauses, CompClause{Kind: "where", E: sub()})
		default:
			c.Clauses = append(c.Clauses, CompClause{Kind: "order", E: sub(), Desc: r.Intn(2) == 0})
		}
	}
	c.Ret = sub()
	return c
}

// genColl builds what a for clause ranges over: a list, a bag, null, a
// value that is not a collection (the interpreter's "for over" error),
// a column that holds a list on one test row and a string on the
// others, or a nested comprehension.
func genColl(r *rand.Rand, depth int, names []string) Expr {
	switch r.Intn(8) {
	case 0:
		return C(adm.NewList([]adm.Value{adm.NewInt(3), adm.NewString("fox"), adm.NewInt(1)}))
	case 1:
		return C(adm.NewBag([]adm.Value{adm.NewInt(2), adm.NewInt(2), adm.Null}))
	case 2:
		return C(adm.Null)
	case 3:
		return CInt(4)
	case 4:
		return V(2)
	case 5:
		return F("word-tokens", V(2))
	case 6:
		if depth > 0 {
			return genComp(r, depth, names)
		}
		return F("list", V(1), V(3))
	default:
		return F("list", genExprIn(r, depth, names), genExprIn(r, depth, names))
	}
}

// TestCompileMatchesEvalRandom is the differential property test: many
// random expressions, every outcome identical between the compiler and
// the interpreter.
func TestCompileMatchesEvalRandom(t *testing.T) {
	r := rand.New(rand.NewSource(20260809))
	seen := map[string]int{}
	for i := 0; i < 2000; i++ {
		e := genExpr(r, 1+r.Intn(4))
		countForms(e, false, seen)
		assertSame(t, e)
	}
	t.Logf("forms generated: %v", seen)
	for _, form := range []string{"comprehension", "nested", "for", "for-at", "for-null", "for-non-list", "for-bag",
		"let", "where", "order-asc", "order-desc", "name", "unbound-name"} {
		if seen[form] < 10 {
			t.Errorf("the generator no longer covers %s: %d of 2000 expressions", form, seen[form])
		}
	}
}

// countForms counts the comprehension forms in e.
func countForms(e Expr, inComp bool, seen map[string]int) {
	switch x := e.(type) {
	case NameRef:
		if x.Name == "unbound" {
			seen["unbound-name"]++
		} else {
			seen["name"]++
		}
	case Call:
		for _, a := range x.Args {
			countForms(a, inComp, seen)
		}
	case Comprehension:
		seen["comprehension"]++
		if inComp {
			seen["nested"]++
		}
		for _, cl := range x.Clauses {
			kind := cl.Kind
			switch {
			case kind == "order" && cl.Desc:
				kind = "order-desc"
			case kind == "order":
				kind = "order-asc"
			}
			seen[kind]++
			if kind == "for" {
				if cl.PosV != "" {
					seen["for-at"]++
				}
				if c, ok := cl.E.(Const); ok {
					switch c.Val.Kind() {
					case adm.KindNull:
						seen["for-null"]++
					case adm.KindBag:
						seen["for-bag"]++
					case adm.KindInt:
						seen["for-non-list"]++
					}
				}
			}
			countForms(cl.E, true, seen)
		}
		countForms(x.Ret, true, seen)
	}
}

// FuzzCompiledEval drives the same differential property from a fuzzed
// seed: the input bytes seed the expression generator, so the corpus
// explores expression shapes rather than raw syntax. The last three
// seeds generate comprehensions nested one, two and three deep.
func FuzzCompiledEval(f *testing.F) {
	f.Add(int64(1), 3)
	f.Add(int64(42), 5)
	f.Add(int64(-7), 2)
	f.Add(int64(113), 5)
	f.Add(int64(1), 5)
	f.Add(int64(11), 4)
	f.Fuzz(func(t *testing.T, seed int64, depth int) {
		if depth < 0 || depth > 6 {
			t.Skip()
		}
		assertSame(t, genExpr(rand.New(rand.NewSource(seed)), depth))
	})
}

// The Eval benchmarks measure the paper's per-tuple cost three ways:
// the interpreter with a per-tuple Env (the pre-refactor shape), the
// interpreter with a reused Env, and the compiled closure.
var benchExpr = F("ge",
	F("similarity-jaccard", F("word-tokens", V(2)), F("word-tokens", CStr("quick brown fox jumps"))),
	C(adm.NewDouble(0.3)))

var benchRow = []adm.Value{adm.NewInt(1), adm.NewString("the quick brown fox jumps over the lazy dog"), adm.NewDouble(0.5)}

func BenchmarkEvalInterpretedNewEnv(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Eval(benchExpr, NewEnv(testCols, benchRow)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalInterpretedReusedEnv(b *testing.B) {
	env := NewEnv(testCols, nil)
	for i := 0; i < b.N; i++ {
		env.Reset(benchRow)
		if _, err := Eval(benchExpr, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalCompiled(b *testing.B) { benchCompiled(b, benchExpr) }

// BenchmarkEvalCompiledComprehension times the engine tests' select
// condition, count(long tokens) >= 2: the interpreter under a compiled
// call, with one Env per evaluation.
func BenchmarkEvalCompiledComprehension(b *testing.B) {
	benchCompiled(b, F("ge", F("count", longTokens), CInt(2)))
}

func benchCompiled(b *testing.B, e Expr) {
	fn, ok := Compile(e, testCols)
	if !ok {
		b.Fatal("Compile declined")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(benchRow); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCompileNilExpr: Compile never declines; a nil Expr, bare or as a
// call argument, compiles to a closure raising Eval's error.
func TestCompileNilExpr(t *testing.T) {
	assertSame(t, nil)
	assertSame(t, F("len", nil))
}
