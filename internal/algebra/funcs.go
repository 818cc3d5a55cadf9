package algebra

import (
	"fmt"
	"sort"
	"strings"

	"simdb/internal/adm"
	"simdb/internal/sim"
	"simdb/internal/tokenizer"
)

// Builtin is a scalar function over ADM values.
type Builtin func(args []adm.Value) (adm.Value, error)

// builtins is the function registry. The names match AsterixDB's AQL
// built-ins wherever the paper uses them (word-tokens,
// similarity-jaccard, prefix-len-jaccard, subset-collection, …).
var builtins = map[string]Builtin{}

// RegisterBuiltin installs a function; it panics on duplicates and is
// meant to be called from init or test setup.
func RegisterBuiltin(name string, fn Builtin) {
	if _, dup := builtins[name]; dup {
		panic("algebra: duplicate builtin " + name)
	}
	builtins[name] = fn
}

// LookupBuiltin returns the registered function.
func LookupBuiltin(name string) (Builtin, bool) {
	fn, ok := builtins[name]
	return fn, ok
}

func init() {
	for name, fn := range map[string]Builtin{
		"eq":  cmpFn(func(c int) bool { return c == 0 }),
		"neq": cmpFn(func(c int) bool { return c != 0 }),
		"lt":  cmpFn(func(c int) bool { return c < 0 }),
		"le":  cmpFn(func(c int) bool { return c <= 0 }),
		"gt":  cmpFn(func(c int) bool { return c > 0 }),
		"ge":  cmpFn(func(c int) bool { return c >= 0 }),

		"add": arith(func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b }),
		"sub": arith(func(a, b int64) int64 { return a - b }, func(a, b float64) float64 { return a - b }),
		"mul": arith(func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b }),
		"div": fnDiv,
		"mod": fnMod,
		"neg": fnNeg,

		"hinted":       fnHinted,
		"field-access": fnFieldAccess,
		"index-access": fnIndexAccess,
		"record":       fnRecord,
		"list":         fnList,

		"len":           fnLen,
		"count":         listAgg(func(elems []adm.Value) (adm.Value, error) { return adm.NewInt(int64(len(elems))), nil }),
		"sum":           listAgg(fnSumList),
		"min":           listAgg(fnMinList),
		"max":           listAgg(fnMaxList),
		"avg":           listAgg(fnAvgList),
		"sorted":        listAgg(fnSortedList),
		"is-null":       fnIsNull,
		"not":           fnNot,
		"lowercase":     fnLowercase,
		"contains":      fnContains,
		"string-length": fnStringLength,

		"word-tokens":         fnWordTokens,
		"gram-tokens":         fnGramTokens,
		"counted-word-tokens": fnCountedWordTokens,
		"counted-tokens":      fnCountedTokens,

		"edit-distance":              fnEditDistance,
		"edit-distance-check":        fnEditDistanceCheck,
		"edit-distance-contains":     fnEditDistanceContains,
		"similarity-jaccard":         fnJaccard,
		"similarity-jaccard-check":   fnJaccardCheck,
		"similarity-dice":            fnDice,
		"similarity-cosine":          fnCosine,
		"hamming-distance":           fnHamming,
		"jaro-winkler":               fnJaroWinkler,
		"prefix-len-jaccard":         fnPrefixLenJaccard,
		"subset-collection":          fnSubsetCollection,
		"t-occurrence-jaccard":       fnTOccurrenceJaccard,
		"t-occurrence-edit-distance": fnTOccurrenceED,
	} {
		RegisterBuiltin(name, fn)
	}
}

func need(args []adm.Value, n int, name string) error {
	if len(args) != n {
		return fmt.Errorf("%s: want %d arguments, got %d", name, n, len(args))
	}
	return nil
}

func cmpFn(ok func(int) bool) Builtin {
	return func(args []adm.Value) (adm.Value, error) {
		if err := need(args, 2, "comparison"); err != nil {
			return adm.Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return adm.Null, nil
		}
		return adm.NewBool(ok(adm.Compare(args[0], args[1]))), nil
	}
}

func arith(fi func(a, b int64) int64, ff func(a, b float64) float64) Builtin {
	return func(args []adm.Value) (adm.Value, error) {
		if err := need(args, 2, "arithmetic"); err != nil {
			return adm.Null, err
		}
		a, b := args[0], args[1]
		if a.IsNull() || b.IsNull() {
			return adm.Null, nil
		}
		if a.Kind() == adm.KindInt && b.Kind() == adm.KindInt {
			return adm.NewInt(fi(a.Int(), b.Int())), nil
		}
		fa, ok1 := a.Num()
		fb, ok2 := b.Num()
		if !ok1 || !ok2 {
			return adm.Null, fmt.Errorf("arithmetic on non-numeric %v, %v", a.Kind(), b.Kind())
		}
		return adm.NewDouble(ff(fa, fb)), nil
	}
}

func fnDiv(args []adm.Value) (adm.Value, error) {
	if err := need(args, 2, "div"); err != nil {
		return adm.Null, err
	}
	if args[0].IsNull() || args[1].IsNull() {
		return adm.Null, nil
	}
	fa, ok1 := args[0].Num()
	fb, ok2 := args[1].Num()
	if !ok1 || !ok2 {
		return adm.Null, fmt.Errorf("div on non-numeric values")
	}
	if fb == 0 {
		return adm.Null, fmt.Errorf("division by zero")
	}
	return adm.NewDouble(fa / fb), nil
}

func fnMod(args []adm.Value) (adm.Value, error) {
	if err := need(args, 2, "mod"); err != nil {
		return adm.Null, err
	}
	if args[0].Kind() != adm.KindInt || args[1].Kind() != adm.KindInt {
		return adm.Null, fmt.Errorf("mod needs integers")
	}
	if args[1].Int() == 0 {
		return adm.Null, fmt.Errorf("mod by zero")
	}
	return adm.NewInt(args[0].Int() % args[1].Int()), nil
}

func fnNeg(args []adm.Value) (adm.Value, error) {
	if err := need(args, 1, "neg"); err != nil {
		return adm.Null, err
	}
	switch args[0].Kind() {
	case adm.KindInt:
		return adm.NewInt(-args[0].Int()), nil
	case adm.KindDouble:
		return adm.NewDouble(-args[0].Double()), nil
	case adm.KindNull:
		return adm.Null, nil
	}
	return adm.Null, fmt.Errorf("neg on %v", args[0].Kind())
}

// fnHinted is the identity wrapper carrying a compiler hint: the first
// argument is the hint name, the second the wrapped expression. The
// optimizer inspects these; at run time the hint is transparent.
func fnHinted(args []adm.Value) (adm.Value, error) {
	if err := need(args, 2, "hinted"); err != nil {
		return adm.Null, err
	}
	return args[1], nil
}

// fnFieldAccess implements open-record field access: missing fields and
// non-record inputs yield null rather than errors, the NoSQL behavior
// the paper's schemaless datasets depend on.
func fnFieldAccess(args []adm.Value) (adm.Value, error) {
	if err := need(args, 2, "field-access"); err != nil {
		return adm.Null, err
	}
	if args[0].Kind() != adm.KindRecord || args[1].Kind() != adm.KindString {
		return adm.Null, nil
	}
	v, _ := args[0].Rec().Get(args[1].Str())
	return v, nil
}

func fnIndexAccess(args []adm.Value) (adm.Value, error) {
	if err := need(args, 2, "index-access"); err != nil {
		return adm.Null, err
	}
	if args[1].Kind() != adm.KindInt {
		return adm.Null, nil
	}
	k := args[0].Kind()
	if k != adm.KindList && k != adm.KindBag {
		return adm.Null, nil
	}
	i := args[1].Int()
	elems := args[0].Elems()
	if i < 0 || i >= int64(len(elems)) {
		return adm.Null, nil
	}
	return elems[i], nil
}

// fnRecord builds a record from alternating name/value arguments.
func fnRecord(args []adm.Value) (adm.Value, error) {
	if len(args)%2 != 0 {
		return adm.Null, fmt.Errorf("record: odd argument count")
	}
	rec := adm.EmptyRecord(len(args) / 2)
	for i := 0; i < len(args); i += 2 {
		if args[i].Kind() != adm.KindString {
			return adm.Null, fmt.Errorf("record: field name must be a string")
		}
		rec.Set(args[i].Str(), args[i+1])
	}
	return adm.NewRecord(rec), nil
}

func fnList(args []adm.Value) (adm.Value, error) {
	return adm.NewList(append([]adm.Value(nil), args...)), nil
}

// fnLen returns the length of a string (in runes) or a list.
func fnLen(args []adm.Value) (adm.Value, error) {
	if err := need(args, 1, "len"); err != nil {
		return adm.Null, err
	}
	switch args[0].Kind() {
	case adm.KindString:
		n := 0
		for range args[0].Str() {
			n++
		}
		return adm.NewInt(int64(n)), nil
	case adm.KindList, adm.KindBag:
		return adm.NewInt(int64(len(args[0].Elems()))), nil
	case adm.KindNull:
		return adm.Null, nil
	}
	return adm.Null, fmt.Errorf("len on %v", args[0].Kind())
}

func listAgg(fn func([]adm.Value) (adm.Value, error)) Builtin {
	return func(args []adm.Value) (adm.Value, error) {
		if err := need(args, 1, "list aggregate"); err != nil {
			return adm.Null, err
		}
		switch args[0].Kind() {
		case adm.KindList, adm.KindBag:
			return fn(args[0].Elems())
		case adm.KindNull:
			return adm.Null, nil
		}
		return adm.Null, fmt.Errorf("aggregate over %v", args[0].Kind())
	}
}

func fnSumList(elems []adm.Value) (adm.Value, error) {
	allInt := true
	var si int64
	var sf float64
	for _, e := range elems {
		f, ok := e.Num()
		if !ok {
			return adm.Null, fmt.Errorf("sum over non-numeric element %v", e.Kind())
		}
		sf += f
		if e.Kind() == adm.KindInt {
			si += e.Int()
		} else {
			allInt = false
		}
	}
	if allInt {
		return adm.NewInt(si), nil
	}
	return adm.NewDouble(sf), nil
}

func fnMinList(elems []adm.Value) (adm.Value, error) {
	if len(elems) == 0 {
		return adm.Null, nil
	}
	m := elems[0]
	for _, e := range elems[1:] {
		if adm.Less(e, m) {
			m = e
		}
	}
	return m, nil
}

func fnMaxList(elems []adm.Value) (adm.Value, error) {
	if len(elems) == 0 {
		return adm.Null, nil
	}
	m := elems[0]
	for _, e := range elems[1:] {
		if adm.Less(m, e) {
			m = e
		}
	}
	return m, nil
}

func fnAvgList(elems []adm.Value) (adm.Value, error) {
	if len(elems) == 0 {
		return adm.Null, nil
	}
	var s float64
	for _, e := range elems {
		f, ok := e.Num()
		if !ok {
			return adm.Null, fmt.Errorf("avg over non-numeric element")
		}
		s += f
	}
	return adm.NewDouble(s / float64(len(elems))), nil
}

func fnSortedList(elems []adm.Value) (adm.Value, error) {
	cp := append([]adm.Value(nil), elems...)
	sort.SliceStable(cp, func(i, j int) bool { return adm.Less(cp[i], cp[j]) })
	return adm.NewList(cp), nil
}

func fnIsNull(args []adm.Value) (adm.Value, error) {
	if err := need(args, 1, "is-null"); err != nil {
		return adm.Null, err
	}
	return adm.NewBool(args[0].IsNull()), nil
}

func fnNot(args []adm.Value) (adm.Value, error) {
	if err := need(args, 1, "not"); err != nil {
		return adm.Null, err
	}
	if args[0].IsNull() {
		return adm.Null, nil
	}
	if args[0].Kind() != adm.KindBool {
		return adm.Null, fmt.Errorf("not on %v", args[0].Kind())
	}
	return adm.NewBool(!args[0].Bool()), nil
}

func fnLowercase(args []adm.Value) (adm.Value, error) {
	if err := need(args, 1, "lowercase"); err != nil {
		return adm.Null, err
	}
	if args[0].Kind() != adm.KindString {
		return adm.Null, nil
	}
	return adm.NewString(strings.ToLower(args[0].Str())), nil
}

func fnContains(args []adm.Value) (adm.Value, error) {
	if err := need(args, 2, "contains"); err != nil {
		return adm.Null, err
	}
	if args[0].Kind() != adm.KindString || args[1].Kind() != adm.KindString {
		return adm.Null, nil
	}
	return adm.NewBool(strings.Contains(args[0].Str(), args[1].Str())), nil
}

func fnStringLength(args []adm.Value) (adm.Value, error) {
	return fnLen(args)
}

func fnWordTokens(args []adm.Value) (adm.Value, error) {
	if err := need(args, 1, "word-tokens"); err != nil {
		return adm.Null, err
	}
	switch args[0].Kind() {
	case adm.KindString:
		return adm.NewStringList(tokenizer.WordTokens(args[0].Str())), nil
	case adm.KindList, adm.KindBag:
		// Already a token list: pass through, per the paper's datasets
		// whose fields may be pre-tokenized arrays.
		return args[0], nil
	case adm.KindNull:
		return adm.Null, nil
	}
	return adm.Null, fmt.Errorf("word-tokens on %v", args[0].Kind())
}

// fnGramTokens is gram-tokens(s, n [, pad=true]).
func fnGramTokens(args []adm.Value) (adm.Value, error) {
	if len(args) != 2 && len(args) != 3 {
		return adm.Null, fmt.Errorf("gram-tokens: want 2 or 3 arguments")
	}
	if args[0].IsNull() {
		return adm.Null, nil
	}
	if args[0].Kind() != adm.KindString || args[1].Kind() != adm.KindInt {
		return adm.Null, fmt.Errorf("gram-tokens(string, int)")
	}
	pad := true
	if len(args) == 3 {
		if args[2].Kind() != adm.KindBool {
			return adm.Null, fmt.Errorf("gram-tokens third argument must be boolean")
		}
		pad = args[2].Bool()
	}
	return adm.NewStringList(tokenizer.GramTokens(args[0].Str(), int(args[1].Int()), pad)), nil
}

// fnCountedTokens converts a token multiset into counted-token form
// ("the" twice becomes "the#1", "the#2"), turning multiset similarity
// into set similarity. Inverted-index probes use this so the
// T-occurrence bound stays sound for fields with repeated tokens.
func fnCountedTokens(args []adm.Value) (adm.Value, error) {
	if err := need(args, 1, "counted-tokens"); err != nil {
		return adm.Null, err
	}
	if args[0].IsNull() {
		return adm.Null, nil
	}
	toks, ok := TokensOf(args[0])
	if !ok {
		return adm.Null, fmt.Errorf("counted-tokens on %v", args[0].Kind())
	}
	counted := tokenizer.CountTokens(toks)
	out := make([]adm.Value, len(counted))
	for i, c := range counted {
		out[i] = adm.NewString(fmt.Sprintf("%s#%d", c.Token, c.Count))
	}
	return adm.NewList(out), nil
}

func fnCountedWordTokens(args []adm.Value) (adm.Value, error) {
	if err := need(args, 1, "counted-word-tokens"); err != nil {
		return adm.Null, err
	}
	if args[0].Kind() != adm.KindString {
		return adm.Null, nil
	}
	counted := tokenizer.CountTokens(tokenizer.WordTokens(args[0].Str()))
	out := make([]adm.Value, len(counted))
	for i, c := range counted {
		out[i] = adm.NewString(fmt.Sprintf("%s#%d", c.Token, c.Count))
	}
	return adm.NewList(out), nil
}

// seqOf converts a string or list argument into an element sequence for
// the generalized (ordered-list) edit distance.
func seqOf(v adm.Value) ([]string, bool) {
	switch v.Kind() {
	case adm.KindString:
		rs := []rune(v.Str())
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = string(r)
		}
		return out, true
	case adm.KindList:
		elems := v.Elems()
		out := make([]string, len(elems))
		for i, e := range elems {
			out[i] = string(adm.Encode(e))
		}
		return out, true
	}
	return nil, false
}

func fnEditDistance(args []adm.Value) (adm.Value, error) {
	if err := need(args, 2, "edit-distance"); err != nil {
		return adm.Null, err
	}
	if args[0].IsNull() || args[1].IsNull() {
		return adm.Null, nil
	}
	// Fast path for two strings.
	if args[0].Kind() == adm.KindString && args[1].Kind() == adm.KindString {
		return adm.NewInt(int64(sim.EditDistance(args[0].Str(), args[1].Str()))), nil
	}
	a, ok1 := seqOf(args[0])
	b, ok2 := seqOf(args[1])
	if !ok1 || !ok2 {
		return adm.Null, fmt.Errorf("edit-distance on %v, %v", args[0].Kind(), args[1].Kind())
	}
	return adm.NewInt(int64(sim.EditDistanceSeq(a, b))), nil
}

func fnEditDistanceCheck(args []adm.Value) (adm.Value, error) {
	if err := need(args, 3, "edit-distance-check"); err != nil {
		return adm.Null, err
	}
	if args[0].IsNull() || args[1].IsNull() {
		return adm.Null, nil
	}
	if args[2].Kind() != adm.KindInt {
		return adm.Null, fmt.Errorf("edit-distance-check threshold must be int")
	}
	k := int(args[2].Int())
	if args[0].Kind() == adm.KindString && args[1].Kind() == adm.KindString {
		_, ok := sim.EditDistanceCheck(args[0].Str(), args[1].Str(), k)
		return adm.NewBool(ok), nil
	}
	a, ok1 := seqOf(args[0])
	b, ok2 := seqOf(args[1])
	if !ok1 || !ok2 {
		return adm.Null, fmt.Errorf("edit-distance-check on %v, %v", args[0].Kind(), args[1].Kind())
	}
	_, ok := sim.EditDistanceCheckSeq(a, b, k)
	return adm.NewBool(ok), nil
}

// fnEditDistanceContains reports whether some substring of the first
// argument is within the edit-distance threshold of the second — the
// semantics behind AsterixDB's contains() on n-gram indexes.
func fnEditDistanceContains(args []adm.Value) (adm.Value, error) {
	if err := need(args, 3, "edit-distance-contains"); err != nil {
		return adm.Null, err
	}
	if args[0].Kind() != adm.KindString || args[1].Kind() != adm.KindString || args[2].Kind() != adm.KindInt {
		return adm.Null, nil
	}
	hay := []rune(args[0].Str())
	needle := args[1].Str()
	k := int(args[2].Int())
	nl := len([]rune(needle))
	for l := nl - k; l <= nl+k; l++ {
		if l <= 0 || l > len(hay) {
			continue
		}
		for i := 0; i+l <= len(hay); i++ {
			if _, ok := sim.EditDistanceCheck(string(hay[i:i+l]), needle, k); ok {
				return adm.NewBool(true), nil
			}
		}
	}
	return adm.NewBool(false), nil
}

// TokensOf is the one token-list coercion: a list or bag of values
// becomes string tokens, a string element its text and any other
// element its adm encoding. The similarity builtins, the optimizer's
// constant folding, keyword-index maintenance and the index search all
// coerce through it, so the tokens an index holds are the tokens a
// query looks up and the tokens a scan compares.
func TokensOf(v adm.Value) ([]string, bool) {
	switch v.Kind() {
	case adm.KindList, adm.KindBag:
		elems := v.Elems()
		out := make([]string, len(elems))
		for i, e := range elems {
			if e.Kind() == adm.KindString {
				out[i] = e.Str()
			} else {
				out[i] = string(adm.Encode(e))
			}
		}
		return out, true
	}
	return nil, false
}

func fnJaccard(args []adm.Value) (adm.Value, error) {
	if err := need(args, 2, "similarity-jaccard"); err != nil {
		return adm.Null, err
	}
	if args[0].IsNull() || args[1].IsNull() {
		return adm.Null, nil
	}
	a, ok1 := TokensOf(args[0])
	b, ok2 := TokensOf(args[1])
	if !ok1 || !ok2 {
		return adm.Null, fmt.Errorf("similarity-jaccard on %v, %v", args[0].Kind(), args[1].Kind())
	}
	return adm.NewDouble(sim.Jaccard(a, b)), nil
}

func fnJaccardCheck(args []adm.Value) (adm.Value, error) {
	if err := need(args, 3, "similarity-jaccard-check"); err != nil {
		return adm.Null, err
	}
	if args[0].IsNull() || args[1].IsNull() {
		return adm.Null, nil
	}
	a, ok1 := TokensOf(args[0])
	b, ok2 := TokensOf(args[1])
	d, okd := args[2].Num()
	if !ok1 || !ok2 || !okd {
		return adm.Null, fmt.Errorf("similarity-jaccard-check(list, list, double)")
	}
	s, ok := sim.JaccardCheck(a, b, d)
	if !ok {
		// AsterixDB returns [false, 0]; we return the similarity-or-null
		// shape: null when below threshold, similarity otherwise.
		return adm.Null, nil
	}
	return adm.NewDouble(s), nil
}

func setSim(name string, f func(a, b []string) float64) Builtin {
	return func(args []adm.Value) (adm.Value, error) {
		if err := need(args, 2, name); err != nil {
			return adm.Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return adm.Null, nil
		}
		a, ok1 := TokensOf(args[0])
		b, ok2 := TokensOf(args[1])
		if !ok1 || !ok2 {
			return adm.Null, fmt.Errorf("%s on %v, %v", name, args[0].Kind(), args[1].Kind())
		}
		return adm.NewDouble(f(a, b)), nil
	}
}

var (
	fnDice   = setSim("similarity-dice", sim.Dice)
	fnCosine = setSim("similarity-cosine", sim.Cosine)
)

func fnHamming(args []adm.Value) (adm.Value, error) {
	if err := need(args, 2, "hamming-distance"); err != nil {
		return adm.Null, err
	}
	if args[0].Kind() != adm.KindString || args[1].Kind() != adm.KindString {
		return adm.Null, nil
	}
	return adm.NewInt(int64(sim.HammingDistance(args[0].Str(), args[1].Str()))), nil
}

func fnJaroWinkler(args []adm.Value) (adm.Value, error) {
	if err := need(args, 2, "jaro-winkler"); err != nil {
		return adm.Null, err
	}
	if args[0].Kind() != adm.KindString || args[1].Kind() != adm.KindString {
		return adm.Null, nil
	}
	return adm.NewDouble(sim.JaroWinklerSimilarity(args[0].Str(), args[1].Str())), nil
}

func fnPrefixLenJaccard(args []adm.Value) (adm.Value, error) {
	if err := need(args, 2, "prefix-len-jaccard"); err != nil {
		return adm.Null, err
	}
	l, ok1 := args[0].Num()
	d, ok2 := args[1].Num()
	if !ok1 || !ok2 {
		return adm.Null, fmt.Errorf("prefix-len-jaccard(int, double)")
	}
	return adm.NewInt(int64(sim.PrefixLenJaccard(int(l), d))), nil
}

// fnTOccurrenceJaccard computes the occurrence lower bound for an
// index probe: t-occurrence-jaccard(queryTokenCount, delta).
func fnTOccurrenceJaccard(args []adm.Value) (adm.Value, error) {
	if err := need(args, 2, "t-occurrence-jaccard"); err != nil {
		return adm.Null, err
	}
	l, ok1 := args[0].Num()
	d, ok2 := args[1].Num()
	if !ok1 || !ok2 {
		return adm.Null, fmt.Errorf("t-occurrence-jaccard(int, double)")
	}
	return adm.NewInt(int64(sim.TOccurrenceJaccard(int(l), d))), nil
}

// fnTOccurrenceED computes the n-gram occurrence bound
// t-occurrence-edit-distance(gramCount, k, n) = gramCount - k*n, which
// may be <= 0 (the corner case).
func fnTOccurrenceED(args []adm.Value) (adm.Value, error) {
	if err := need(args, 3, "t-occurrence-edit-distance"); err != nil {
		return adm.Null, err
	}
	g, ok1 := args[0].Num()
	k, ok2 := args[1].Num()
	n, ok3 := args[2].Num()
	if !ok1 || !ok2 || !ok3 {
		return adm.Null, fmt.Errorf("t-occurrence-edit-distance(int, int, int)")
	}
	return adm.NewInt(int64(sim.TOccurrenceEditDistance(int(g), int(k), int(n)))), nil
}

func fnSubsetCollection(args []adm.Value) (adm.Value, error) {
	if err := need(args, 3, "subset-collection"); err != nil {
		return adm.Null, err
	}
	if args[0].IsNull() {
		return adm.Null, nil
	}
	k := args[0].Kind()
	if k != adm.KindList && k != adm.KindBag {
		return adm.Null, fmt.Errorf("subset-collection on %v", k)
	}
	start, ok1 := args[1].Num()
	count, ok2 := args[2].Num()
	if !ok1 || !ok2 {
		return adm.Null, fmt.Errorf("subset-collection(list, int, int)")
	}
	elems := args[0].Elems()
	s := int(start)
	e := s + int(count)
	if s < 0 {
		s = 0
	}
	if e > len(elems) {
		e = len(elems)
	}
	if s >= e {
		return adm.NewList(nil), nil
	}
	return adm.NewList(elems[s:e]), nil
}
