package optimizer

import (
	"math"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/algebra"
	"simdb/internal/storage"
)

// Shape bits of a generated selection (filterCase.shape).
const (
	shapeEditDistance   = 1 << iota // edit-distance($rec.f, q) instead of jaccard over word-tokens
	shapeStrict                     // > / < instead of >= / <=
	shapeThresholdLeft              // threshold on the left of the comparison
	shapeConstFirst                 // constant side is the function's first argument
	shapeConjunctFront              // $rec.id >= 0 in front of the similarity conjunct
	shapeConjunctBehind             // ... behind it
	shapeLet                        // the per-record side is bound by a let
	shapeNested                     // $rec.f.x instead of $rec.f: no filter
	shapeRaisingFront               // string-length($rec.g) >= 0 in front: may raise, no filter
	shapeDisjunction                // sim or $rec.id = 1: no filter
)

// Field kinds of a generated record (filterCase.kind).
const (
	kindString = iota
	kindMissing
	kindNull
	kindInt
	kindList
	kindRecord
	numKinds
)

// filterCase is one generated (selection, record) pair.
type filterCase struct {
	shape     uint16
	query     string
	threshold float64
	kind      uint8
	field     string
}

// plan builds scan -> [assign] -> select -> assign -> distribute-result
// for the case and optimizes it with the defaults, the way a query
// reaches job generation. It returns the optimized select and its scan.
func (fc filterCase) plan(t *testing.T) (sel, scan *algebra.Op) {
	t.Helper()
	alloc := &algebra.VarAlloc{}
	src := algebra.NewOp(algebra.OpScan)
	src.Dataverse, src.Dataset = "Default", "T"
	src.PKVar, src.RecVar = alloc.New(), alloc.New()
	field := func(name string) algebra.Expr {
		return algebra.F("field-access", algebra.V(src.RecVar), algebra.CStr(name))
	}

	perRecord := field("f")
	if fc.shape&shapeNested != 0 {
		perRecord = algebra.F("field-access", perRecord, algebra.CStr("x"))
	}
	var constant algebra.Expr = algebra.CStr(fc.query)
	fn, cmp := "edit-distance", "le"
	if fc.shape&shapeEditDistance == 0 {
		fn, cmp = "similarity-jaccard", "ge"
		perRecord = algebra.F("word-tokens", perRecord)
		constant = algebra.F("word-tokens", constant)
	}
	var below *algebra.Op = src
	if fc.shape&shapeLet != 0 {
		let := algebra.NewOp(algebra.OpAssign, src)
		let.AssignVars = []algebra.Var{alloc.New()}
		let.AssignExprs = []algebra.Expr{perRecord}
		perRecord, below = algebra.V(let.AssignVars[0]), let
	}
	call := algebra.F(fn, perRecord, constant)
	if fc.shape&shapeConstFirst != 0 {
		call = algebra.F(fn, constant, perRecord)
	}
	if fc.shape&shapeStrict != 0 {
		cmp = map[string]string{"ge": "gt", "le": "lt"}[cmp]
	}
	th := algebra.C(adm.NewDouble(fc.threshold))
	if fc.threshold == math.Trunc(fc.threshold) && math.Abs(fc.threshold) < 1<<52 {
		th = algebra.CInt(int64(fc.threshold))
	}
	conj := algebra.F(cmp, call, th)
	if fc.shape&shapeThresholdLeft != 0 {
		conj = algebra.F(flipCmp(cmp), th, call)
	}
	conjs := []algebra.Expr{conj}
	idOK := algebra.F("ge", field("id"), algebra.CInt(0))
	if fc.shape&shapeDisjunction != 0 {
		conjs[0] = algebra.F("or", conj, algebra.F("eq", field("id"), algebra.CInt(1)))
	}
	if fc.shape&shapeConjunctFront != 0 {
		conjs = append([]algebra.Expr{idOK}, conjs...)
	}
	if fc.shape&shapeRaisingFront != 0 {
		conjs = append([]algebra.Expr{algebra.F("ge", algebra.F("string-length", field("g")), algebra.CInt(0))}, conjs...)
	}
	if fc.shape&shapeConjunctBehind != 0 {
		conjs = append(conjs, idOK)
	}
	sel = algebra.NewOp(algebra.OpSelect, below)
	sel.Cond = algebra.AndAll(conjs)
	ret := algebra.NewOp(algebra.OpAssign, sel)
	ret.AssignVars = []algebra.Var{alloc.New()}
	ret.AssignExprs = []algebra.Expr{field("id")}
	root := algebra.NewOp(algebra.OpWrite, ret)
	root.Var = ret.AssignVars[0]

	o := &Optimizer{Catalog: &testCatalog{datasets: map[string]string{"T": "id"}}, Alloc: alloc, Opts: DefaultOptions()}
	opt, err := o.Optimize(root)
	if err != nil {
		t.Fatal(err)
	}
	sel, scan = nil, nil
	algebra.Walk(opt, func(op *algebra.Op) {
		switch op.Kind {
		case algebra.OpSelect:
			sel = op
		case algebra.OpScan:
			scan = op
		}
	})
	if sel == nil || scan == nil {
		t.Fatalf("optimized plan lost its select or scan:\n%s", algebra.Print(opt))
	}
	return sel, scan
}

// record builds the case's record: id, g (a string) and f by kind.
func (fc filterCase) record() adm.Value {
	rec := adm.EmptyRecord(3)
	rec.Set("id", adm.NewInt(1))
	switch fc.kind % numKinds {
	case kindString:
		rec.Set("f", adm.NewString(fc.field))
	case kindNull:
		rec.Set("f", adm.Null)
	case kindInt:
		rec.Set("f", adm.NewInt(int64(len(fc.field))))
	case kindList:
		rec.Set("f", adm.NewStringList([]string{fc.field, "b"}))
	case kindRecord:
		nested := adm.EmptyRecord(1)
		nested.Set("x", adm.NewString(fc.field))
		rec.Set("f", adm.NewRecord(nested))
	}
	rec.Set("g", adm.NewString("g"))
	return adm.NewRecord(rec)
}

// evalSelect evaluates the select on one (pk, record) tuple the way the
// runtime does: fused assigns in order, extending the row, then the
// condition, all compiled.
func evalSelect(t *testing.T, sel, scan *algebra.Op, rec adm.Value) (truthy bool, err error) {
	t.Helper()
	schema := append([]algebra.Var{scan.PKVar, scan.RecVar}, sel.FusedAssignVars...)
	cols := map[algebra.Var]int{}
	for i, v := range schema {
		cols[v] = i
	}
	row := []adm.Value{adm.NewInt(1), rec}
	for _, e := range append(append([]algebra.Expr(nil), sel.FusedAssignExprs...), sel.Cond) {
		ev, ok := algebra.Compile(e, cols)
		if !ok {
			t.Fatalf("expression does not compile: %s", e)
		}
		v, err := ev(row)
		if err != nil {
			return false, err
		}
		row = append(row, v)
	}
	return algebra.Truthy(row[len(row)-1]), nil
}

// passRecord compiles the filter's record-level form — find the field's
// stored value, then the value check — which judges a memtable entry, a
// row page's entry and a primary-index lookup's record; a columnar scan
// runs the value check alone on the column. Nil for no filter.
func passRecord(f *algebra.RecordFilter) func(rec []byte) bool {
	if f == nil {
		return nil
	}
	return (&storage.RowFilter{Field: f.Field, Pass: f.New()}).PassRecord
}

// checkSound is the property: whenever the compiled filter rejects the
// stored bytes of a record — whole, or projected to what the plan reads
// — the select evaluated on that record is not true and raises nothing.
// It returns the optimized select and scan, and whether the filter
// rejected the record.
func checkSound(t *testing.T, fc filterCase) (sel, scan *algebra.Op, rejected bool) {
	t.Helper()
	sel, scan = fc.plan(t)
	pass := passRecord(scan.Filter)
	if pass == nil {
		return sel, scan, false
	}
	rec := fc.record()
	whole := adm.Encode(rec)
	encodings := [][]byte{whole}
	if partial, ok := adm.DecodeRecordProjected(whole, adm.NewKeepSet(scan.ProjectFields)); ok && scan.ProjectFields != nil {
		encodings = append(encodings, adm.Encode(partial))
	}
	for _, val := range encodings {
		if pass(val) {
			continue
		}
		rejected = true
		truthy, err := evalSelect(t, sel, scan, rec)
		if err != nil || truthy {
			t.Fatalf("filter [%s] rejected %s, on which select (%s) is %v, err %v\ncase %+v", scan.Filter, rec, sel.Cond, truthy, err, fc)
		}
	}
	return sel, scan, rejected
}

var (
	seedFields = []string{"", "one", "Great Product", "great product", "dup dup DUP", "a b c d e", "GREAT, product!",
		"İstanbul ǅemal", "٣ apples ٤٥", "éclair", "ÉCLAIR", "日本語", "ab", "İİ", "\xff\xfe", "marla", "Maria"}
	seedQueries    = []string{"", "great product", "dup dup", "istanbul ǆemal", "٣", "marla", "ab", "éclair"}
	seedThresholds = []float64{0, 1e-9, 0.5, 0.8, 1, 1.5, -1, 2}
)

// TestRecordFilterSoundness walks the seed grid — every field kind,
// string corner case, threshold and comparison the issue lists, under
// every recognized and unrecognized shape — through checkSound. For the
// bare conjunct on a string field the filter is also exact: it passes
// precisely the rows the select keeps.
func TestRecordFilterSoundness(t *testing.T) {
	var filtered, rejected, exact int
	for shape := uint16(0); shape < 1<<10; shape++ {
		// One extra at a time beyond the four comparison bits keeps the
		// grid at a few thousand plans.
		if extras := shape >> 4; extras&(extras-1) != 0 {
			continue
		}
		for qi, query := range seedQueries {
			for ti, th := range seedThresholds {
				// Rotate fields and kinds across the grid instead of
				// crossing them with it.
				for k := uint8(0); k < numKinds; k++ {
					field := seedFields[(int(shape)+qi*7+ti*3+int(k))%len(seedFields)]
					fc := filterCase{shape: shape, query: query, threshold: th, kind: k, field: field}
					sel, scan, r := checkSound(t, fc)
					if scan.Filter == nil {
						continue
					}
					filtered++
					if r {
						rejected++
					}
					if k == kindString && shape>>4 == 0 {
						truthy, err := evalSelect(t, sel, scan, fc.record())
						if pass := passRecord(scan.Filter)(adm.Encode(fc.record())); err != nil || pass != truthy {
							t.Fatalf("filter [%s] passes = %v, select is %v (err %v) on %s", scan.Filter, pass, truthy, err, fc.record())
						}
						exact++
					}
				}
			}
		}
	}
	if filtered == 0 || rejected == 0 || exact == 0 {
		t.Fatalf("vacuous: %d filtered plans, %d rejections, %d exactness checks", filtered, rejected, exact)
	}

	for _, tc := range []struct {
		fc   filterCase
		want string
	}{
		{filterCase{query: "great product", threshold: 0.5}, `similarity-jaccard(word-tokens(f), ["great", "product"]) >= 0.5`},
		{filterCase{shape: shapeEditDistance | shapeStrict, query: "ab", threshold: 1.5}, `edit-distance(f, "ab") <= 1`},
		{filterCase{shape: shapeEditDistance, query: "ab", threshold: 1.5}, `edit-distance(f, "ab") <= 1`},
		{filterCase{shape: shapeEditDistance | shapeStrict, query: "ab", threshold: 0}, `edit-distance(f, "ab") <= -1`},
		{filterCase{shape: shapeLet | shapeConjunctFront | shapeConjunctBehind, query: "a", threshold: 1}, `similarity-jaccard(word-tokens(f), ["a"]) >= 1`},
		{filterCase{query: "a", threshold: 0}, ""},
		{filterCase{shape: shapeNested, query: "a", threshold: 0.5}, ""},
		{filterCase{shape: shapeDisjunction, query: "a", threshold: 0.5}, ""},
		{filterCase{shape: shapeRaisingFront, query: "a", threshold: 0.5}, ""},
	} {
		_, scan := tc.fc.plan(t)
		got := ""
		if scan.Filter != nil {
			got = scan.Filter.String()
		}
		if got != tc.want {
			t.Errorf("case %+v: filter [%s], want [%s]", tc.fc, got, tc.want)
		}
	}
}

// TestRecordFilterRejectsWithoutAllocating pins the point of the
// filter: a rejected row costs no allocation, under both kinds, for an
// ASCII value read whole or projected.
func TestRecordFilterRejectsWithoutAllocating(t *testing.T) {
	for _, fc := range []filterCase{
		{query: "great product fantastic", threshold: 0.5, field: "The best car charger I ever bought"},
		{query: "great product fantastic", threshold: 0.5, field: "great"},
		{shape: shapeEditDistance, query: "marla", threshold: 1, field: "johnny"},
		{shape: shapeEditDistance, query: "marla", threshold: 1, field: "mario"},
	} {
		_, scan := fc.plan(t)
		pass := passRecord(scan.Filter)
		val := adm.Encode(fc.record())
		if pass(val) {
			t.Fatalf("filter [%s] passes %q; the case must be a rejection", scan.Filter, fc.field)
		}
		if n := testing.AllocsPerRun(200, func() { pass(val) }); n != 0 {
			t.Errorf("filter [%s] rejecting %q: %v allocations per row, want 0", scan.Filter, fc.field, n)
		}
	}
}

// FuzzRecordFilter is checkSound over arbitrary field bytes, query
// strings, thresholds, shapes and field kinds.
func FuzzRecordFilter(f *testing.F) {
	for i, field := range seedFields {
		for j, th := range seedThresholds {
			f.Add([]byte(field), seedQueries[(i+j)%len(seedQueries)], th, uint16((i*31+j*7)%(1<<10)), uint8(i+j))
		}
	}
	f.Fuzz(func(t *testing.T, field []byte, query string, threshold float64, shape uint16, kind uint8) {
		checkSound(t, filterCase{shape: shape % (1 << 10), query: query, threshold: threshold, kind: kind, field: string(field)})
	})
}
