package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"simdb/benchmark/gen"
	"simdb/internal/adm"
	"simdb/internal/algebra"
	"simdb/internal/hyracks"
)

// keyRangeBound is one constant a key-range conjunct compares the key
// with: its AQL text and its value.
type keyRangeBound struct {
	aql string
	val adm.Value
}

// keyRangeBounds mixes kinds: ints, doubles, strings, null, NaN (AQL has
// no NaN literal; +Inf - +Inf folds to one) and ints beyond 2^53, where
// two keys share a float64 image.
func keyRangeBounds() []keyRangeBound {
	big := "1" + strings.Repeat("0", 200) + ".0"
	inf := big + " * " + big
	out := []keyRangeBound{
		{"null", adm.Null},
		{"(" + inf + " - " + inf + ")", adm.NewDouble(math.NaN())},
		{"-(" + inf + ")", adm.NewDouble(math.Inf(-1))},
		{"9007199254740992", adm.NewInt(1 << 53)},
		{"9007199254740993", adm.NewInt(1<<53 + 1)},
		{"-9007199254740993", adm.NewInt(-(1<<53 + 1))},
		{"''", adm.NewString("")},
		{"'k'", adm.NewString("k")},
		{"'key-07'", adm.NewString("key-07")},
		{"'zz'", adm.NewString("zz")},
	}
	for _, i := range []int64{-3, 0, 1, 7, 12, 19, 20, 33, 40, 41} {
		out = append(out, keyRangeBound{fmt.Sprint(i), adm.NewInt(i)})
	}
	for _, f := range []string{"-0.5", "2.5", "7.0", "19.75", "40.5"} {
		var v float64
		fmt.Sscan(f, &v)
		out = append(out, keyRangeBound{f, adm.NewDouble(v)})
	}
	return out
}

// loadKeyRangeData fills dataset K with keys of every scalar kind spread
// over two flushed components, tombstones in a component and in the
// memtable, overwrites, and records only in the memtable.
func loadKeyRangeData(t *testing.T, c *Cluster) {
	t.Helper()
	exec(t, c, NewSession(), `create dataset K primary key id;`)
	rec := func(id adm.Value, tag string) adm.Value {
		r := adm.EmptyRecord(2)
		r.Set("id", id)
		r.Set("tag", adm.NewString(tag))
		return adm.NewRecord(r)
	}
	insert := func(tag string, ids ...adm.Value) {
		var batch []adm.Value
		for _, id := range ids {
			batch = append(batch, rec(id, tag))
		}
		if err := c.InsertBatch("Default", "K", batch); err != nil {
			t.Fatal(err)
		}
	}
	del := func(ids ...adm.Value) {
		for _, id := range ids {
			part := c.partitionOfPK(id)
			tree, err := c.nodeOfPartition(part).primary("Default", "K", part)
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.Delete(adm.OrderedKey(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush := func() {
		if err := c.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	var ints, doubles, strs []adm.Value
	for i := int64(-5); i <= 45; i++ {
		ints = append(ints, adm.NewInt(i))
	}
	for _, f := range []float64{-2.5, 0.5, 2.5, 7.25, 19.75, 40.5, math.Inf(1), math.Inf(-1), math.NaN()} {
		doubles = append(doubles, adm.NewDouble(f))
	}
	for i := 0; i < 12; i++ {
		strs = append(strs, adm.NewString(fmt.Sprintf("key-%02d", i)))
	}
	strs = append(strs, adm.NewString(""), adm.NewString("k"), adm.NewString("zz"))
	// 2^53 + 1 shares 2^53's ordered key and overwrites it (ROADMAP
	// item 19), so the stored record is 2^53 + 1: a strict lower end at
	// 2^53 must still read it.
	beyond := []adm.Value{adm.NewInt(1 << 53), adm.NewInt(1<<53 + 1), adm.NewInt(1<<53 + 3), adm.NewInt(-(1<<53 + 1))}

	insert("c1", ints[:30]...)
	insert("c1", doubles...)
	flush()
	insert("c2", ints[30:]...)
	insert("c2", strs...)
	insert("c2", ints[5:10]...) // overwrites of the first component
	flush()
	del(ints[12], ints[20], strs[3], doubles[2])
	flush()
	del(ints[25], ints[40], strs[7]) // tombstones in the memtable
	insert("mem", beyond...)
	insert("mem", ints[20], adm.NewInt(100), adm.NewString("key-03x"))
}

// keyRangeRows sorts a result's ids in key order.
func keyRangeRows(rows []adm.Value) string {
	sorted := append([]adm.Value(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return adm.Compare(sorted[i], sorted[j]) < 0 })
	return fmt.Sprint(sorted)
}

// TestKeyRangeScanAgreesWithFullScan is the property: over random
// intervals — open, closed, empty, eq, bounds of every kind in either
// argument order — a query whose select puts a key range on its scan
// returns what the full scan filtered by the same conjuncts returns, on
// keys in components, in the memtable, behind tombstones and overwrites.
func TestKeyRangeScanAgreesWithFullScan(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	loadKeyRangeData(t, c)
	all := exec(t, c, NewSession(), `for $r in dataset K return $r.id`).Rows
	bounds := keyRangeBounds()
	cmps := []string{"eq", "ge", "gt", "le", "lt"}
	sym := map[string]string{"eq": "=", "ge": ">=", "gt": ">", "le": "<=", "lt": "<"}
	rng := rand.New(rand.NewSource(52))
	env := algebra.NewEnv(map[algebra.Var]int{}, nil)
	var ranged, narrowed int
	for q := 0; q < 300; q++ {
		var aql []string
		var conds []algebra.Call // each with the key's slot left nil
		for n := 1 + rng.Intn(3); n > 0; n-- {
			b, cmp := bounds[rng.Intn(len(bounds))], cmps[rng.Intn(len(cmps))]
			if rng.Intn(2) == 0 {
				aql = append(aql, fmt.Sprintf("$r.id %s %s", sym[cmp], b.aql))
			} else {
				aql = append(aql, fmt.Sprintf("%s %s $r.id", b.aql, sym[flipSym(cmp)]))
			}
			conds = append(conds, algebra.Call{Fn: cmp, Args: []algebra.Expr{nil, algebra.C(b.val)}})
		}
		src := "for $r in dataset K where " + strings.Join(aql, " and ") + " return $r.id"
		var want []adm.Value
		for _, id := range all {
			keep := true
			for _, cond := range conds {
				v, err := algebra.Eval(algebra.Call{Fn: cond.Fn, Args: []algebra.Expr{algebra.C(id), cond.Args[1]}}, env)
				if err != nil {
					t.Fatal(err)
				}
				keep = keep && v.Kind() == adm.KindBool && v.Bool()
			}
			if keep {
				want = append(want, id)
			}
		}
		res := exec(t, c, NewSession(), "explain analyze "+src)
		report := rowsText(res)
		if !strings.Contains(report, " range:") {
			t.Fatalf("%s: the scan carries no range:\n%s", src, report)
		}
		ranged++
		got := exec(t, c, NewSession(), src)
		if keyRangeRows(got.Rows) != keyRangeRows(want) {
			t.Errorf("%s:\n range scan %s\n full scan  %s", src, keyRangeRows(got.Rows), keyRangeRows(want))
		}
		for _, row := range parseOpTable(t, report) {
			if hasStage(row.name, "DataScan(K)") && row.in < int64(len(all)) {
				narrowed++
			}
		}
	}
	if narrowed < ranged/2 {
		t.Errorf("only %d of %d ranged scans read fewer than all %d records", narrowed, ranged, len(all))
	}
}

func flipSym(cmp string) string {
	switch cmp {
	case "ge":
		return "le"
	case "gt":
		return "lt"
	case "le":
		return "ge"
	case "lt":
		return "gt"
	}
	return cmp
}

// TestKeyRangeScanReadsOnlyItsRange: explain prints the interval in
// values, and the scan emits exactly the stored keys of the closed
// interval over the same ends, whatever their strictness.
func TestKeyRangeScanReadsOnlyItsRange(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	loadKeyRangeData(t, c)
	all := exec(t, c, NewSession(), `for $r in dataset K return $r.id`).Rows
	i, s := adm.NewInt, adm.NewString
	for _, tc := range []struct {
		where, rng string
		lo, hi     *adm.Value
	}{
		{"$r.id >= 3 and $r.id < 7", "range:[3, 7)", ptr(i(3)), ptr(i(7))},
		{"$r.id > 3 and 7.25 >= $r.id", "range:(3, 7.25]", ptr(i(3)), ptr(adm.NewDouble(7.25))},
		{"$r.id = 'key-05'", `range:["key-05", "key-05"]`, ptr(s("key-05")), ptr(s("key-05"))},
		{"$r.id >= 'key-10' and $r.id <= 'zz'", `range:["key-10", "zz"]`, ptr(s("key-10")), ptr(s("zz"))},
		{"$r.id > 20 and $r.id < 10", "range:(20, 10)", ptr(i(20)), ptr(i(10))},
		{"$r.id > 9007199254740992", "range:(9007199254740992, +inf)", ptr(i(1 << 53)), nil},
		{"$r.id < -3 and $r.id >= null", "range:[null, -3)", ptr(adm.Null), ptr(i(-3))},
	} {
		var want int64
		for _, id := range all {
			k := string(adm.OrderedKey(id))
			if (tc.lo == nil || k >= string(adm.OrderedKey(*tc.lo))) && (tc.hi == nil || k <= string(adm.OrderedKey(*tc.hi))) {
				want++
			}
		}
		q := "for $r in dataset K where " + tc.where + " return $r.id"
		report := rowsText(exec(t, c, NewSession(), "explain analyze "+q))
		if !strings.Contains(report, " "+tc.rng+"\n") {
			t.Errorf("%s: explain shows no %s:\n%s", tc.where, tc.rng, report)
		}
		scans := 0
		for _, row := range parseOpTable(t, report) {
			if hasStage(row.name, "DataScan(K)") {
				scans++
				if row.in != want {
					t.Errorf("%s: the scan reads %d keys, want %d", tc.where, row.in, want)
				}
			}
		}
		if scans != 1 {
			t.Errorf("%s: %d DataScan(K) rows, want 1:\n%s", tc.where, scans, report)
		}
	}
}

func ptr(v adm.Value) *adm.Value { return &v }

// TestKeyRangeSkipsNoError: a conjunct that can raise ahead of the range
// conjuncts disables the range, so the row outside the range that
// raises (key 100 divides by zero, a string key is no number) still
// fails the query; behind them, the range applies and the
// rows it skips are rows the select rejects before reaching it.
func TestKeyRangeSkipsNoError(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	loadKeyRangeData(t, c)
	ahead := `for $r in dataset K where 10 / ($r.id - 100) < 1 and $r.id >= 0 and $r.id < 5 return $r.id`
	if plan := rowsText(exec(t, c, NewSession(), "explain "+ahead)); strings.Contains(plan, "range:") {
		t.Errorf("a raising conjunct ahead of the range still leaves a range:\n%s", plan)
	}
	_, err := c.Execute(context.Background(), NewSession(), ahead)
	if err == nil {
		t.Errorf("the raising conjunct's error does not surface")
	}
	behind := `for $r in dataset K where $r.id >= 0 and $r.id < 5 and 10 / ($r.id - 100) < 1 return $r.id`
	if plan := rowsText(exec(t, c, NewSession(), "explain "+behind)); !strings.Contains(plan, "range:[0, 5)") {
		t.Errorf("range conjuncts ahead of a raising one give no range:[0, 5):\n%s", plan)
	}
	if got := keyRangeRows(exec(t, c, NewSession(), behind).Rows); got != "[0 0.5 1 2 3 4]" {
		t.Errorf("rows %s, want [0 0.5 1 2 3 4]", got)
	}
}

// BenchmarkScanPartitionRange times one partition's scan of the
// benchmark join's records (1 000 on four partitions, the join's two
// projected fields): the whole partition; the join's ten-key outer
// range, which every hash partition still opens a cursor for; and a
// range past the last key, the fixed cost of that cursor. rows/op is
// what the partition emits.
func BenchmarkScanPartitionRange(b *testing.B) {
	c, _, _ := loadBenchJoin(b)
	fields := []string{"id", "summary"}
	keep := adm.NewKeepSet(fields)
	lo, hi := algebra.Const{Val: adm.NewInt(benchJoin.Start)}, algebra.Const{Val: adm.NewInt(benchJoin.Start + gen.JoinOuter)}
	start, end := scanBounds(&algebra.KeyRange{Lo: &lo, Hi: &hi, LoIncl: true}, nil)
	past := algebra.Const{Val: adm.NewInt(benchJoinRecords + 1)}
	pastStart, pastEnd := scanBounds(&algebra.KeyRange{Lo: &past, LoIncl: true}, nil)
	parts := c.cfg.Partitions()
	for _, bc := range []struct {
		name       string
		start, end []byte
	}{{"full", nil, nil}, {"range", start, end}, {"empty", pastStart, pastEnd}} {
		b.Run(bc.name, func(b *testing.B) {
			var rows int64
			row, next := make(hyracks.Tuple, 2), func(hyracks.Tuple) error { rows++; return nil }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := &hyracks.TaskCtx{Ctx: context.Background(), Part: i % parts}
				if err := c.scanPartition(ctx, "Default", "ReviewsPlain", "id", bc.start, bc.end, fields, keep, nil, &QueryCounters{}, row, next); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
		})
	}
}
