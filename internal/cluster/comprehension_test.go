package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"

	"simdb/internal/adm"
	"simdb/internal/datagen"
	"simdb/internal/tokenizer"
)

// compRec is what the comprehension references read of a record.
type compRec struct {
	id   int64
	toks []string
}

func compRecs(recs []adm.Value) []compRec {
	out := make([]compRec, len(recs))
	for i, r := range recs {
		id, _ := r.Rec().Get("id")
		summary, _ := r.Rec().Get("summary")
		out[i] = compRec{id.Int(), tokenizer.WordTokens(summary.Str())}
	}
	return out
}

// compShape is one place a comprehension (a nested FLWOR over an
// in-memory list) sits in a query. want computes the rows with plain Go
// loops over the records; op is the stage of the job node that
// evaluates the comprehension.
type compShape struct {
	name, query, op string
	want            func(recs []compRec) []adm.Value
}

func (s compShape) q(dataset string) string { return fmt.Sprintf(s.query, dataset) }

func compRecord(names []string, vals ...adm.Value) adm.Value {
	return adm.NewRecord(adm.NewRecordFromFields(names, vals))
}

func longToks(toks []string, min int) []string {
	var out []string
	for _, tok := range toks {
		if utf8.RuneCountInString(tok) >= min {
			out = append(out, tok)
		}
	}
	return out
}

func intList(ns []int64) adm.Value {
	vals := make([]adm.Value, len(ns))
	for i, n := range ns {
		vals[i] = adm.NewInt(n)
	}
	return adm.NewList(vals)
}

var compShapes = []compShape{
	{"select", `for $r in dataset %s
		let $long := for $tok in word-tokens($r.summary) where string-length($tok) >= 6 return $tok
		where count($long) >= 2
		return $r.id`, "Select(fused-assign)",
		func(recs []compRec) []adm.Value {
			var out []adm.Value
			for _, r := range recs {
				if len(longToks(r.toks, 6)) >= 2 {
					out = append(out, adm.NewInt(r.id))
				}
			}
			return out
		}},
	{"order-desc", `for $r in dataset %s
		where $r.id < 30
		return {'id': $r.id, 'toks': for $tok in word-tokens($r.summary) order by $tok desc return $tok}`, "Assign",
		func(recs []compRec) []adm.Value {
			var out []adm.Value
			for _, r := range recs {
				if r.id < 30 {
					toks := append([]string(nil), r.toks...)
					sort.Sort(sort.Reverse(sort.StringSlice(toks)))
					out = append(out, compRecord([]string{"id", "toks"}, adm.NewInt(r.id), adm.NewStringList(toks)))
				}
			}
			return out
		}},
	{"positional-at", `for $r in dataset %s
		where $r.id < 30
		return {'id': $r.id, 'at': for $tok at $i in word-tokens($r.summary) where string-length($tok) >= 6 return $i}`, "Assign",
		func(recs []compRec) []adm.Value {
			var out []adm.Value
			for _, r := range recs {
				if r.id < 30 {
					var at []int64
					for i, tok := range r.toks {
						if utf8.RuneCountInString(tok) >= 6 {
							at = append(at, int64(i+1))
						}
					}
					out = append(out, compRecord([]string{"id", "at"}, adm.NewInt(r.id), intList(at)))
				}
			}
			return out
		}},
	{"nested-outer-name", `for $r in dataset %s
		where $r.id < 30
		return {'id': $r.id, 'below': for $a in word-tokens($r.summary) where string-length($a) >= 6
			return count(for $b in word-tokens($r.summary) where $b < $a return $b)}`, "Assign",
		func(recs []compRec) []adm.Value {
			var out []adm.Value
			for _, r := range recs {
				if r.id < 30 {
					var below []int64
					for _, a := range longToks(r.toks, 6) {
						n := int64(0)
						for _, b := range r.toks {
							if b < a {
								n++
							}
						}
						below = append(below, n)
					}
					out = append(out, compRecord([]string{"id", "below"}, adm.NewInt(r.id), intList(below)))
				}
			}
			return out
		}},
	{"unnest", `for $r in dataset %s
		for $tok in (for $t in word-tokens($r.summary) where string-length($t) >= 6 order by $t return $t)
		where $r.id < 30
		return {'id': $r.id, 'tok': $tok}`, "Unnest",
		func(recs []compRec) []adm.Value {
			var out []adm.Value
			for _, r := range recs {
				if r.id < 30 {
					for _, tok := range longToks(r.toks, 6) {
						out = append(out, compRecord([]string{"id", "tok"}, adm.NewInt(r.id), adm.NewString(tok)))
					}
				}
			}
			return out
		}},
	{"let-chain", `for $r in dataset %s
		let $toks := word-tokens($r.summary)
		let $lens := for $t in $toks let $n := string-length($t) where $n >= 6 return $n
		let $k := count($lens)
		where $r.id < 30
		return {'id': $r.id, 'lens': $lens, 'k': $k}`, "Select(fused-assign)",
		func(recs []compRec) []adm.Value {
			var out []adm.Value
			for _, r := range recs {
				if r.id < 30 {
					var lens []int64
					for _, tok := range longToks(r.toks, 6) {
						lens = append(lens, int64(utf8.RuneCountInString(tok)))
					}
					out = append(out, compRecord([]string{"id", "lens", "k"}, adm.NewInt(r.id), intList(lens), adm.NewInt(int64(len(lens)))))
				}
			}
			return out
		}},
	{"nested-loop-join", `for $a in dataset %[1]s
		for $b in dataset %[1]s
		where $a.id < 15 and $b.id < 15
			and count(for $x in word-tokens($a.summary) where string-length($x) > $b.id return $x) > 1
		return {'a': $a.id, 'b': $b.id}`, "NestedLoopJoin",
		func(recs []compRec) []adm.Value {
			var out []adm.Value
			for _, a := range recs {
				for _, b := range recs {
					if a.id < 15 && b.id < 15 && len(longToks(a.toks, int(b.id)+1)) > 1 {
						out = append(out, compRecord([]string{"a", "b"}, adm.NewInt(a.id), adm.NewInt(b.id)))
					}
				}
			}
			return out
		}},
}

// renderedRows renders rows and sorts them: the shapes' outer FLWORs
// have no order by, so the partitions may interleave.
func renderedRows(rows []adm.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// checkCompShape holds one engine result of a shape against the shape's
// reference, and requires the stage that evaluates the comprehension to
// be a stage of one of the job nodes, under its plain name.
func checkCompShape(t *testing.T, s compShape, res *Result, recs []compRec) {
	t.Helper()
	want := renderedRows(s.want(recs))
	if len(want) == 0 {
		t.Errorf("%s: reference is empty; the shape is vacuous", s.name)
	}
	if got := renderedRows(res.Rows); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s: engine has %d rows, reference %d:\n engine:    %.300s\n reference: %.300s",
			s.name, len(got), len(want), strings.Join(got, " "), strings.Join(want, " "))
	}
	for _, op := range res.Stats.PhysicalOps() {
		for _, stage := range strings.Split(op.Name, "+") {
			if stage == s.op {
				return
			}
		}
	}
	t.Errorf("%s: no job node has a %s stage: %+v", s.name, s.op, res.Stats.PhysicalOps())
}

// TestComprehensionShapesAgreeWithNaiveReference runs every
// comprehension shape on the embedded engine and holds its rows against
// the records evaluated by hand.
func TestComprehensionShapesAgreeWithNaiveReference(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	recs := compRecs(loadSynthetic(t, c, NewSession(), "ARevs", datagen.Amazon, 400))
	for _, s := range compShapes {
		checkCompShape(t, s, exec(t, c, NewSession(), s.q("ARevs")), recs)
	}
}
