package cluster

import (
	"os"
	"testing"

	"simdb/internal/datagen"
)

// executeAllocCeiling is the number of allocations one warm query may
// make through Cluster.Execute: admission, the plan-cache hit, job
// generation, the operators and the result.
//
// The two scan-plan selections run over 2000 flushed records on two
// partitions. Rejected rows contribute nothing (before the record-source
// filter the same two queries made 26 745 and 22 475: eleven to thirteen
// per row); with one job node for select, assign and result project
// instead of three they went from 425 and 385 to 368 and 328, and later
// read 360 and 320. Since storage judges the filter on the column block,
// each scan instance owns a group walk and its scratch — five
// allocations, made once per instance and none per group or row — and
// they make 370 and 330.
//
// The comprehension selection runs over the same 2000 records and keeps
// 572 of them. The interpreter runs the comprehension under a compiled
// call with one Env per evaluation: 60 818 allocations, one per row more
// than the 58 828 it made when every operator instance owned one Env and
// reset it per row.
//
// The indexed selections are the two scan-plan queries over a keyword and
// an ngram(2) index: secondary search, primary lookup and the select.
// They made 634 and 542 when every instance built its own evaluators
// from per-instance factories, and 619 and 527 with the shared closures.
// The Jaccard 0.8 and edit-distance 2 classes (simbench's jaccard_08 and
// ed_2) search the same indexes for the first record's summary and name:
// 484 and 646, returning one row and five.
//
// The join is the benchmark's (the Figure 23 shape over 1 000 records, 35
// job nodes on four partitions, 2 MiB budget). With one job node per
// per-row operator and every tuple carrying all the variables below it,
// it made 162 600.
//
// The numbers may only move down: a change that raises one has put an
// allocation back on the per-row path, or a fixed cost on every query.
var executeAllocCeiling = map[string]float64{
	"jaccard":                 380,
	"edit-distance":           340,
	"comprehension":           60830,
	"indexed-jaccard":         625,
	"indexed-edit-distance":   535,
	"indexed-jaccard-0.8":     490,
	"indexed-edit-distance-2": 655,
	"join":                    91000,
}

func TestExecuteAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the ceiling is checked by the plain test run")
	}
	if os.Getenv("SIMDB_TEST_MEMORY_BUDGET") != "" {
		t.Skip("a budgeted query adds its accountant and spill manager; the ceiling is for the default configuration")
	}
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	recs := loadSynthetic(t, c, sess, "ARevs", datagen.Amazon, 2000)
	name, _ := recs[0].Rec().Get("reviewerName")
	summary, _ := recs[0].Rec().Get("summary")
	ic := newTestCluster(t, 1, 2)
	isess := NewSession()
	loadSynthetic(t, ic, isess, "ARevs", datagen.Amazon, 2000)
	exec(t, ic, isess, `create index akw on ARevs(summary) type keyword;`)
	exec(t, ic, isess, `create index ang on ARevs(reviewerName) type ngram(2);`)
	jc, jsess, jrecs := loadBenchJoin(t)
	jaccard := `for $r in dataset ARevs
		where similarity-jaccard(word-tokens($r.summary), word-tokens('the great product of love')) >= 0.5
		return $r.id`
	editDistance := `for $r in dataset ARevs where edit-distance($r.reviewerName, '` + name.Str() + `') <= 1 return $r.id`
	jaccard08 := `for $r in dataset ARevs
		where similarity-jaccard(word-tokens($r.summary), word-tokens('` + summary.Str() + `')) >= 0.8
		return $r.id`
	editDistance2 := `for $r in dataset ARevs where edit-distance($r.reviewerName, '` + name.Str() + `') <= 2 return $r.id`
	for _, tc := range []struct {
		name, query string
		c           *Cluster
		sess        *Session
		of          int
		// rows is the answer's size when the query is not selective; zero
		// asks for a selective query (at most one row in twenty).
		rows    int
		indexed bool
	}{
		{"jaccard", jaccard, c, sess, len(recs), 0, false},
		{"edit-distance", editDistance, c, sess, len(recs), 0, false},
		{"comprehension", `for $r in dataset ARevs
			let $long := for $tok in word-tokens($r.summary) where string-length($tok) >= 6 return $tok
			where count($long) >= 2
			return $r.id`, c, sess, len(recs), 572, false},
		{"indexed-jaccard", jaccard, ic, isess, len(recs), 0, true},
		{"indexed-edit-distance", editDistance, ic, isess, len(recs), 0, true},
		{"indexed-jaccard-0.8", jaccard08, ic, isess, len(recs), 0, true},
		{"indexed-edit-distance-2", editDistance2, ic, isess, len(recs), 0, true},
		{"join", benchJoin.AQL("ReviewsPlain"), jc, jsess, len(jrecs), 0, false},
	} {
		res := exec(t, tc.c, tc.sess, tc.query) // compile, cache the plan, fault the pages in
		if tc.rows == 0 && (len(res.Rows) == 0 || len(res.Rows) > tc.of/20) {
			t.Fatalf("%s: %d of %d rows qualify; the ceiling needs a selective query with an answer", tc.name, len(res.Rows), tc.of)
		}
		if tc.rows != 0 && len(res.Rows) != tc.rows {
			t.Fatalf("%s: %d of %d rows qualify, want %d", tc.name, len(res.Rows), tc.of, tc.rows)
		}
		if (res.Stats.IndexSearches > 0) != tc.indexed {
			t.Fatalf("%s: %d index searches; the case wants indexed=%v", tc.name, res.Stats.IndexSearches, tc.indexed)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if got := exec(t, tc.c, tc.sess, tc.query); !got.Stats.PlanCacheHit || len(got.Rows) != len(res.Rows) {
				t.Fatalf("%s: warm run hit=%v rows=%d, want a cache hit and %d rows", tc.name, got.Stats.PlanCacheHit, len(got.Rows), len(res.Rows))
			}
		})
		t.Logf("%s: %.0f allocations per warm Execute, %d of %d rows returned", tc.name, allocs, len(res.Rows), tc.of)
		if ceiling := executeAllocCeiling[tc.name]; allocs > ceiling {
			t.Errorf("%s: %.0f allocations per warm Execute, ceiling %.0f", tc.name, allocs, ceiling)
		}
	}
}
