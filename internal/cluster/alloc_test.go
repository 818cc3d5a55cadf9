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
// instead of three they went from 425 and 385 to 368 and 328.
//
// The join is the benchmark's (the Figure 23 shape over 1 000 records, 35
// job nodes on four partitions, 2 MiB budget). With one job node per
// per-row operator and every tuple carrying all the variables below it,
// it made 162 600.
//
// The numbers may only move down: a change that raises one has put an
// allocation back on the per-row path, or a fixed cost on every query.
var executeAllocCeiling = map[string]float64{
	"jaccard":       380,
	"edit-distance": 340,
	"join":          91000,
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
	jc, jsess, jrecs := loadBenchJoin(t)
	for _, tc := range []struct {
		name, query string
		c           *Cluster
		sess        *Session
		of          int
	}{
		{"jaccard", `for $r in dataset ARevs
			where similarity-jaccard(word-tokens($r.summary), word-tokens('the great product of love')) >= 0.5
			return $r.id`, c, sess, len(recs)},
		{"edit-distance", `for $r in dataset ARevs where edit-distance($r.reviewerName, '` + name.Str() + `') <= 1 return $r.id`, c, sess, len(recs)},
		{"join", benchJoin.AQL("ReviewsPlain"), jc, jsess, len(jrecs)},
	} {
		res := exec(t, tc.c, tc.sess, tc.query) // compile, cache the plan, fault the pages in
		if len(res.Rows) == 0 || len(res.Rows) > tc.of/20 {
			t.Fatalf("%s: %d of %d rows qualify; the ceiling needs a selective query with an answer", tc.name, len(res.Rows), tc.of)
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
