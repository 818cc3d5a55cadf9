package cluster

import (
	"os"
	"testing"

	"simdb/internal/datagen"
)

// executeAllocCeiling is the number of allocations one warm scan-plan
// selection over 2000 flushed records may make through Cluster.Execute:
// admission, the plan-cache hit, job generation, six operators on two
// partitions and the result. Rejected rows contribute nothing (before
// the record-source filter the same two queries made 26 745 and 22 475:
// eleven to thirteen per row). The numbers may only move down: a change that raises one has put an
// allocation back on the per-row path, or a fixed cost on every query.
var executeAllocCeiling = map[string]float64{
	"jaccard":       440,
	"edit-distance": 399,
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
	for _, tc := range []struct{ name, query string }{
		{"jaccard", `for $r in dataset ARevs
			where similarity-jaccard(word-tokens($r.summary), word-tokens('the great product of love')) >= 0.5
			return $r.id`},
		{"edit-distance", `for $r in dataset ARevs where edit-distance($r.reviewerName, '` + name.Str() + `') <= 1 return $r.id`},
	} {
		res := exec(t, c, sess, tc.query) // compile, cache the plan, fault the pages in
		if len(res.Rows) == 0 || len(res.Rows) > len(recs)/20 {
			t.Fatalf("%s: %d of %d rows qualify; the ceiling needs a selective query with an answer", tc.name, len(res.Rows), len(recs))
		}
		allocs := testing.AllocsPerRun(20, func() {
			if got := exec(t, c, sess, tc.query); !got.Stats.PlanCacheHit || len(got.Rows) != len(res.Rows) {
				t.Fatalf("%s: warm run hit=%v rows=%d, want a cache hit and %d rows", tc.name, got.Stats.PlanCacheHit, len(got.Rows), len(res.Rows))
			}
		})
		t.Logf("%s: %.0f allocations per warm Execute, %d of %d rows returned", tc.name, allocs, len(res.Rows), len(recs))
		if ceiling := executeAllocCeiling[tc.name]; allocs > ceiling {
			t.Errorf("%s: %.0f allocations per warm Execute, ceiling %.0f", tc.name, allocs, ceiling)
		}
	}
}
