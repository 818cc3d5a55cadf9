package cluster

import (
	"os"
	"runtime"
	"testing"

	"simdb/benchmark/gen"
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
// 484 and 646, returning one row and five. Each ran as six job nodes and
// eighteen instances (empty-tuple source, search, sort, lookup, the
// select's pipeline, the result) and made 482, 443, 400 and 505. Since a
// search over the empty tuple heads the pipeline, the lookup is one of
// its stages and the sort of the search's already sorted pks is elided,
// a partition's selection is one instance: 323, 286, 264 and 316, and
// each ceiling is that plus 5 %.
//
// The join is the benchmark's (the Figure 23 shape over 1 000 records, 35
// job nodes on four partitions, 2 MiB budget). With one job node per
// per-row operator and every tuple carrying all the variables below it,
// it made 162 600.
//
// An emitter that flushes a full frame starts the next one at full size
// instead of regrowing it by doubling from empty: the join went from
// 89 595 to 87 576 and the comprehension from 60 818 to 60 694. The
// selections send one partial frame per instance and did not move.
//
// Since the join memo, a warm join replays stage 1's token order and the
// inner side's ranked token lists, and runs only the outer records, the
// prefix join and stage 3 over the scan: 25 314 allocations (87 594
// before). join_after_insert overwrites one record before every run, so
// every run misses the memo, runs the whole plan and captures both
// entries again: 87 317, below the 87 594 of the plan without memo,
// because stage 1 reads the scan once instead of a union of both inputs
// and Rank keeps only the columns read above it.
//
// Since the memo keeps the stage-2 hash tables themselves, a warm join
// builds no table: its rank join and its prefix join probe the kept
// token order and the kept prefix tables with the outer side's tuples,
// and its result, reading only the two keys, has no stage 3. That is
// 8 166 allocations and 0.49 MB (25 194 and 2.43 MB when the memo
// replayed tuples for the joins to build from).
// join_after_insert builds the prefix join's table on the inner side and
// keeps it, and skips stage 3 too: 81 450 and 7.74 MB (87 131, 8.11 MB).
//
// Since a primary-key range reaches storage, a warm join's outer scan
// reads the eleven keys of its closed range instead of all 1 000
// records: 3 173 allocations and 0.24 MB (8 166 and 0.49 MB).
// join_after_insert still scans every record for the memo subplans:
// 81 490 and 7.69 MB.
//
// join_new_range runs the join with an outer id range no request has
// sent before, after one run of its shape: the range's two literals are
// parameters of the cached plan, so it is a cache hit bound to the new
// range: 2 875 allocations and 0.23 MB when a hit bound a deep copy of
// the plan. While the plan cache keyed on the whole text it was a full
// compile.
//
// Since a hit runs the cached plan in place — job generation binds the
// request's literals as it compiles the constants, and the plan's
// liveness comes with the cache entry instead of being recomputed — the
// join makes 2 621 allocations and 0.19 MB (3 138 and 0.24 MB), and
// join_new_range 2 359 and 0.18 MB.
//
// Since a job node exists only where rows change partition — sort,
// group-by, aggregate, rank, limit and the join probe are stages of the
// pipeline they end, and a join's pairs are written into the scratch row
// of the stages after it, so only a surviving pair is allocated — the
// join makes 2 124 allocations and 0.11 MB (2 542 and 0.18 MB), and
// join_new_range 1 858 and 0.11 MB (2 278 and 0.18 MB). A miss,
// join_after_insert, makes 72 769 and 6.44 MB (80 877 and 7.63 MB).
//
// Since a replicate, a union and the result sink are stages, a miss is
// 11 job nodes and 38 instances instead of 13 and 43: join_after_insert
// makes 72 642 and 6.34 MB. The warm join and join_new_range, whose
// shapes did not change, stay at 2 127 and 1 861.
//
// The numbers may only move down: a change that raises one has put an
// allocation back on the per-row path, or a fixed cost on every query.
var executeAllocCeiling = map[string]float64{
	"jaccard":                 380,
	"edit-distance":           340,
	"comprehension":           60700,
	"indexed-jaccard":         339,
	"indexed-edit-distance":   300,
	"indexed-jaccard-0.8":     277,
	"indexed-edit-distance-2": 332,
	"join":                    2230,
	"join_after_insert":       76270,
	"join_new_range":          1950,
}

// executeBytesCeiling is the number of bytes (MemStats.TotalAlloc) one
// warm query may allocate through Cluster.Execute, measured over the same
// runs as executeAllocCeiling, for the same cases.
//
// Almost all of a join's or a comprehension's bytes are []adm.Value
// backing arrays: tuples, frames, evaluator arguments, group and hash
// tables. With adm.Value a 24-byte word instead of a 72-byte struct the
// join went from 14.93 MB to 8.30 MB and the comprehension from 5.93 MB to
// 2.87 MB in the same number of allocations; the selections, which keep
// few rows, by 3 to 9 %. Each ceiling is that measurement plus 5 %: for
// the join, the memo-hit measurement (0.11 MB since a node exists only
// where rows change partition, 0.19 MB since a hit runs the cached plan
// in place, 0.24 MB since its outer scan reads a key range, 0.49 MB
// before, 2.44 MB while the memo replayed tuples); for join_new_range
// 0.11 MB (0.18 MB); for join_after_insert, 6.34 MB measured since a
// replicate, a union and the result sink are stages (6.44 MB, 7.74 MB,
// 8.12 MB before); for the indexed selections, the measurement since a
// partition's selection is one instance (26 664, 27 654, 22 504 and
// 29 584 bytes; 42 408, 43 511, 37 288 and 48 696 before).
//
// Like the counts, the bytes may only move down.
var executeBytesCeiling = map[string]float64{
	"jaccard":                 31800,
	"edit-distance":           28850,
	"comprehension":           3020000,
	"indexed-jaccard":         28000,
	"indexed-edit-distance":   29050,
	"indexed-jaccard-0.8":     23650,
	"indexed-edit-distance-2": 31100,
	"join":                    119950,
	"join_after_insert":       6658700,
	"join_new_range":          113300,
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
	// Each measured run of join_new_range takes the next of these, every
	// one a range after benchJoin's.
	var newRanges []string
	for start := benchJoin.Start + 1; len(newRanges) < 25; start++ {
		newRanges = append(newRanges, gen.Join{Start: start}.AQL("ReviewsPlain"))
	}
	for _, tc := range []struct {
		name, query string
		c           *Cluster
		sess        *Session
		of          int
		// rows is the answer's size when the query is not selective; zero
		// asks for a selective query (at most one row in twenty).
		rows    int
		indexed bool
		// before runs ahead of every measured Execute, and is measured
		// with it.
		before func()
		// next, when set, gives each measured Execute its query, in
		// place of query; its answers vary, so only the first is checked.
		next func() string
	}{
		{"jaccard", jaccard, c, sess, len(recs), 0, false, nil, nil},
		{"edit-distance", editDistance, c, sess, len(recs), 0, false, nil, nil},
		{"comprehension", `for $r in dataset ARevs
			let $long := for $tok in word-tokens($r.summary) where string-length($tok) >= 6 return $tok
			where count($long) >= 2
			return $r.id`, c, sess, len(recs), 572, false, nil, nil},
		{"indexed-jaccard", jaccard, ic, isess, len(recs), 0, true, nil, nil},
		{"indexed-edit-distance", editDistance, ic, isess, len(recs), 0, true, nil, nil},
		{"indexed-jaccard-0.8", jaccard08, ic, isess, len(recs), 0, true, nil, nil},
		{"indexed-edit-distance-2", editDistance2, ic, isess, len(recs), 0, true, nil, nil},
		{"join", benchJoin.AQL("ReviewsPlain"), jc, jsess, len(jrecs), 0, false, nil, nil},
		{"join_after_insert", benchJoin.AQL("ReviewsPlain"), jc, jsess, len(jrecs), 0, false, func() {
			// Overwrite a record with itself: the answer stays, the data
			// version moves, and the join misses the memo.
			if err := jc.Insert("Default", "ReviewsPlain", benchJoinValue(jrecs[len(jrecs)-1])); err != nil {
				t.Fatal(err)
			}
		}, nil},
		{"join_new_range", benchJoin.AQL("ReviewsPlain"), jc, jsess, len(jrecs), 0, false, nil, func() string {
			q := newRanges[0]
			newRanges = newRanges[1:]
			return q
		}},
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
		allocs, bytes := allocsAndBytesPerRun(20, func() {
			if tc.before != nil {
				tc.before()
			}
			if tc.next != nil {
				if got := exec(t, tc.c, tc.sess, tc.next()); !got.Stats.PlanCacheHit {
					t.Fatalf("%s: warm run missed the plan cache", tc.name)
				}
				return
			}
			if got := exec(t, tc.c, tc.sess, tc.query); !got.Stats.PlanCacheHit || len(got.Rows) != len(res.Rows) {
				t.Fatalf("%s: warm run hit=%v rows=%d, want a cache hit and %d rows", tc.name, got.Stats.PlanCacheHit, len(got.Rows), len(res.Rows))
			}
		})
		t.Logf("%s: %.0f allocations and %.0f bytes per warm Execute, %d of %d rows returned", tc.name, allocs, bytes, len(res.Rows), tc.of)
		if ceiling := executeAllocCeiling[tc.name]; allocs > ceiling {
			t.Errorf("%s: %.0f allocations per warm Execute, ceiling %.0f", tc.name, allocs, ceiling)
		}
		if ceiling := executeBytesCeiling[tc.name]; bytes > ceiling {
			t.Errorf("%s: %.0f bytes per warm Execute, ceiling %.0f", tc.name, bytes, ceiling)
		}
	}
}

// allocsAndBytesPerRun is testing.AllocsPerRun that also reports the
// bytes allocated (MemStats.TotalAlloc) per run, over the same runs.
func allocsAndBytesPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
