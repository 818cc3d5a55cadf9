package cluster

import (
	"fmt"
	"strings"
	"time"

	"simdb/internal/adm"
)

// explainAnalyzeRows renders the EXPLAIN ANALYZE report for a finished
// query: a header line, the compile-phase breakdown, the optimized
// logical plan, and the physical operator table — one row per operator
// of the job, folded from the instance records of every process that
// ran part of it — with measured wall/busy/tuple/traffic/spill columns.
// Each report line is one string row, so every client (CLI, tests, the
// HTTP front end) receives the report through the ordinary result path.
func explainAnalyzeRows(res *Result) []adm.Value {
	st := &res.Stats
	var b strings.Builder
	cache := "miss"
	if st.PlanCacheHit {
		cache = "HIT"
	}
	fmt.Fprintf(&b, "explain analyze (query %d): wall %s, %d rows, plan cache %s\n",
		st.QueryID, time.Duration(st.AdmissionNs+st.ParseNs+st.TranslateNs+st.OptimizeNs+st.JobGenNs+st.ExecNs),
		len(res.Rows), cache)
	fmt.Fprintf(&b, "compile: admission=%s parse=%s translate=%s optimize=%s jobgen=%s\n",
		time.Duration(st.AdmissionNs), time.Duration(st.ParseNs),
		time.Duration(st.TranslateNs), time.Duration(st.OptimizeNs),
		time.Duration(st.JobGenNs))
	b.WriteString("logical plan:\n")
	for _, line := range strings.Split(strings.TrimRight(st.LogicalPlan, "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	// Physical operators in job order (not sorted by cost): the table
	// should read like the plan it annotates. The name column fits the
	// longest name: a fused chain is named by all its stages.
	ops := st.PhysicalOps()
	width := 34
	for _, op := range ops {
		width = max(width, len(op.Name))
	}
	fmt.Fprintf(&b, "%-*s %5s %12s %12s %10s %10s %8s %10s %6s %10s\n", width,
		"operator", "inst", "wall", "busy", "in", "out", "frames", "netbytes", "spills", "spillbytes")
	for _, op := range ops {
		fmt.Fprintf(&b, "%-*s %5d %12s %12s %10d %10d %8d %10d %6d %10d\n", width,
			op.Name, op.Instances, time.Duration(op.WallNs), time.Duration(op.BusyNs),
			op.TuplesIn, op.TuplesOut, op.FramesSent, op.BytesMoved, op.SpillRuns, op.SpilledBytes)
	}
	if st.IndexSearches > 0 || st.CandidatesTotal > 0 || st.CornerCaseFallbacks > 0 {
		fmt.Fprintf(&b, "similarity: T=%d searches=%d postings=%d candidates=%d verified=%d corner_fallbacks=%d\n",
			st.OccurrenceT, st.IndexSearches, st.PostingsRead,
			st.CandidatesTotal, st.VerifiedTotal, st.CornerCaseFallbacks)
	}
	if st.MemBudget > 0 {
		fmt.Fprintf(&b, "memory: budget=%d high_water=%d spill_runs=%d spilled_bytes=%d\n",
			st.MemBudget, st.MemHighWater, st.SpillRuns, st.SpilledBytes)
	}
	return planRows(b.String())
}
