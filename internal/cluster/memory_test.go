package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"simdb/internal/adm"
)

// loadBulk populates a dataset with n padded rows so blocking operators
// outgrow small budgets.
func loadBulk(t *testing.T, c *Cluster, sess *Session, n int) {
	t.Helper()
	exec(t, c, sess, `create dataset Bulk primary key id;`)
	for i := 0; i < n; i++ {
		rec := adm.EmptyRecord(3)
		rec.Set("id", adm.NewInt(int64(i)))
		rec.Set("grp", adm.NewInt(int64(i%17)))
		rec.Set("pad", adm.NewString(fmt.Sprintf("%04d-%s", (i*7919)%n, strings.Repeat("x", 120))))
		if err := c.Insert("Default", "Bulk", adm.NewRecord(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

func rowStrings(rows []adm.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(adm.Encode(r))
	}
	return out
}

// TestQueryMemoryBudgetEndToEnd is the acceptance scenario: a query
// whose working set exceeds the budget completes with results identical
// to the unbudgeted run, the accountant's high water stays within the
// budget, and the stats report nonzero spill activity.
func TestQueryMemoryBudgetEndToEnd(t *testing.T) {
	// One partition: with several partitions sharing the accountant, the
	// final merge pass may Force past the budget, which is allowed but
	// would weaken the high-water assertion below.
	c := newTestCluster(t, 1, 1)
	sess := NewSession()
	loadBulk(t, c, sess, 2500)

	queries := []string{
		`for $r in dataset Bulk order by $r.pad return $r.id`,
		`for $r in dataset Bulk
		 /*+ hash */ group by $g := $r.grp with $r
		 order by $g
		 return { 'g': $g, 'n': count($r) }`,
	}
	for qi, q := range queries {
		ref := exec(t, c, NewSession(), q)

		bsess := NewSession()
		exec(t, c, bsess, `set memorybudget '256k';`)
		res := exec(t, c, bsess, q)

		if fmt.Sprint(rowStrings(res.Rows)) != fmt.Sprint(rowStrings(ref.Rows)) {
			t.Fatalf("query %d: budgeted rows differ from unbudgeted", qi)
		}
		st := res.Stats
		if st.MemBudget != 256<<10 {
			t.Fatalf("query %d: MemBudget = %d", qi, st.MemBudget)
		}
		if st.SpillRuns == 0 || st.SpilledBytes == 0 {
			t.Fatalf("query %d: no spills under over-budget working set (runs=%d bytes=%d)",
				qi, st.SpillRuns, st.SpilledBytes)
		}
		if st.MemHighWater == 0 || st.MemHighWater > st.MemBudget {
			t.Fatalf("query %d: high water %d outside budget %d", qi, st.MemHighWater, st.MemBudget)
		}
		var opRuns int64
		for _, op := range st.PhysicalOps() {
			opRuns += op.SpillRuns
		}
		if opRuns != st.SpillRuns {
			t.Fatalf("query %d: per-operator spill runs %d != stats %d", qi, opRuns, st.SpillRuns)
		}
		// Spill-free queries report nothing: run a tiny query on the same
		// budgeted session.
		small := exec(t, c, bsess, `for $r in dataset Bulk where $r.id = 1 return $r.id`)
		if small.Stats.SpillRuns != 0 {
			t.Fatalf("tiny query spilled: %+v", small.Stats)
		}
	}
	// All spill temp directories are gone once queries finish.
	ents, err := os.ReadDir(filepath.Join(c.Config().DataDir, "tmp"))
	if err == nil && len(ents) > 0 {
		t.Fatalf("leftover spill dirs: %v", ents)
	}
}

func TestSetMemoryBudgetStatement(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	sess := NewSession()
	exec(t, c, sess, `set memorybudget '32m';`)
	if sess.MemoryBudget != 32<<20 {
		t.Fatalf("MemoryBudget = %d", sess.MemoryBudget)
	}
	exec(t, c, sess, `set memorybudget 'unlimited';`)
	if sess.MemoryBudget != -1 {
		t.Fatalf("unlimited MemoryBudget = %d", sess.MemoryBudget)
	}
	mustErr(t, c, sess, `set memorybudget 'a lot';`)
}

// TestSessionBudgetOverridesConfig checks the 0=inherit / -1=unlimited
// session semantics against the default SIMDB_TEST_MEMORY_BUDGET sets.
func TestSessionBudgetOverridesConfig(t *testing.T) {
	t.Setenv("SIMDB_TEST_MEMORY_BUDGET", "1m")
	c, err := New(Config{NumNodes: 1, PartitionsPerNode: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.snapshotSession(NewSession()).Opts.MemoryBudgetBytes; got != 1<<20 {
		t.Fatalf("inherit: %d", got)
	}
	s := NewSession()
	s.MemoryBudget = 2 << 20
	if got := c.snapshotSession(s).Opts.MemoryBudgetBytes; got != 2<<20 {
		t.Fatalf("override: %d", got)
	}
	s.MemoryBudget = -1
	if got := c.snapshotSession(s).Opts.MemoryBudgetBytes; got != 0 {
		t.Fatalf("unlimited: %d", got)
	}
}

// TestSpillCleanupOnCancel cancels queries mid-spill and asserts no
// run files survive. Run under -race in CI, it also exercises the
// concurrent teardown of spilling operator instances.
func TestSpillCleanupOnCancel(t *testing.T) {
	c, err := New(Config{NumNodes: 2, PartitionsPerNode: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess := NewSession()
	loadBulk(t, c, sess, 4000)

	q := `set memorybudget '64k';
	      for $a in dataset Bulk
	      for $b in dataset Bulk
	      where $a.grp = $b.grp
	      order by $a.pad
	      return $a.id`
	for _, delay := range []time.Duration{2 * time.Millisecond, 8 * time.Millisecond, 20 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), delay)
		_, qerr := c.Execute(ctx, NewSession(), q)
		cancel()
		if qerr == nil {
			// The machine may genuinely finish under the longer delays.
			continue
		}
		tmp := filepath.Join(c.Config().DataDir, "tmp")
		ents, rerr := os.ReadDir(tmp)
		if rerr == nil && len(ents) > 0 {
			names := make([]string, len(ents))
			for i, e := range ents {
				names[i] = e.Name()
			}
			t.Fatalf("cancelled query leaked spill dirs: %v", names)
		}
	}
}

// TestPlanCacheKeyedByBudget: the same query text compiled under
// different budgets must not collide in the plan cache.
func TestPlanCacheKeyedByBudget(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	sess := NewSession()
	loadReviews(t, c, sess)
	q := `for $r in dataset Reviews order by $r.id return $r.id`

	s1 := NewSession()
	r1 := exec(t, c, s1, q)
	s2 := NewSession()
	s2.MemoryBudget = 64 << 10
	r2 := exec(t, c, s2, q)
	if r2.Stats.PlanCacheHit {
		t.Fatal("budgeted query hit the unbudgeted plan entry")
	}
	if fmt.Sprint(rowInts(t, r2.Rows)) != fmt.Sprint(rowInts(t, r1.Rows)) {
		t.Fatal("results differ across budgets")
	}
	r3 := exec(t, c, s2, q)
	if !r3.Stats.PlanCacheHit {
		t.Fatal("same-budget rerun missed the plan cache")
	}
	if r3.Stats.MemBudget != 64<<10 {
		t.Fatalf("cache-hit run lost the budget: %+v", r3.Stats.MemBudget)
	}
}
