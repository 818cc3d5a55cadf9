package cluster

import (
	"sort"
	"strings"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/optimizer"
)

// sessWith returns a session whose optimizer options are DefaultOptions
// with mod applied.
func sessWith(mod func(*optimizer.Options)) *Session {
	sess := NewSession()
	opts := optimizer.DefaultOptions()
	if mod != nil {
		mod(&opts)
	}
	sess.Opts = &opts
	return sess
}

// TestProjectionPushdownResults runs the same queries with projection
// pushdown on and off and demands identical answers. The pushdown run
// also covers the unflushed-memtable path: one row is inserted after
// FlushAll, so the scan mixes a columnar component with in-memory rows.
func TestProjectionPushdownResults(t *testing.T) {
	// Primary components have one layout; the subtest names it.
	t.Run("columnar", func(t *testing.T) {
		c := newTestCluster(t, 2, 1)
		sess := NewSession()
		loadReviews(t, c, sess)
		rec := adm.EmptyRecord(3)
		rec.Set("id", adm.NewInt(9))
		rec.Set("username", adm.NewString("marge"))
		rec.Set("summary", adm.NewString("great value product"))
		if err := c.Insert("Default", "Reviews", adm.NewRecord(rec)); err != nil {
			t.Fatal(err)
		}

		queries := []string{
			`for $r in dataset Reviews where $r.username = 'maria' return $r.id`,
			`for $r in dataset Reviews return $r.id`,
			// Whole-record return: no projection applies, scan stays wide.
			`for $r in dataset Reviews where $r.id = 9 return $r`,
			jaccardQuery,
		}
		on := sessWith(nil)
		off := sessWith(func(o *optimizer.Options) { o.ProjectionPushdown = false })
		for _, q := range queries {
			got := exec(t, c, on, q)
			want := exec(t, c, off, q)
			if gs, ws := resultKey(got), resultKey(want); gs != ws {
				t.Errorf("query %q: pushdown %q, no pushdown %q", q, gs, ws)
			}
		}
	})
}

// TestProjectionPushdownInPlan checks that the optimized plan makes the
// projected column set visible on the scan, and that a whole-record
// query does not get one.
func TestProjectionPushdownInPlan(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)

	res := exec(t, c, sess, `for $r in dataset Reviews where $r.username = 'maria' return $r.id`)
	if !strings.Contains(res.Stats.LogicalPlan(), "project:[id, username]") {
		t.Errorf("plan missing projected fields:\n%s", res.Stats.LogicalPlan())
	}
	res = exec(t, c, sess, `for $r in dataset Reviews where $r.id = 1 return $r`)
	if strings.Contains(res.Stats.LogicalPlan(), "project:[") {
		t.Errorf("whole-record query got a projection:\n%s", res.Stats.LogicalPlan())
	}
}

// TestOptionOverridesBypassPlanCache verifies that a session overriding
// optimizer options compiles its own plan every time and never shares
// one through the cache: select-a and select-* plans cannot meet there.
func TestOptionOverridesBypassPlanCache(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)

	if res := exec(t, c, sess, jaccardQuery); res.Stats.PlanCacheHit {
		t.Fatal("cold execution hit the cache")
	}
	cached := c.planCache.Stats()
	for _, tc := range []struct {
		name        string
		mod         func(*optimizer.Options)
		wantProject bool
	}{
		{"defaults spelled out", nil, true},
		{"no projection", func(o *optimizer.Options) { o.ProjectionPushdown = false }, false},
		{"no indexes", func(o *optimizer.Options) { o.UseIndexes = false }, true},
	} {
		res := exec(t, c, sessWith(tc.mod), jaccardQuery)
		if res.Stats.PlanCacheHit {
			t.Errorf("%s: override session reused a cached plan", tc.name)
		}
		if got := strings.Contains(res.Stats.LogicalPlan(), "project:["); got != tc.wantProject {
			t.Errorf("%s: plan has projection = %v:\n%s", tc.name, got, res.Stats.LogicalPlan())
		}
	}
	if st := c.planCache.Stats(); st != cached {
		t.Fatalf("override sessions moved the cache: %+v -> %+v", cached, st)
	}
	if res := exec(t, c, sess, jaccardQuery); !res.Stats.PlanCacheHit {
		t.Fatal("base session missed its own entry after the override runs")
	}
}

// resultKey renders sorted result rows for order-insensitive
// comparison.
func resultKey(res *Result) string {
	parts := rowStrings(res.Rows)
	sort.Strings(parts)
	return strings.Join(parts, "|")
}
