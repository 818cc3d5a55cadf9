package optimizer

import (
	"strings"
	"testing"

	"simdb/internal/algebra"
)

// scanRanges renders the key range of every scan in the plan, "-" for a
// scan without one.
func scanRanges(plan *algebra.Op) string {
	var out []string
	algebra.Walk(plan, func(op *algebra.Op) {
		if op.Kind != algebra.OpScan {
			return
		}
		if op.Range == nil {
			out = append(out, "-")
		} else {
			out = append(out, op.Range.String())
		}
	})
	return strings.Join(out, " ")
}

// TestPrimaryKeyRangeRule: the rule intersects the key comparisons of a
// select directly above a scan, in either argument order, on the key
// field at its path; anything else bounds nothing, and a conjunct that
// can raise ends the conjuncts that count.
func TestPrimaryKeyRangeRule(t *testing.T) {
	cat := newTestCatalog()
	cat.datasets["Tweets"] = "user.id"
	for _, tc := range []struct{ where, want string }{
		{"$r.id >= 3 and $r.id < 10", "[3, 10)"},
		{"5 < $r.id and $r.id <= 9 and $r.id > 5.0", "(5, 9]"},
		{"$r.id > 3 and $r.id >= 3", "(3, +inf)"},
		{"$r.id <= 3 and $r.id < 3 and $r.id < 7", "(-inf, 3)"},
		{"$r.id = 'x' and $r.id >= 'a'", `["x", "x"]`},
		{"$r.id >= 20 and $r.id < 10", "[20, 10)"},
		{"$r.id < 1 + 3", "(-inf, 4)"},
		{"$r.id >= 3 and string-length($r.summary) > 2 and $r.id < 10", "[3, +inf)"},
		{"string-length($r.summary) > 2 and $r.id >= 3", "-"},
		{"$r.summary = 'a' and $r.id != 3", "-"},
		{"$r.id >= [1, 2]", "-"},
		{"$r.id >= $r.overall", "-"},
		{"$r.id / 0 >= 1", "-"},
	} {
		plan := compile(t, cat, DefaultOptions(), "for $r in dataset ARevs where "+tc.where+" return $r")
		if got := scanRanges(plan); got != tc.want {
			t.Errorf("%s: scan range %s, want %s\n%s", tc.where, got, tc.want, algebra.Print(plan))
		}
	}
	for _, tc := range []struct{ where, want string }{
		{"$t.user.id >= 3", "[3, +inf)"},
		{"$t.id >= 3", "-"},
		{"$t.user >= 3", "-"},
	} {
		plan := compile(t, cat, DefaultOptions(), "for $t in dataset Tweets where "+tc.where+" return $t")
		if got := scanRanges(plan); got != tc.want {
			t.Errorf("%s: scan range %s, want %s\n%s", tc.where, got, tc.want, algebra.Print(plan))
		}
	}
}

// TestReuseScansKeyedOnRange: a self-join shares a scan only between
// sides with equal key ranges.
func TestReuseScansKeyedOnRange(t *testing.T) {
	cat := newTestCatalog()
	for _, tc := range []struct {
		where string
		scans int
	}{
		{"$a.id < 10 and $b.id < 10", 1},
		{"$a.id < 10 and $b.id < 11", 2},
		{"$a.id < 10", 2},
		{"$a.overall = $b.overall", 1},
	} {
		plan := compile(t, cat, DefaultOptions(), "for $a in dataset ARevs for $b in dataset ARevs where "+tc.where+" and $a.summary = $b.summary return {'a': $a.id, 'b': $b.id}")
		if got := algebra.CountKind(plan, algebra.OpScan); got != tc.scans {
			t.Errorf("%s: %d scans (%s), want %d\n%s", tc.where, got, scanRanges(plan), tc.scans, algebra.Print(plan))
		}
	}
}
