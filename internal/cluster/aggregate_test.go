package cluster

import (
	"fmt"
	"testing"

	"simdb/internal/adm"
)

// TestDecomposedAggregatesMatchOnePartition runs each scalar aggregate
// over 0, 1 and all of four partitions non-empty, with and without a
// null value among its inputs, and compares the answer with the same
// query on a one-partition cluster. On four partitions count, sum, min
// and max run as a local pre-aggregation per partition and a final pass
// over the partials (avg does not decompose): a partition with no rows
// must add nothing to the final pass — no null partial that min then
// takes as least — and a count over no rows is still 0.
func TestDecomposedAggregatesMatchOnePartition(t *testing.T) {
	four, one := newTestCluster(t, 2, 2), newTestCluster(t, 1, 1)
	var batch []adm.Value
	for i := int64(1); i <= 40; i++ {
		rec := adm.EmptyRecord(2)
		rec.Set("id", adm.NewInt(i))
		v := adm.NewInt(100 - i)
		if i == 5 {
			v = adm.Null
		}
		rec.Set("v", v)
		batch = append(batch, adm.NewRecord(rec))
	}
	for _, c := range []*Cluster{four, one} {
		exec(t, c, NewSession(), `create dataset Vals primary key id;`)
		if err := c.InsertBatch("Default", "Vals", batch); err != nil {
			t.Fatal(err)
		}
	}
	// Each filter and the partitions of the four-partition cluster its
	// rows lie in: none, one (id 3, or id 5 whose v is null), all.
	filters := []struct {
		name, where string
		parts       int
	}{
		{"none", `$r.id < 0`, 0},
		{"one", `$r.id = 3`, 1},
		{"one-null", `$r.id = 5`, 1},
		{"all", `$r.id != 5`, 4},
		{"all-null", `$r.id > 0`, 4},
	}
	for _, f := range filters {
		res := exec(t, four, NewSession(), fmt.Sprintf(`for $r in dataset Vals where %s return $r.id`, f.where))
		parts := 0
		for _, sp := range res.Stats.Spans {
			if hasStage(sp.Op, "DataScan(Vals)") && sp.TuplesOut > 0 {
				parts++
			}
		}
		if parts != f.parts {
			t.Fatalf("%s: rows in %d partitions, want %d", f.name, parts, f.parts)
		}
	}
	for _, fn := range []string{"count", "sum", "min", "max", "avg"} {
		for _, f := range filters {
			q := fmt.Sprintf(`%s(for $r in dataset Vals where %s return $r.v)`, fn, f.where)
			got, want := exec(t, four, NewSession(), q), exec(t, one, NewSession(), q)
			if len(got.Rows) != 1 || len(want.Rows) != 1 || adm.Compare(got.Rows[0], want.Rows[0]) != 0 || got.Rows[0].Kind() != want.Rows[0].Kind() {
				t.Errorf("%s over %s: four partitions %v, one partition %v", fn, f.name, got.Rows, want.Rows)
			}
		}
	}
}
