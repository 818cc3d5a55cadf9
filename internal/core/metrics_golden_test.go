package core

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
)

// TestMetricsExpositionGolden pins the Prometheus exposition's metric
// names and types — every "# TYPE" line, sorted as the writer sorts
// them — after one request of each kind: DDL, inserts, an index build,
// an indexed and a scanned selection, a join, a budgeted query, explain
// analyze, a failing query, and one query through the HTTP front end.
// Renaming, adding or dropping a metric is a change to
// testdata/metrics_types.golden, made on purpose.
func TestMetricsExpositionGolden(t *testing.T) {
	db, err := Open(Config{DataDir: t.TempDir(), NumNodes: 2, PartitionsPerNode: 1,
		ServeAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExecute(`create dataset M primary key id;`)
	for i := 0; i < 40; i++ {
		if err := db.InsertJSON("M", fmt.Sprintf(`{"id": %d, "name": "user%02d", "txt": "great product number %d"}`, i, i, i%7)); err != nil {
			t.Fatal(err)
		}
	}
	db.MustExecute(`create index mkw on M(txt) type keyword;`)
	for _, q := range []string{
		`for $m in dataset M where similarity-jaccard(word-tokens($m.txt), word-tokens('great product number 3')) >= 0.9 return $m.id`,
		`for $m in dataset M where edit-distance($m.name, 'user01') <= 1 return $m.id`,
		`for $a in dataset M for $b in dataset M where $a.name = $b.name return $a.id`,
		`set memorybudget '64k'; for $m in dataset M order by $m.txt return $m.id`,
		`explain analyze for $m in dataset M return $m.id`,
	} {
		if _, err := db.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if _, err := db.Query(`for $m in dataset Nope return $m`); err == nil {
		t.Fatal("query over an unknown dataset succeeded")
	}
	resp, err := http.Post("http://"+db.ServeAddr()+"/query", "text/plain", strings.NewReader(`for $m in dataset M return $m.id`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var buf bytes.Buffer
	if err := db.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			got = append(got, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	golden, err := os.ReadFile("testdata/metrics_types.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(golden), "\n"), "\n")
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	in := func(list []string) map[string]bool {
		m := map[string]bool{}
		for _, l := range list {
			m[l] = true
		}
		return m
	}
	gotSet, wantSet := in(got), in(want)
	for _, l := range want {
		if !gotSet[l] {
			t.Errorf("exposition lost:   %s", l)
		}
	}
	for _, l := range got {
		if !wantSet[l] {
			t.Errorf("exposition gained: %s", l)
		}
	}
	if !t.Failed() {
		t.Errorf("same metrics in a different order:\n%s", strings.Join(got, "\n"))
	}
}
