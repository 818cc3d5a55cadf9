package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openTestDB(t *testing.T) *Database {
	t.Helper()
	db, err := Open(Config{DataDir: t.TempDir(), NumNodes: 2, PartitionsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestOpenBadConfig(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Error("missing DataDir should fail")
	}
	if _, err := Open(Config{DataDir: t.TempDir(), TOccurrence: "bogus"}); err == nil {
		t.Error("unknown TOccurrence should fail")
	}
}

func TestOpenAlgorithms(t *testing.T) {
	for _, algo := range []string{"", "scancount", "mergeskip", "divideskip"} {
		db, err := Open(Config{DataDir: t.TempDir(), TOccurrence: algo})
		if err != nil {
			t.Fatalf("algo %q: %v", algo, err)
		}
		db.Close()
	}
}

func TestInsertJSONAndQuery(t *testing.T) {
	db := openTestDB(t)
	db.MustExecute(`create dataset D primary key id;`)
	if err := db.InsertJSON("D", `{"id": 1, "name": "ann"}`); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertJSON("D", `{bad json`); err == nil {
		t.Error("bad JSON should fail")
	}
	res, err := db.Query(`for $d in dataset D return $d.name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Str() != "ann" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestLoadJSONLines(t *testing.T) {
	db := openTestDB(t)
	db.MustExecute(`create dataset D primary key id;`)
	path := filepath.Join(t.TempDir(), "data.jsonl")
	content := `{"id": 1, "v": "x"}

{"id": 2, "v": "y"}
{"id": 3, "v": "z"}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := db.LoadJSONLines("D", path)
	if err != nil || n != 3 {
		t.Fatalf("loaded %d, err %v", n, err)
	}
	res := db.MustExecute(`count(for $d in dataset D return $d)`)
	if res.Rows[0].Int() != 3 {
		t.Errorf("count = %v", res.Rows)
	}
	if _, err := db.LoadJSONLines("D", "/nonexistent"); err == nil {
		t.Error("missing file should fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	os.WriteFile(bad, []byte("{oops\n"), 0o644)
	if _, err := db.LoadJSONLines("D", bad); err == nil {
		t.Error("bad line should fail")
	}
}

func TestSessionStateAcrossExecutes(t *testing.T) {
	db := openTestDB(t)
	sess := db.NewSession()
	ctx := context.Background()
	if _, err := db.Execute(ctx, sess, `create dataset D primary key id;`); err != nil {
		t.Fatal(err)
	}
	db.InsertJSON("D", `{"id": 1, "name": "maria"}`)
	if _, err := db.Execute(ctx, sess, `set simfunction 'edit-distance'; set simthreshold '1';`); err != nil {
		t.Fatal(err)
	}
	// The session remembers the sim settings.
	res, err := db.Execute(ctx, sess, `for $d in dataset D where $d.name ~= 'marla' return $d.id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("~= with session settings found %d rows", len(res.Rows))
	}
}

func TestIndexFootprint(t *testing.T) {
	db := openTestDB(t)
	db.MustExecute(`create dataset D primary key id;`)
	for i := 0; i < 50; i++ {
		db.InsertJSON("D", `{"id": `+itoa(i)+`, "text": "alpha beta gamma delta"}`)
	}
	db.Flush()
	db.MustExecute(`create index tix on D(text) type keyword;`)
	db.Flush()
	bytes, entries, err := db.IndexFootprint("D", "tix")
	if err != nil {
		t.Fatal(err)
	}
	if bytes <= 0 || entries != 200 { // 4 tokens × 50 records
		t.Errorf("footprint = %d bytes, %d entries", bytes, entries)
	}
	pBytes, pEntries, err := db.IndexFootprint("D", "")
	if err != nil || pBytes <= 0 || pEntries != 50 {
		t.Errorf("primary footprint = %d, %d, %v", pBytes, pEntries, err)
	}
}

func itoa(i int) string {
	return strings.TrimSpace(strings.Replace(string(rune('0'+i/10))+string(rune('0'+i%10)), "0", "", boolToInt(i < 10)))
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestExplain(t *testing.T) {
	db := openTestDB(t)
	db.MustExecute(`create dataset D primary key id;`)
	ex, err := db.Explain(nil, `
		set simfunction 'jaccard';
		set simthreshold '0.5';
		for $a in dataset D
		for $b in dataset D
		where word-tokens($a.t) ~= word-tokens($b.t)
		return { 'a': $a.id, 'b': $b.id }
	`)
	if err != nil {
		t.Fatal(err)
	}
	if ex.PlanOps < 20 {
		t.Errorf("three-stage plan too small: %d ops", ex.PlanOps)
	}
	if ex.KindCounts["group-by"] < 3 {
		t.Errorf("kind counts = %v", ex.KindCounts)
	}
	if !strings.Contains(ex.Plan, "rank") {
		t.Error("plan text missing rank")
	}
	if _, err := db.Explain(nil, `create dataset X primary key id;`); err == nil {
		t.Error("Explain of DDL should fail")
	}
	if _, err := db.Explain(nil, `use dataverse Default; set simfunction 'jaccard';`); err == nil {
		t.Error("Explain without body should fail")
	}
}

// TestExplainMatchesExplainStatement pins Explain to the cluster's own
// statement handling: under a budget tight enough to demote hash
// group-bys, Explain reports the plan `explain` prints (and the run
// executes), and a statement Execute rejects is rejected here too.
func TestExplainMatchesExplainStatement(t *testing.T) {
	db := openTestDB(t)
	db.MustExecute(`create dataset D primary key id;`)
	for _, tc := range []struct{ req, must string }{
		// A 128 KiB budget flips the group-by plan; both routes must show it.
		{`set memorybudget '128k';
		for $a in dataset D for $b in dataset D
		where similarity-jaccard(word-tokens($a.t), word-tokens($b.t)) >= 0.5 and $a.id < $b.id
		return {'a': $a.id, 'b': $b.id}`, "data-scan"},
		// A selection's record filter is part of the plan on both routes.
		{`for $d in dataset D where edit-distance($d.t, 'marla') <= 1 return $d.id`,
			`filter:[edit-distance(t, "marla") <= 1]`},
	} {
		ex, err := db.Explain(nil, tc.req)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Query("explain " + tc.req)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, r := range res.Rows {
			rows = append(rows, r.Str())
		}
		if got, want := strings.TrimRight(ex.Plan, "\n"), strings.Join(rows, "\n"); got != want || !strings.Contains(got, tc.must) {
			t.Errorf("Explain plan differs from explain rows, or lacks %q:\n--- Explain\n%s\n--- explain\n%s", tc.must, got, want)
		}
	}
	for _, bad := range []string{
		`set bogus 'x'; for $d in dataset D return $d`,
		`set memorybudget 'lots'; for $d in dataset D return $d`,
		`use dataverse Nowhere; for $d in dataset D return $d`,
	} {
		if _, err := db.Explain(nil, bad); err == nil {
			t.Errorf("Explain(%q) should fail", bad)
		}
	}
}

func TestSetTOccurrence(t *testing.T) {
	db := openTestDB(t)
	for _, a := range []string{"scancount", "mergeskip", "divideskip"} {
		if err := db.SetTOccurrence(a); err != nil {
			t.Errorf("SetTOccurrence(%s): %v", a, err)
		}
	}
	if err := db.SetTOccurrence("nope"); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestQueryCancellation(t *testing.T) {
	db := openTestDB(t)
	db.MustExecute(`create dataset D primary key id;`)
	for i := 0; i < 2000; i++ {
		db.InsertJSON("D", `{"id": `+intString(i)+`, "t": "a b c d e f g h"}`)
	}
	db.Flush()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before it starts
	_, err := db.Execute(ctx, nil, `
		for $a in dataset D
		for $b in dataset D
		where similarity-jaccard(word-tokens($a.t), word-tokens($b.t)) >= 0.1
		return $a.id
	`)
	if err == nil {
		t.Error("cancelled query should error")
	}
}

func intString(i int) string {
	digits := "0123456789"
	if i == 0 {
		return "0"
	}
	var out []byte
	for i > 0 {
		out = append([]byte{digits[i%10]}, out...)
		i /= 10
	}
	return string(out)
}
