package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyEnv builds an environment small enough for unit tests.
func tinyEnv(t *testing.T) *Env {
	t.Helper()
	e := NewEnv(t.TempDir())
	e.Scale = 400
	e.SelQueries = 2
	e.JoinQueries = 1
	e.Out = &bytes.Buffer{}
	t.Cleanup(func() { e.Close() })
	return e
}

func output(e *Env) string { return e.Out.(*bytes.Buffer).String() }

func TestTables(t *testing.T) {
	e := tinyEnv(t)
	if err := e.Table3(); err != nil {
		t.Fatal(err)
	}
	if err := e.Table4(); err != nil {
		t.Fatal(err)
	}
	if err := e.Table5(); err != nil {
		t.Fatal(err)
	}
	if err := e.Table6(); err != nil {
		t.Fatal(err)
	}
	out := output(e)
	for _, want := range []string{"Table 3", "AmazonReview", "Table 4", "Table 5", "2-gram", "Table 6", "Candidates"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestSelectionFigures(t *testing.T) {
	e := tinyEnv(t)
	if err := e.Fig22a(); err != nil {
		t.Fatal(err)
	}
	if err := e.Fig22b(); err != nil {
		t.Fatal(err)
	}
	out := output(e)
	if !strings.Contains(out, "Figure 22(a)") || !strings.Contains(out, "Figure 22(b)") {
		t.Errorf("missing figure headers:\n%s", out)
	}
}

func TestJoinFigures(t *testing.T) {
	e := tinyEnv(t)
	if err := e.Fig24a(); err != nil {
		t.Fatal(err)
	}
	if err := e.Fig24b(); err != nil {
		t.Fatal(err)
	}
	if err := e.Fig15(); err != nil {
		t.Fatal(err)
	}
	out := output(e)
	if !strings.Contains(out, "Figure 24(a)") || !strings.Contains(out, "Figure 15") {
		t.Errorf("missing figure headers:\n%s", out)
	}
	if !strings.Contains(out, "TOTAL") {
		t.Error("Figure 15 totals missing")
	}
}

func TestRunUnknown(t *testing.T) {
	e := tinyEnv(t)
	if err := e.Run("nope"); err == nil {
		t.Error("unknown experiment should error")
	}
}

// TestScanBench smoke-runs the scan sweep at test scale. It checks the
// report holds its two cells and that they agreed on the row count
// (ScanBench itself fails on disagreement); the speedup is not asserted
// here — the tiny scale and test-machine noise make it meaningless.
func TestScanBench(t *testing.T) {
	e := tinyEnv(t)
	e.ReportDir = t.TempDir()
	if err := e.ScanBench(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(e.ReportDir, "BENCH_scan.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report ScanReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Cells) != 2 || report.Cells[0].Pushdown || !report.Cells[1].Pushdown {
		t.Fatalf("report cells %+v, want scan-all then pushdown", report.Cells)
	}
	if report.Cells[0].Rows == 0 {
		t.Error("scan query matched no rows; the sweep measured nothing")
	}
	if !strings.Contains(output(e), "speedup") {
		t.Errorf("missing speedup summary:\n%s", output(e))
	}
}
