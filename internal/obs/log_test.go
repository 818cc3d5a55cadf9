package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

// TestLoggerLevelGating: the SIMDB_LOG value gates the records by level,
// an unknown or empty value silences the logger, and every record is
// one JSON object on one line.
func TestLoggerLevelGating(t *testing.T) {
	var buf bytes.Buffer
	l := newLogger(&buf, "warn")
	l.Debug("d")
	l.Info("i")
	if buf.Len() != 0 {
		t.Fatalf("below-level records emitted: %q", buf.String())
	}
	l.Warn("w", "rows", 2)
	l.Error("e")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &m); err != nil {
		t.Fatalf("log line is not valid JSON: %v\n%s", err, lines[0])
	}
	if m["level"] != "WARN" || m["msg"] != "w" || m["rows"] != float64(2) {
		t.Errorf("record = %v", m)
	}
	for _, name := range []string{"", "off", "bogus"} {
		if l := newLogger(&buf, name); l.Enabled(context.Background(), slog.LevelError) {
			t.Errorf("SIMDB_LOG=%q enables error records", name)
		}
	}
	newLogger(&buf, "").Error("suppressed")
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Errorf("silent logger still emitted: %q", buf.String())
	}
	if !newLogger(&buf, "debug").Enabled(context.Background(), slog.LevelDebug) {
		t.Error("debug logger should enable debug")
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo, "Warn": slog.LevelWarn,
		"error": slog.LevelError,
	}
	for in, want := range cases {
		if got, ok := logLevel(in); !ok || got != want {
			t.Errorf("logLevel(%q) = %v, %v, want %v", in, got, ok, want)
		}
	}
	for _, in := range []string{"", "bogus", "warning"} {
		if _, ok := logLevel(in); ok {
			t.Errorf("logLevel(%q) accepted", in)
		}
	}
}
