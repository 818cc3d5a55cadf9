package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestLoggerLevelGating(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelWarn)
	l.Debug("d")
	l.Info("i")
	if buf.Len() != 0 {
		t.Fatalf("below-level records emitted: %q", buf.String())
	}
	l.Warn("w")
	l.Error("e")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	NewLogger(&buf, LevelOff).Error("suppressed")
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Errorf("LevelOff still emitted: %q", buf.String())
	}
	if !NewLogger(&buf, LevelDebug).Enabled(LevelDebug) {
		t.Error("debug logger should enable debug")
	}
	if NewLogger(&buf, LevelOff).Enabled(LevelError) {
		t.Error("off logger should enable nothing")
	}
}

func TestLoggerJSONShape(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Info("query done", "wall_ms", 12.5, "rows", 42, "cached", true,
		"q", `select "x"`, "dur", 3*time.Millisecond, "took", int64(99))
	line := strings.TrimSpace(buf.String())
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("log line is not valid JSON: %v\n%s", err, line)
	}
	if m["level"] != "info" || m["msg"] != "query done" {
		t.Errorf("level/msg = %v/%v", m["level"], m["msg"])
	}
	if m["rows"] != float64(42) || m["cached"] != true || m["wall_ms"] != 12.5 {
		t.Errorf("fields wrong: %v", m)
	}
	if m["q"] != `select "x"` {
		t.Errorf("quoted string mangled: %v", m["q"])
	}
	if m["dur"] != "3ms" {
		t.Errorf("duration = %v", m["dur"])
	}
	if _, ok := m["ts"]; !ok {
		t.Error("missing ts")
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Error("record should be exactly one line")
	}
}

func TestLoggerOddKVAndBadKey(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Info("odd", "only-value-follows")
	var m map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &m); err != nil {
		t.Fatalf("odd kv broke JSON: %v\n%s", err, buf.String())
	}
	if m["!BADKEY"] != "only-value-follows" {
		t.Errorf("odd trailing value not captured: %v", m)
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]Level{
		"debug": LevelDebug, "INFO": LevelInfo, "Warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "": LevelOff, "bogus": LevelOff,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}
