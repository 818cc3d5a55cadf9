package obs

import (
	"io"
	"log/slog"
	"math"
	"os"
)

// std is the process logger: JSON records, one a line, on stderr, at
// the level the SIMDB_LOG environment variable names ("debug", "info",
// "warn", "error"), otherwise silent — tests and library embedders stay
// quiet unless they opt in. It is this package's own logger, not
// slog's default, so an embedder's default logger is left alone.
var std = newLogger(os.Stderr, os.Getenv("SIMDB_LOG"))

// Log returns the process logger.
func Log() *slog.Logger { return std }

// levelOff is above every level a record is logged at.
const levelOff = slog.Level(math.MaxInt)

// logLevel reads a level name as slog does, in any case; ok is false
// for any other name.
func logLevel(name string) (level slog.Level, ok bool) {
	return level, level.UnmarshalText([]byte(name)) == nil
}

// newLogger returns a JSON logger on w at the named level, or a silent
// one when name is not a level.
func newLogger(w io.Writer, name string) *slog.Logger {
	level, ok := logLevel(name)
	if !ok {
		level = levelOff
	}
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}
