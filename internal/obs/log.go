package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level is a log severity.
type Level int32

// Log levels, in increasing severity. LevelOff disables all output.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	LevelOff
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	case LevelOff:
		return "off"
	}
	return fmt.Sprintf("level(%d)", int32(l))
}

// ParseLevel maps a level name to a Level; unknown names mean LevelOff.
func ParseLevel(s string) Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug
	case "info":
		return LevelInfo
	case "warn", "warning":
		return LevelWarn
	case "error":
		return LevelError
	}
	return LevelOff
}

// Logger is a leveled structured logger emitting one JSON object per
// line. The level is fixed at construction, so disabled calls cost
// nearly nothing; rendering happens only for enabled records. Safe for
// concurrent use.
type Logger struct {
	level Level

	mu  sync.Mutex
	out io.Writer
}

// NewLogger builds a logger writing to w at the given minimum level.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{out: w, level: level}
}

// std is the process default logger: stderr, level taken from the
// SIMDB_LOG environment variable ("debug", "info", "warn", "error"),
// otherwise off — tests and library embedders stay quiet unless they
// opt in.
var std = NewLogger(os.Stderr, ParseLevel(os.Getenv("SIMDB_LOG")))

// Log returns the process default logger.
func Log() *Logger { return std }

// SetOutput redirects the logger (tests, log shipping).
func (l *Logger) SetOutput(w io.Writer) {
	l.mu.Lock()
	l.out = w
	l.mu.Unlock()
}

// Enabled reports whether records at level would be emitted.
func (l *Logger) Enabled(level Level) bool {
	return level >= l.level && l.level != LevelOff
}

// Debug logs at debug level. kv is alternating key, value pairs.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at error level.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	b.WriteString(`{"ts":`)
	b.WriteString(strconv.Quote(time.Now().UTC().Format(time.RFC3339Nano)))
	b.WriteString(`,"level":"`)
	b.WriteString(level.String())
	b.WriteString(`","msg":`)
	b.WriteString(strconv.Quote(msg))
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		b.WriteByte(',')
		b.WriteString(strconv.Quote(key))
		b.WriteByte(':')
		b.WriteString(appendJSONValue(kv[i+1]))
	}
	if len(kv)%2 == 1 {
		b.WriteString(`,"!BADKEY":`)
		b.WriteString(appendJSONValue(kv[len(kv)-1]))
	}
	b.WriteString("}\n")
	l.mu.Lock()
	io.WriteString(l.out, b.String())
	l.mu.Unlock()
}

// appendJSONValue renders one field value as JSON, falling back to a
// quoted string form for unmarshalable values.
func appendJSONValue(v any) string {
	switch x := v.(type) {
	case string:
		return strconv.Quote(x)
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case bool:
		return strconv.FormatBool(x)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case time.Duration:
		return strconv.Quote(x.String())
	case error:
		return strconv.Quote(x.Error())
	}
	data, err := json.Marshal(v)
	if err != nil {
		return strconv.Quote(fmt.Sprint(v))
	}
	return string(data)
}
