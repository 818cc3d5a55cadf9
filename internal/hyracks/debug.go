package hyracks

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Hang diagnostics: when SIMDB_HANG_DUMP is set to a duration (e.g.
// "20s"), every job run arms a watchdog that prints each operator
// instance's blocking state (which port it is receiving on, or which
// consumer channel it is sending to) once the deadline passes. The
// channel pointers let a wait-for cycle be read straight off the dump.

// instanceState records what one operator instance (or one port writer
// of a fan-out) is currently blocked on.
type instanceState struct {
	name string
	part int
	mu   sync.Mutex
	kind string // "recv" | "send" | ""
	port int
	ch   chan frame
}

func (s *instanceState) set(kind string, port int, ch chan frame) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.kind, s.port, s.ch = kind, port, ch
	s.mu.Unlock()
}

func (s *instanceState) clear() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.kind = ""
	s.mu.Unlock()
}

// finish marks the instance as completed so hang dumps can separate
// finished operators from ones actively computing.
func (s *instanceState) finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.kind = "done"
	s.mu.Unlock()
}

func (s *instanceState) snapshot() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.kind {
	case "":
		return fmt.Sprintf("%s[%d]: running", s.name, s.part)
	case "done":
		return fmt.Sprintf("%s[%d]: done", s.name, s.part)
	}
	return fmt.Sprintf("%s[%d]: %s port %d chan %p (len %d cap %d)",
		s.name, s.part, s.kind, s.port, s.ch, len(s.ch), cap(s.ch))
}

// stateRegistry collects the instance states of one job run.
type stateRegistry struct {
	mu     sync.Mutex
	states []*instanceState
}

// add registers an instance's state. A nil registry (no watchdog armed)
// returns nil, whose methods do nothing, so an unwatched job keeps no
// state at all.
func (r *stateRegistry) add(name string, part int) *instanceState {
	if r == nil {
		return nil
	}
	st := &instanceState{name: name, part: part}
	r.mu.Lock()
	r.states = append(r.states, st)
	r.mu.Unlock()
	return st
}

// dump renders all non-idle states sorted by operator name.
func (r *stateRegistry) dump() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	lines := make([]string, 0, len(r.states))
	for _, s := range r.states {
		lines = append(lines, s.snapshot())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// hangDumpAfter returns the configured watchdog delay, or 0.
func hangDumpAfter() time.Duration {
	v := os.Getenv("SIMDB_HANG_DUMP")
	if v == "" {
		return 0
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0
	}
	return d
}

// armWatchdog prints the registry once after the delay unless stopped.
func armWatchdog(reg *stateRegistry, delay time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(delay):
			fmt.Fprintf(os.Stderr, "=== SIMDB hang dump (job still running after %s) ===\n%s\n", delay, reg.dump())
		}
	}()
	return func() { close(done) }
}
