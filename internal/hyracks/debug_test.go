package hyracks

import (
	"strings"
	"testing"
	"time"
)

func TestInstanceStateSnapshot(t *testing.T) {
	var s *instanceState
	// nil receivers are safe everywhere.
	s.set("recv", 0, nil)
	s.clear()
	s.finish()
	// An unwatched job (nil registry) keeps no state.
	var none *stateRegistry
	if st := none.add("Join", 2); st != nil {
		t.Errorf("nil registry returned %+v, want nil", st)
	}

	reg := &stateRegistry{}
	st := reg.add("Join", 2)
	if got := st.snapshot(); got != "Join[2]: running" {
		t.Errorf("snapshot = %q", got)
	}
	ch := make(chan frame, 4)
	ch <- frame{}
	st.set("send", 1, ch)
	snap := st.snapshot()
	if !strings.Contains(snap, "send port 1") || !strings.Contains(snap, "len 1 cap 4") {
		t.Errorf("snapshot = %q", snap)
	}
	st.finish()
	if got := st.snapshot(); got != "Join[2]: done" {
		t.Errorf("snapshot = %q", got)
	}
	if !strings.Contains(reg.dump(), "Join[2]") {
		t.Error("dump missing instance")
	}
}

func TestHangDumpConfig(t *testing.T) {
	t.Setenv("SIMDB_HANG_DUMP", "")
	if hangDumpAfter() != 0 {
		t.Error("empty env should disable")
	}
	t.Setenv("SIMDB_HANG_DUMP", "bogus")
	if hangDumpAfter() != 0 {
		t.Error("bad duration should disable")
	}
	t.Setenv("SIMDB_HANG_DUMP", "250ms")
	if hangDumpAfter() != 250*time.Millisecond {
		t.Error("duration should parse")
	}
}

func TestWatchdogStops(t *testing.T) {
	reg := &stateRegistry{}
	stop := armWatchdog(reg, time.Hour)
	stop() // must not fire or leak
}
