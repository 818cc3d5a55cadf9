package harness

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Process accounting for cpu_ms_per_op and rss_peak_mb covers this
// process and its live children (the tcp worker). getrusage's
// RUSAGE_CHILDREN only counts children already waited for, so live ones
// are read from /proc, where a clock tick is 10 ms.
const clockTick = 10 * time.Millisecond

// childPIDs lists the processes whose parent is this one.
func childPIDs() []int {
	self := os.Getpid()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if f := statFields(pid); len(f) > 1 && f[1] == strconv.Itoa(self) {
			out = append(out, pid)
		}
	}
	return out
}

// statFields returns /proc/pid/stat's fields after the command name
// (field 0 is the state, 1 the parent pid, 11 utime, 12 stime).
func statFields(pid int) []string {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return nil
	}
	// The command name is parenthesised and may itself hold spaces.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return nil
	}
	return strings.Fields(string(b[i+1:]))
}

// cpuTime is user+system CPU consumed so far by this process and its
// live children.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	total := time.Duration(0)
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		total = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	for _, pid := range childPIDs() {
		if f := statFields(pid); len(f) > 12 {
			u, _ := strconv.ParseInt(f[11], 10, 64)
			s, _ := strconv.ParseInt(f[12], 10, 64)
			total += time.Duration(u+s) * clockTick
		}
	}
	return total
}

// peakRSSMB is the peak resident set of this process plus that of each
// live child, in MiB.
func peakRSSMB() float64 {
	kb := vmHWM(os.Getpid())
	for _, pid := range childPIDs() {
		kb += vmHWM(pid)
	}
	return float64(kb) / 1024
}

func vmHWM(pid int) int64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}
