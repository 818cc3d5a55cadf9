//go:build !linux

package harness

import "time"

var probeEpoch = time.Now()

// threadCPUNs falls back to the wall clock where the thread CPU clock is
// not to be had through package syscall; the quanta then include the
// time the thread waited for a core.
func threadCPUNs() int64 { return int64(time.Since(probeEpoch)) }

func allowedCPUs() []int { return nil }

func pinThread(int) {}

func allocOffHeap(n int) []uint32 { return make([]uint32, n) }
