package harness

import (
	"syscall"
	"unsafe"
)

// threadCPUNs is the calling thread's CPU time. The quantum is timed on
// this clock, not the wall clock, so that time the thread spent waiting
// for a core (the load keeps them all busy) is not taken for a slow host.
func threadCPUNs() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	// The call cannot fail: the clock exists and ts is writable.
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// cpuMask is the kernel's CPU set, 1024 bits.
type cpuMask [16]uint64

// allowedCPUs lists the cores this process may run on.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil
	}
	var out []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// pinThread keeps the calling thread on one core; where the kernel
// refuses, the thread stays where it may.
func pinThread(cpu int) {
	if cpu < 0 {
		return
	}
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
}

// allocOffHeap returns n zeroed entries the garbage collector knows
// nothing of; they live as long as the process.
func allocOffHeap(n int) []uint32 {
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]uint32, n)
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}
