package harness

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"simdb/benchmark/stats"
)

// The host this benchmark runs on is a few virtual cores of a shared
// machine, and what its neighbours do changes how fast those cores run
// the same code by up to a half, in phases of seconds to minutes
// (README.md, "How steady it is"). A run shorter than a phase cannot
// average that out, so the benchmark measures it. Beside the load, one
// thread pinned to each core runs a fixed quantum of work every
// probeEvery and notes the CPU time the quantum took. The mean of that
// time over the cores, over probeRefNs, is the host's slowdown at that
// moment, and every end-to-end time is reported divided by the slowdown
// of the moment it was measured in (throughput multiplied), so it reads
// as if the host had run at its reference speed throughout. Memory,
// space and counts are left alone.
//
// The quantum is the two things a query engine spends its time on:
// branching arithmetic on data that sits in the first-level cache (an
// edit-distance table over two short strings), which a busy sibling
// thread or a lowered clock slows, and independent reads all over a
// table larger than the private caches, which a neighbour that fills the
// shared cache or the memory channels slows. It takes nothing from the
// engine, so a change to the engine cannot move it. README.md has the
// measurements by which this pair was chosen over plainer loops: over
// one-second slices of three workloads the engine's CPU time per query
// follows the quantum's with an exponent of 1.05 to 1.16.
const (
	// probeEdits and probeReads are the quantum: about half a millisecond
	// each.
	probeEdits = 40
	probeReads = 40_000
	// probeTableLen is the table's length in 4-byte entries: 8 MiB, twice
	// a core's second-level cache here, shared by the probe threads (and
	// part of rss_peak_mb).
	probeTableLen = 2 << 20
	// probeEvery is the pause between two quanta on one core; with a
	// quantum of about a millisecond a probe takes 2 % of its core.
	probeEvery = 50 * time.Millisecond
	// probeRefNs is the CPU time of one quantum on the host the benchmark
	// was defined on (Xeon 2.1 GHz guest, Go 1.24) beside a running
	// workload while the neighbours are quiet: the 10th percentile over the
	// runs README.md reports. It only fixes the scale; two runs on one
	// machine compare whatever it is.
	probeRefNs = 860_000
	// maxProbes bounds the probe threads on a machine with many cores.
	maxProbes = 8
)

// probeSample is one quantum: when it ended and the thread CPU time it
// took.
type probeSample struct {
	at time.Time
	ns int64
}

// hostProbe runs the quanta, one goroutine locked to a thread per core,
// until stopped.
type hostProbe struct {
	stop   chan struct{}
	wg     sync.WaitGroup
	perCPU [][]probeSample // each owned by its goroutine until wg is done
	// sink takes the quanta's results, so that the compiler keeps the work.
	sink atomic.Uint64
}

// probeStrings are what probeEdit compares; 63 bytes each.
const (
	probeStringA = "the quick brown fox jumps over the lazy dog and runs away fast!"
	probeStringB = "a quick brown dog jumps over the lazy fox and walks away slowly"
)

// probeEdit is the edit distance of a and b by the textbook table, one
// row kept; row has len(b)+1 entries.
func probeEdit(a, b []byte, row []int) int {
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		diag := row[0]
		row[0] = i
		for j := 1; j <= len(b); j++ {
			up := row[j]
			c := diag
			if a[i-1] != b[j-1] {
				c++
			}
			c = min(c, row[j-1]+1, up+1)
			row[j] = c
			diag = up
		}
	}
	return row[len(b)]
}

// probeTable is the table probeRead reads, filled once. It is not on the
// Go heap, where its 8 MiB would count as live data and let the engine's
// garbage pile up 8 MiB higher before each collection.
var probeTable = sync.OnceValue(func() []uint32 {
	t := allocOffHeap(probeTableLen)
	for i := range t {
		t[i] = uint32(i) * 2654435761
	}
	return t
})

// probeRead sums n entries of t (a power of two long) at positions a
// generator picks, none depending on the one before, so that several
// reads are under way at once as in a hash join or an index lookup.
func probeRead(t []uint32, n int, seed uint64) uint64 {
	var sum uint64
	x, mask := seed, uint64(len(t)-1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		sum += uint64(t[(x>>20)&mask])
	}
	return sum
}

func startHostProbe() *hostProbe {
	cpus := allowedCPUs()
	if len(cpus) == 0 {
		cpus = []int{-1} // unknown: one probe, wherever the kernel runs it
	}
	cpus = cpus[:min(len(cpus), maxProbes)]
	p := &hostProbe{stop: make(chan struct{}), perCPU: make([][]probeSample, len(cpus))}
	for i, cpu := range cpus {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			// The thread CPU clock is the clock of one thread, and the thread
			// is the thing pinned: stay on it, and let it end with the
			// goroutine (no UnlockOSThread) so that no pinned thread goes back
			// to the runtime's pool.
			runtime.LockOSThread()
			pinThread(cpu)
			table := probeTable()
			a, b := []byte(probeStringA), []byte(probeStringB)
			row := make([]int, len(b)+1)
			tick := time.NewTicker(probeEvery)
			defer tick.Stop()
			for n := uint64(0); ; n++ {
				var sum uint64
				t0 := threadCPUNs()
				for r := 0; r < probeEdits; r++ {
					a[r] ^= 1 // another pair every time
					sum += uint64(probeEdit(a, b, row))
				}
				sum += probeRead(table, probeReads, n)
				ns := threadCPUNs() - t0
				p.sink.Add(sum)
				p.perCPU[i] = append(p.perCPU[i], probeSample{at: time.Now(), ns: ns})
				select {
				case <-p.stop:
					return
				case <-tick.C:
				}
			}
		}()
	}
	return p
}

// Stop ends the probe and returns what it saw.
func (p *hostProbe) Stop() hostSpeed {
	close(p.stop)
	p.wg.Wait()
	return hostSpeed(p.perCPU)
}

// hostSpeed is a probe's samples, in time order for each core.
type hostSpeed [][]probeSample

// slowdown is the mean over the cores of the median quantum in
// [from, to), over the reference. A core with no quantum in the interval
// takes the two nearest on either side; with no quantum at all it is 1.
func (h hostSpeed) slowdown(from, to time.Time) float64 {
	var sum float64
	n := 0
	for _, s := range h {
		lo := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(from) })
		hi := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(to) })
		if lo == hi {
			lo, hi = max(lo-2, 0), min(hi+2, len(s))
		}
		if lo == hi {
			continue
		}
		ns := make([]float64, 0, hi-lo)
		for _, q := range s[lo:hi] {
			ns = append(ns, float64(q.ns))
		}
		sum += stats.Median(ns)
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n) / probeRefNs
}
