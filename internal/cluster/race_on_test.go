//go:build race

package cluster

// raceEnabled reports whether the race detector is compiled in: it adds
// allocations of its own, so the allocation ceilings skip under it.
const raceEnabled = true
