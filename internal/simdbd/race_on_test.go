//go:build race

package simdbd

// raceEnabled reports whether the race detector is compiled in: it adds
// allocations of its own, so the allocation ceiling skips under it.
const raceEnabled = true
