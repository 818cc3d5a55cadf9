package hyracks

import (
	"sync/atomic"

	"simdb/internal/adm"
)

// MinQueryMemory is the floor any positive query budget is clamped to.
// Below this, even the fixed costs of spilling (merge read buffers, a
// single input frame) could not be accounted truthfully, so "high-water
// stays within budget" would be a lie rather than a guarantee.
const MinQueryMemory int64 = 64 << 10

// MemoryAccountant enforces one query's operator memory budget. Every
// blocking operator instance reserves bytes through a MemGrant before
// buffering tuples; a failed reservation is the spill signal. Reserve
// and Release are lock-free, so instances across the job's goroutines
// share the budget without a bottleneck.
type MemoryAccountant struct {
	budget int64
	used   atomic.Int64
	high   atomic.Int64
	forced atomic.Int64
}

// NewMemoryAccountant returns an accountant for the given budget in
// bytes. Budgets below MinQueryMemory are raised to it; a budget <= 0
// returns nil, which every grant treats as unlimited.
func NewMemoryAccountant(budget int64) *MemoryAccountant {
	if budget <= 0 {
		return nil
	}
	if budget < MinQueryMemory {
		budget = MinQueryMemory
	}
	return &MemoryAccountant{budget: budget}
}

// Budget returns the enforced budget in bytes (0 for nil: unlimited).
func (a *MemoryAccountant) Budget() int64 {
	if a == nil {
		return 0
	}
	return a.budget
}

// Used returns the currently reserved bytes.
func (a *MemoryAccountant) Used() int64 {
	if a == nil {
		return 0
	}
	return a.used.Load()
}

// HighWater returns the maximum reservation ever held.
func (a *MemoryAccountant) HighWater() int64 {
	if a == nil {
		return 0
	}
	return a.high.Load()
}

// ForcedBytes returns bytes that were force-reserved past the budget
// (single tuples or minimum working sets larger than the whole budget —
// memory that exists regardless and is surfaced rather than hidden).
func (a *MemoryAccountant) ForcedBytes() int64 {
	if a == nil {
		return 0
	}
	return a.forced.Load()
}

// reserve atomically reserves n bytes if they fit the budget.
func (a *MemoryAccountant) reserve(n int64) bool {
	for {
		cur := a.used.Load()
		if cur+n > a.budget {
			return false
		}
		if a.used.CompareAndSwap(cur, cur+n) {
			a.noteHigh(cur + n)
			return true
		}
	}
}

// force reserves n bytes unconditionally.
func (a *MemoryAccountant) force(n int64) {
	a.noteHigh(a.used.Add(n))
	a.forced.Add(n)
}

func (a *MemoryAccountant) release(n int64) {
	a.used.Add(-n)
}

func (a *MemoryAccountant) noteHigh(v int64) {
	for {
		h := a.high.Load()
		if v <= h || a.high.CompareAndSwap(h, v) {
			return
		}
	}
}

// MemGrant is one operator instance's handle on the query accountant.
// It tracks the bytes this instance holds so ReleaseAll can return them
// even on error paths. Grants are single-goroutine, like the instances
// that own them.
type MemGrant struct {
	acct *MemoryAccountant
	held int64
}

// Grant returns a fresh grant against the instance's accountant. With
// no accountant configured the grant is unlimited: every Reserve
// succeeds and nothing is tracked.
func (ctx *TaskCtx) Grant() *MemGrant { return &MemGrant{acct: ctx.Mem} }

// Reserve asks for n more bytes; false means the budget is exhausted
// and the caller should spill (or Force if it structurally cannot).
func (g *MemGrant) Reserve(n int64) bool {
	if g.acct == nil {
		return true
	}
	if !g.acct.reserve(n) {
		return false
	}
	g.held += n
	return true
}

// Force reserves n bytes unconditionally. Use only when the memory is
// held no matter what — a single in-flight tuple, or the minimum spill
// working set — so the overage is recorded instead of invisible.
func (g *MemGrant) Force(n int64) {
	if g.acct == nil {
		return
	}
	g.acct.force(n)
	g.held += n
}

// Release returns n bytes to the budget.
func (g *MemGrant) Release(n int64) {
	if g.acct == nil || n <= 0 {
		return
	}
	if n > g.held {
		n = g.held
	}
	g.held -= n
	g.acct.release(n)
}

// ReleaseAll returns everything this grant still holds.
func (g *MemGrant) ReleaseAll() {
	if g.acct == nil || g.held == 0 {
		return
	}
	g.acct.release(g.held)
	g.held = 0
}

// Retain hands n held bytes over to the query: they stay reserved
// against its budget until it ends, and ReleaseAll no longer returns
// them — memory an operator passes to something that outlives it.
func (g *MemGrant) Retain(n int64) {
	if g.acct == nil || n <= 0 {
		return
	}
	g.held -= min(n, g.held)
}

// Held returns the bytes currently held by this grant.
func (g *MemGrant) Held() int64 { return g.held }

// TupleMemSize estimates the in-memory footprint of a buffered tuple:
// its encoded payload plus per-value boxing and slice-header overhead.
// An estimate is enough — the accountant bounds aggregate buffering, it
// is not a garbage-collector ledger.
func TupleMemSize(t Tuple) int64 {
	return int64(t.EncodedSize()) + 24*int64(len(t)) + 48
}

// valueMemSize estimates one buffered adm value (listify elements).
func valueMemSize(v adm.Value) int64 {
	return int64(adm.EncodedSize(v)) + 32
}
