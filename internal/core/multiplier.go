package core

import (
	"sync"

	"spmspv/internal/par"
	"spmspv/internal/perf"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// Multiplier binds a matrix, slot-pinned reusable workspaces and
// options into the engine.Engine contract that the baselines also
// implement, so graph algorithms and the benchmark harness can treat
// all SpMSpV engines interchangeably.
//
// A Multiplier is safe for concurrent use: each multiply claims a
// workspace slot from a fixed GOMAXPROCS-sized par.Slots set — one
// goroutine keeps the paper's single-preallocation behavior (§III-A)
// and always gets the same warm workspace back; up to GOMAXPROCS
// concurrent callers each pin a slot, and only callers beyond that
// spill to a sync.Pool overflow — and work counters are aggregated
// race-free when the workspace is returned.
type Multiplier struct {
	A   *sparse.CSC
	Opt Options

	ws *par.Slots[Workspace]

	mu       sync.Mutex
	counters perf.Counters // aggregate of all retired calls
	steps    perf.StepTimes
}

// NewMultiplier returns a bucket-algorithm multiplier for a; workspaces
// are pre-sized for the matrix when their slot is first claimed.
func NewMultiplier(a *sparse.CSC, opt Options) *Multiplier {
	mu := &Multiplier{A: a, Opt: opt}
	mu.ws = par.NewSlots(par.Threads(0), func() *Workspace { return NewWorkspace(a.NumRows, 0) })
	return mu
}

// Multiply computes y ← ⟨A·x, mask⟩ into the output frontier with the
// SpMSpV-bucket algorithm, reading the frontier's list (always present;
// no conversion ever runs). A non-nil mask is pushed into the merge
// step, so bucket entries it kills never reach the SPA output; with
// bitmap set, Step 3's per-bucket concatenation scatters each bucket's
// unique indices into the output bitmap as it writes them to the list,
// so a consumer that prefers the bitmap reads it with zero conversions.
func (mu *Multiplier) Multiply(x, y *sparse.Frontier, sr semiring.Semiring, mask *sparse.BitVec, complement, bitmap bool) {
	ws, slot := mu.ws.Get()
	list := y.BeginOutput()
	var bits *sparse.BitVec
	if bitmap {
		bits = y.OutputBits(mu.A.NumRows)
	}
	multiplyOne(mu.A, x.List(), list, sr, ws, mu.Opt, mask, complement, bits)
	y.FinishOutput(bitmap)
	mu.retire(ws, slot)
}

// MultiplyInto computes y ← A·x into the output frontier, emitting the
// bitmap natively.
func (mu *Multiplier) MultiplyInto(x, y *sparse.Frontier, sr semiring.Semiring) {
	mu.Multiply(x, y, sr, nil, false, true)
}

// MultiplyIntoMasked computes y ← ⟨A·x, mask⟩ into the output
// frontier, emitting the bitmap natively.
func (mu *Multiplier) MultiplyIntoMasked(x, y *sparse.Frontier, sr semiring.Semiring, mask *sparse.BitVec, complement bool) {
	mu.Multiply(x, y, sr, mask, complement, true)
}

// retire folds the workspace's per-call work into the multiplier's
// aggregate counters under the lock, zeroes it, and releases the
// workspace's slot (or returns an overflow workspace to the pool).
func (mu *Multiplier) retire(ws *Workspace, slot int) {
	c := ws.TotalCounters()
	ws.ResetCounters()
	mu.mu.Lock()
	mu.counters.Merge(&c)
	mu.steps = ws.Steps
	mu.mu.Unlock()
	mu.ws.Put(ws, slot)
}

// Counters aggregates the work performed since the last ResetCounters.
func (mu *Multiplier) Counters() perf.Counters {
	mu.mu.Lock()
	defer mu.mu.Unlock()
	return mu.counters
}

// ResetCounters zeroes the accumulated work counters.
func (mu *Multiplier) ResetCounters() {
	mu.mu.Lock()
	defer mu.mu.Unlock()
	mu.counters.Reset()
}

// Steps returns the per-phase timing breakdown of the most recently
// retired call (meaningful when calls are not racing each other).
func (mu *Multiplier) Steps() perf.StepTimes {
	mu.mu.Lock()
	defer mu.mu.Unlock()
	return mu.steps
}

// CallThreads returns the number of threads a multiply of mu over x
// runs on: Opt.Threads, clamped to nnz(x) and to one thread per grain
// of the call's flops. Benchmark tables label their bucket rows with
// it.
func (mu *Multiplier) CallThreads(x *sparse.SpVec) int {
	return callThreads(mu.Opt.WithDefaults().Threads, int64(x.NNZ()), frontierWork(mu.A, x))
}

// Name identifies the algorithm in benchmark tables.
func (mu *Multiplier) Name() string { return "SpMSpV-bucket" }
