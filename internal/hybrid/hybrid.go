// Package hybrid implements the paper's §V direction-switch extension
// as a first-class registered engine: per call it routes the multiply
// to the vector-driven SpMSpV-bucket algorithm (internal/core) or the
// matrix-driven GraphMat algorithm (internal/baselines) — the SpMSpV
// analogue of Beamer's direction-optimizing BFS ("we will investigate
// when and if it is beneficial to switch to a matrix-driven
// algorithm", §V).
//
// By default the switch is the paper's cost model (Table I): the
// bucket side does O(flops) work per call, GraphMat does O(nzc + flops)
// because it scans every nonempty column, so a call runs matrix-driven
// iff its flops reach Kappa·nzc(A). The rule reads only counts of A and
// x, so routing is a pure function of (A, x): every engine built on the
// same matrix, on any host, routes every call the same way.
// Options.HybridThreshold pins a density threshold instead.
//
// Both sides are the registry's own slot-pinned, race-safe engines
// (see par.Slots), so one hybrid engine is safe for concurrent
// Multiply calls; the number of matrix-driven routings is reported
// through perf.Counters.DirectionSwitches.
package hybrid

import (
	"math"
	"sync/atomic"

	"spmspv/internal/baselines"
	"spmspv/internal/core"
	"spmspv/internal/engine"
	"spmspv/internal/perf"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// Kappa is the cost rule's crossover in flops per nonempty column of A:
// a call with flops(x) ≥ Kappa·nzc(A) runs matrix-driven.
// BenchmarkHybridCrossover measures it (EXPERIMENTS.md) on two meshes
// and two R-MAT graphs at t = 2; it is not measured at more threads.
const Kappa = 0.5

// The hybrid engine registers itself under engine.Hybrid; importing
// this package is what makes it constructible through the registry.
func init() {
	engine.Register(engine.Hybrid, "Hybrid",
		func(a *sparse.CSC, opt engine.Options) engine.Engine {
			return New(a, opt)
		}, "hybrid")
}

// Engine is the direction-switching SpMSpV engine. Output is always
// sorted (both sides are run in their sorted-output configuration), so
// the direction taken is invisible to callers except in the counters.
type Engine struct {
	bucket *core.Multiplier
	matrix *baselines.GraphMat
	a      *sparse.CSC
	// costRule routes by flops(x) ≥ minFlops = Kappa·nzc(A). Otherwise
	// threshold is the nnz(x)/n fraction at or above which the
	// matrix-driven side runs; +Inf pins the vector-driven side.
	costRule  bool
	minFlops  int64
	threshold float64

	switches atomic.Int64
}

// New builds both sides and resolves the switch from
// opt.HybridThreshold: zero selects the cost rule, positive pins that
// density threshold, negative pins the vector-driven side. The bucket
// side is forced to sorted output so both directions produce the same
// format.
func New(a *sparse.CSC, opt engine.Options) *Engine {
	h := NewWithThreshold(a, opt, opt.HybridThreshold)
	if opt.HybridThreshold == 0 {
		h.costRule = true
		h.minFlops = int64(math.Ceil(Kappa * float64(a.NZC())))
	}
	return h
}

// NewWithThreshold builds a hybrid engine with the given literal
// threshold — including 0, which routes every call to the
// matrix-driven side (the registry constructor treats 0 as the cost
// rule instead). A negative threshold pins the vector-driven side, the
// same meaning it has on Options.HybridThreshold. Intended for sweeps
// and tests.
func NewWithThreshold(a *sparse.CSC, opt engine.Options, threshold float64) *Engine {
	if threshold < 0 {
		threshold = math.Inf(1)
	}
	bopt := opt
	bopt.SortOutput = true
	return &Engine{
		bucket:    core.NewMultiplier(a, bopt),
		matrix:    baselines.NewGraphMat(a, opt.Threads),
		a:         a,
		threshold: threshold,
	}
}

// Threshold returns the pinned switch threshold (nnz(x)/n fraction);
// it reads 0 under the cost rule, which routes by flops instead.
func (h *Engine) Threshold() float64 { return h.threshold }

// matrixDriven reports whether x takes the matrix-driven side. The
// cost rule sums x's flops over its list, the vector-driven side's own
// input, and stops once they reach Kappa·nzc(A), so routing costs at
// most O(nnz(x)). Reading the list settles an in-place accumulator
// whose merge is still pending (sparse.Frontier.UnionInPlace). A pinned
// threshold compares nnz(x)/n with it and reads no list.
func (h *Engine) matrixDriven(x *sparse.Frontier) bool {
	if !h.costRule {
		return float64(x.NNZ()) >= h.threshold*float64(h.a.NumCols)
	}
	var flops int64
	for _, j := range x.List().Ind {
		if flops >= h.minFlops {
			break
		}
		flops += h.a.ColLen(j)
	}
	return flops >= h.minFlops
}

// Multiply computes y ← ⟨A·x, mask⟩ into the output frontier,
// dispatching on the switch and reading only the representation the
// chosen direction needs: the list for the bucket side, the shared
// bitmap (materialized at most once per frontier) for the matrix side.
// Both sides push the mask down and, with bitmap set, emit list+bitmap
// in one pass, which is what makes a direction-optimized frontier
// pipeline conversion-free: a dense level's output bitmap is exactly
// what the next dense level's matrix-driven input side wants.
func (h *Engine) Multiply(x, y *sparse.Frontier, sr semiring.Semiring, mask *sparse.BitVec, complement, bitmap bool) {
	if h.matrixDriven(x) {
		h.switches.Add(1)
		h.matrix.Multiply(x, y, sr, mask, complement, bitmap)
		return
	}
	h.bucket.Multiply(x, y, sr, mask, complement, bitmap)
}

// MultiplyBatch computes ys[q] ← ⟨A·xs[q], masks[q]⟩, routing each slot
// on its own: matrix-driven slots run the matrix-driven side one at a
// time, the remainder runs the bucket engine's batched multiply (one
// shared Estimate pass), with each slot's mask pushed down on
// whichever side the slot takes.
func (h *Engine) MultiplyBatch(xs, ys []*sparse.Frontier, sr semiring.Semiring, masks []*sparse.BitVec, complement, bitmap bool) {
	var bxs, bys []*sparse.Frontier
	var bmasks []*sparse.BitVec
	for q := range xs {
		var mask *sparse.BitVec
		if masks != nil {
			mask = masks[q]
		}
		if h.matrixDriven(xs[q]) {
			h.switches.Add(1)
			h.matrix.Multiply(xs[q], ys[q], sr, mask, complement, bitmap)
			continue
		}
		bxs = append(bxs, xs[q])
		bys = append(bys, ys[q])
		if masks != nil {
			bmasks = append(bmasks, mask)
		}
	}
	if len(bxs) > 0 {
		h.bucket.MultiplyBatch(bxs, bys, sr, bmasks, complement, bitmap)
	}
}

// Counters merges both sides' work and reports the direction switches.
func (h *Engine) Counters() perf.Counters {
	c := h.bucket.Counters()
	mc := h.matrix.Counters()
	c.Merge(&mc)
	c.DirectionSwitches += h.switches.Load()
	return c
}

// ResetCounters zeroes both sides and the switch count.
func (h *Engine) ResetCounters() {
	h.bucket.ResetCounters()
	h.matrix.ResetCounters()
	h.switches.Store(0)
}

// Name identifies the engine in benchmark tables.
func (h *Engine) Name() string { return "Hybrid" }
