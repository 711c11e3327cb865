// Package hybrid implements the paper's §V direction-switch extension
// as a first-class registered engine: per call it routes the multiply
// to the vector-driven SpMSpV-bucket algorithm (internal/core) or the
// matrix-driven GraphMat algorithm (internal/baselines) depending on
// input density — the SpMSpV analogue of Beamer's direction-optimizing
// BFS ("we will investigate when and if it is beneficial to switch to
// a matrix-driven algorithm", §V).
//
// The switch point is the fraction of columns that must be active
// before the matrix-driven side runs. It comes from
// Options.HybridThreshold, or — when that is zero — from a calibration
// routine that times a few probe multiplies on the bound matrix at
// construction (see calibrate.go), so the engine adapts to the matrix
// and host rather than shipping a magic constant.
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
	// threshold is the nnz(x)/n fraction at or above which the
	// matrix-driven side runs; +Inf pins the vector-driven side.
	threshold  float64
	calibrated bool
	fromCache  bool
	n          sparse.Index

	switches atomic.Int64
}

// New builds both sides and resolves the switch threshold from opt:
// positive is used as-is, zero asks for calibration from probe
// multiplies, negative pins the vector-driven side. The bucket side is
// forced to sorted output so both directions produce the same format.
func New(a *sparse.CSC, opt engine.Options) *Engine {
	th := opt.HybridThreshold
	if th < 0 {
		th = math.Inf(1)
	}
	bopt := opt
	bopt.SortOutput = true
	h := &Engine{
		bucket:    core.NewMultiplier(a, bopt),
		matrix:    baselines.NewGraphMat(a, opt.Threads),
		threshold: th,
		n:         a.NumCols,
	}
	if opt.HybridThreshold == 0 {
		fp := ""
		if opt.CalibrationCache != "" {
			fp = Fingerprint(a)
			if !opt.Recalibrate {
				if th, ok := loadThreshold(opt.CalibrationCache, fp); ok {
					h.threshold = th
					h.calibrated = true
					h.fromCache = true
					return h
				}
			}
		}
		h.threshold = calibrate(h.bucket, h.matrix, a)
		h.calibrated = true
		// Probe multiplies must not leak into the caller's work
		// accounting.
		h.ResetCounters()
		if fp != "" {
			// Best-effort persistence: a read-only or broken cache
			// location must not fail engine construction.
			_ = storeThreshold(opt.CalibrationCache, fp, h.threshold)
		}
	}
	return h
}

// NewWithThreshold builds a hybrid engine with the given literal
// threshold — including 0, which routes every call to the
// matrix-driven side (the registry constructor treats 0 as "calibrate"
// instead). A negative threshold pins the vector-driven side, the same
// meaning it has on Options.HybridThreshold. Intended for sweeps and
// tests.
func NewWithThreshold(a *sparse.CSC, opt engine.Options, threshold float64) *Engine {
	opt.HybridThreshold = -1 // suppress calibration; overwritten below
	h := New(a, opt)
	if threshold < 0 {
		threshold = math.Inf(1)
	}
	h.threshold = threshold
	h.calibrated = false
	return h
}

// Threshold returns the active switch threshold (nnz(x)/n fraction).
func (h *Engine) Threshold() float64 { return h.threshold }

// matrixDriven reports whether an input with f nonzeros takes the
// matrix-driven side.
func (h *Engine) matrixDriven(f int) bool {
	return float64(f) >= h.threshold*float64(h.n)
}

// Multiply computes y ← ⟨A·x, mask⟩ into the output frontier,
// dispatching on input density and reading only the representation the
// chosen direction needs: the list for the bucket side, the shared
// bitmap (materialized at most once per frontier) for the matrix side.
// Both sides push the mask down and, with bitmap set, emit list+bitmap
// in one pass, which is what makes a direction-optimized frontier
// pipeline conversion-free: a dense level's output bitmap is exactly
// what the next dense level's matrix-driven input side wants.
func (h *Engine) Multiply(x, y *sparse.Frontier, sr semiring.Semiring, mask *sparse.BitVec, complement, bitmap bool) {
	if h.matrixDriven(x.NNZ()) {
		h.switches.Add(1)
		h.matrix.Multiply(x, y, sr, mask, complement, bitmap)
		return
	}
	h.bucket.Multiply(x, y, sr, mask, complement, bitmap)
}

// MultiplyBatch computes ys[q] ← ⟨A·xs[q], masks[q]⟩, routing each slot
// by its own density: dense slots run the matrix-driven side one at a
// time, the sparse remainder runs the bucket engine's batched multiply
// (one shared Estimate pass), with each slot's mask pushed down on
// whichever side the slot takes.
func (h *Engine) MultiplyBatch(xs, ys []*sparse.Frontier, sr semiring.Semiring, masks []*sparse.BitVec, complement, bitmap bool) {
	var bxs, bys []*sparse.Frontier
	var bmasks []*sparse.BitVec
	for q := range xs {
		var mask *sparse.BitVec
		if masks != nil {
			mask = masks[q]
		}
		if h.matrixDriven(xs[q].NNZ()) {
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
