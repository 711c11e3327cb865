package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// planCompilations counts CompilePlan invocations process-wide. Tests
// (and capacity audits) read it to pin that plan caching actually
// works: a warm Multiplier served from a matrix store must answer
// repeat requests with zero new compilations.
var planCompilations atomic.Int64

// PlanCompilations returns the process-wide count of CompilePlan calls.
func PlanCompilations() int64 { return planCompilations.Load() }

// Plan is the compiled execution strategy for one (engine, Shape)
// pair: the shape handling around the engine's one multiply — whether
// the output bitmap is asked for, the accumulate union, and the
// guaranteed bitmap of OutputBitmap — fixed once, at compile time.
//
// Iterative algorithms compile the plan for their loop's shape before
// the loop and call Mult/MultBatch per iteration; the public facade
// caches one plan per shape on the Multiplier so arbitrary Desc-driven
// callers get the same amortization.
//
// A Plan is immutable after compilation and safe for concurrent use
// (its scratch pool is a sync.Pool).
type Plan struct {
	shape Shape
	e     Engine
	// bitmap is the engine's native-bitmap flag: set for every shape
	// but OutputList (accumulate products never ask for one — the
	// union invalidates it).
	bitmap bool

	// scratch pools the accumulate wrapper's *accumScratch.
	scratch sync.Pool
}

// accumScratch holds one accumulate call's product and accumulator.
type accumScratch struct {
	prod *sparse.Frontier
	acc  *sparse.SpVec
}

// Shape returns the shape the plan was compiled for.
func (p *Plan) Shape() Shape { return p.shape }

// Engine returns the engine the plan drives.
func (p *Plan) Engine() Engine { return p.e }

// Mult executes one multiply through the plan: y ← ⟨A·x, d.Mask⟩ over
// sr, accumulated or overwritten and represented per the compiled
// shape. d must project to the plan's shape (Plan dispatch is resolved
// at compile time; a mismatched descriptor is a programming error and
// panics).
func (p *Plan) Mult(x, y *sparse.Frontier, sr semiring.Semiring, d Desc) {
	if s := d.Shape(); s != p.shape {
		panic(fmt.Sprintf("engine: Plan compiled for shape %+v called with descriptor shape %+v", p.shape, s))
	}
	if d.Masks != nil {
		// Silently running unmasked (or picking an arbitrary slot) would
		// hand back an unfiltered product the caller believes is masked.
		panic("engine: Mult with Desc.Masks (per-slot masks are MultBatch-only; use Desc.Mask)")
	}
	if p.shape.Accum {
		p.accum(x, y, sr, d.Mask, d.Complement)
	} else {
		p.e.Multiply(x, y, sr, d.Mask, d.Complement, p.bitmap)
	}
	if p.shape.Output == OutputBitmap {
		y.Materialize()
	}
}

// MultBatch executes a batched multiply through the plan:
// ys[q] ← ⟨A·xs[q], mask_q⟩ for every q, where mask_q comes from
// d.Masks (per slot) or d.Mask (shared). Results are exactly those of
// the equivalent loop of Mult calls; engines with a native batch path
// amortize their per-call setup across the slots.
func (p *Plan) MultBatch(xs, ys []*sparse.Frontier, sr semiring.Semiring, d Desc) {
	if s := d.Shape(); s != p.shape {
		panic(fmt.Sprintf("engine: Plan compiled for shape %+v called with descriptor shape %+v", p.shape, s))
	}
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("engine: MultBatch with %d inputs but %d outputs", len(xs), len(ys)))
	}
	if d.BatchWidth > 0 && d.BatchWidth != len(xs) {
		panic(fmt.Sprintf("engine: MultBatch with %d inputs but Desc.BatchWidth %d", len(xs), d.BatchWidth))
	}
	masks := d.batchMasks(len(xs))
	if masks != nil && len(masks) != len(xs) {
		panic(fmt.Sprintf("engine: MultBatch with %d inputs but %d masks", len(xs), len(masks)))
	}
	if p.shape.Accum {
		for q := range xs {
			var mask *sparse.BitVec
			if masks != nil {
				mask = masks[q]
			}
			p.accum(xs[q], ys[q], sr, mask, d.Complement)
		}
	} else {
		p.e.MultiplyBatch(xs, ys, sr, masks, d.Complement, p.bitmap)
	}
	if p.shape.Output == OutputBitmap {
		for _, y := range ys {
			y.Materialize()
		}
	}
}

// accum computes y ← y ⊕ ⟨A·x, mask⟩: the product lands in pooled
// scratch, then a sorted-merge (or map) union with the output's prior
// contents is written back in place. The union invalidates any bitmap,
// so accumulated outputs are list-form.
func (p *Plan) accum(x, y *sparse.Frontier, sr semiring.Semiring, mask *sparse.BitVec, complement bool) {
	s, ok := p.scratch.Get().(*accumScratch)
	if !ok {
		s = &accumScratch{prod: sparse.NewOutputFrontier(0), acc: sparse.NewSpVec(0, 0)}
	}
	p.e.Multiply(x, s.prod, sr, mask, complement, false)
	list := y.BeginOutput()
	// Swap the output's prior contents into the scratch accumulator so
	// the union can be written back in place.
	*s.acc, *list = *list, *s.acc
	if s.acc.NNZ() == 0 {
		s.acc.Reset(s.prod.N())
	}
	sparse.EwiseAddInto(list, s.prod.List(), s.acc, sr.Add)
	y.FinishOutput(false)
	p.scratch.Put(s)
}

// CompilePlan compiles the plan for e at shape s.
func CompilePlan(e Engine, s Shape) *Plan {
	planCompilations.Add(1)
	return &Plan{shape: s, e: e, bitmap: s.Output != OutputList}
}
