package engine

import (
	"fmt"
	"sync"

	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// PlanCompilations returns 0. Mult and MultBatch read the descriptor on
// every call, so no plan is compiled or cached; the function stays
// because the benchmark's per-layer report (engine.plan_compilations)
// still reads it.
func PlanCompilations() int64 { return 0 }

// accumScratch holds one accumulate call's product and accumulator.
type accumScratch struct {
	prod *sparse.Frontier
	acc  *sparse.SpVec
}

// accumPool recycles accum's *accumScratch across every engine; the
// product and accumulator take each call's dimension, so engines over
// matrices of different row counts share it.
var accumPool sync.Pool

// Mult runs one multiply on e as the descriptor asks:
// y ← ⟨A·x, d.Mask⟩ over sr, accumulated into or overwriting y, with
// the output bitmap emitted natively unless d.Output is OutputList and
// guaranteed on return under OutputBitmap. d.Transpose is ignored: the
// caller resolves it by passing the engine bound to Aᵀ. d.Masks is
// MultBatch-only; passing it here is a programming error and panics.
func Mult(e Engine, x, y *sparse.Frontier, sr semiring.Semiring, d Desc) {
	if d.Masks != nil {
		// Silently running unmasked (or picking an arbitrary slot) would
		// hand back an unfiltered product the caller believes is masked.
		panic("engine: Mult with Desc.Masks (per-slot masks are MultBatch-only; use Desc.Mask)")
	}
	if d.Accum {
		accum(e, x, y, sr, d.Mask, d.Complement)
	} else {
		e.Multiply(x, y, sr, d.Mask, d.Complement, d.Output != OutputList)
	}
	if d.Output == OutputBitmap {
		y.Materialize()
	}
}

// MultBatch runs a batched multiply on e: ys[q] ← ⟨A·xs[q], mask_q⟩ for
// every q, where mask_q comes from d.Masks (per slot) or d.Mask
// (shared). Results are exactly those of the equivalent loop of Mult
// calls; engines with a native batch path amortize their per-call setup
// across the slots. Mismatched slice lengths, a d.BatchWidth other than
// len(xs) and a d.Masks of another length panic.
func MultBatch(e Engine, xs, ys []*sparse.Frontier, sr semiring.Semiring, d Desc) {
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
	if d.Accum {
		for q := range xs {
			var mask *sparse.BitVec
			if masks != nil {
				mask = masks[q]
			}
			accum(e, xs[q], ys[q], sr, mask, d.Complement)
		}
	} else {
		e.MultiplyBatch(xs, ys, sr, masks, d.Complement, d.Output != OutputList)
	}
	if d.Output == OutputBitmap {
		for _, y := range ys {
			y.Materialize()
		}
	}
}

// accum computes y ← y ⊕ ⟨A·x, mask⟩: the product lands in pooled
// scratch, then a sorted-merge (or map) union with the output's prior
// contents is written back in place. The union invalidates any bitmap,
// so accumulated outputs are list-form.
func accum(e Engine, x, y *sparse.Frontier, sr semiring.Semiring, mask *sparse.BitVec, complement bool) {
	s, ok := accumPool.Get().(*accumScratch)
	if !ok {
		s = &accumScratch{prod: sparse.NewOutputFrontier(0), acc: sparse.NewSpVec(0, 0)}
	}
	e.Multiply(x, s.prod, sr, mask, complement, false)
	list := y.BeginOutput()
	// Swap the output's prior contents into the scratch accumulator so
	// the union can be written back in place.
	*s.acc, *list = *list, *s.acc
	if s.acc.NNZ() == 0 {
		s.acc.Reset(s.prod.N())
	}
	sparse.EwiseAddInto(list, s.prod.List(), s.acc, sr.Add)
	y.FinishOutput(false)
	accumPool.Put(s)
}
