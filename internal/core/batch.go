package core

import (
	"fmt"

	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// MultiplyBatch computes ys[q] ← ⟨A·xs[q], masks[q]⟩ into the output
// frontiers in one pass of the bucket kernel, sharing what a loop of
// Multiply calls pays per frontier: one workspace checkout, one
// Estimate/bucket-sizing pass and cursor prefix over all the inputs,
// one scatter and one merge parallel region, one counter retirement.
// The per-frontier marginal cost approaches the pure O(df) work term,
// which is why batching wins exactly in the sparse-frontier regime
// (multi-source BFS ramp-up) where fixed costs rival the work.
//
// Frontiers stay logically separate throughout: the bucket space is
// subdivided per frontier (bucket id q·nb + rowbucket), the merge
// processes all frontiers of one row range on one worker under
// distinct SPA epochs (a slot's mask, when non-nil, is pushed into that
// frontier's segment of the merge), and each output vector is
// concatenated independently — with bitmap set, Step 3 scatters every
// slot's output bitmap in the same pass. Multiply is the same kernel
// with one frontier, so results, work counters and every option —
// the UseInfSentinel and StagingEntries ablations included — are
// exactly those of the equivalent Multiply loop.
//
// len(xs) must equal len(ys); the ys must be pairwise distinct and not
// alias any x.
func (mu *Multiplier) MultiplyBatch(xs, ys []*sparse.Frontier, sr semiring.Semiring, masks []*sparse.BitVec, complement, bitmap bool) {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("core: MultiplyBatch with %d inputs but %d outputs", len(xs), len(ys)))
	}
	xl := make([]*sparse.SpVec, len(xs))
	yl := make([]*sparse.SpVec, len(ys))
	var ob []*sparse.BitVec
	if bitmap {
		ob = make([]*sparse.BitVec, len(ys))
	}
	for q := range xs {
		xl[q] = xs[q].List()
		yl[q] = ys[q].BeginOutput()
		if bitmap {
			ob[q] = ys[q].OutputBits(mu.A.NumRows)
		}
	}
	mu.multiplyBatchLists(xl, yl, sr, masks, complement, ob)
	for q := range ys {
		ys[q].FinishOutput(bitmap)
	}
}

// multiplyBatchLists is the batched bucket multiply over list vectors:
// per-frontier masks (nil slots unmasked) ride into the merge step and
// per-frontier output bitmaps (nil means list only) into Step 3.
func (mu *Multiplier) multiplyBatchLists(xs, ys []*sparse.SpVec, sr semiring.Semiring, masks []*sparse.BitVec, complement bool, outBits []*sparse.BitVec) {
	if masks != nil && len(masks) != len(xs) {
		panic(fmt.Sprintf("core: batch with %d inputs but %d masks", len(xs), len(masks)))
	}
	if len(xs) == 0 {
		return
	}
	ws, slot := mu.ws.Get()

	// Optional per-frontier side arrays are sliced alongside the batch.
	subMasks := func(lo, hi int) []*sparse.BitVec {
		if masks == nil {
			return nil
		}
		return masks[lo:hi]
	}
	subBits := func(lo, hi int) []*sparse.BitVec {
		if outBits == nil {
			return nil
		}
		return outBits[lo:hi]
	}

	forBatchSegments(mu.A, xs, func(lo, hi int) {
		multiplyBatch(mu.A, xs[lo:hi], ys[lo:hi], sr, ws, mu.Opt, subMasks(lo, hi), complement, subBits(lo, hi))
	})
	mu.retire(ws, slot)
}

// forBatchSegments calls fn once per segment [lo, hi) of a non-empty
// batch, in order, so that one segment's bucket storage stays within
// the single-call bound (≈ nnz(A) entries, the paper's §III-A
// preallocation ceiling). Sparse frontiers — whose per-frontier df is
// tiny — batch by the dozens under the budget, which is exactly where
// the shared Estimate pass pays; a run of dense frontiers degrades
// gracefully toward singleton segments instead of streaming a
// k·nnz(A) working set through memory for no amortization gain.
func forBatchSegments(a *sparse.CSC, xs []*sparse.SpVec, fn func(lo, hi int)) {
	budget := max(a.NNZ(), 1)
	lo := 0
	var acc int64
	for q := range xs {
		w := frontierWork(a, xs[q])
		if q > lo && acc+w > budget {
			fn(lo, q)
			lo, acc = q, 0
		}
		acc += w
	}
	fn(lo, len(xs))
}

// frontierWork returns the number of matrix entries frontier x selects
// (its df term), the quantity that sizes its bucket storage.
func frontierWork(a *sparse.CSC, x *sparse.SpVec) int64 {
	var w int64
	for _, j := range x.Ind {
		w += a.ColLen(j)
	}
	return w
}
