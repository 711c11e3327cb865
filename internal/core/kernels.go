package core

import (
	"math"

	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// Specialized inner loops for Steps 1 and 2, run by multiplyBatch once
// per (chunk, frontier) scatter segment and once per (row range,
// frontier) merge segment.
//
// The scatter and merge loops run once per matrix nonzero touched — the
// df term that dominates every multiply. Each is dispatched once per
// segment on the semiring's operation tags to a hand-monomorphized loop
// whose Add/Mul is an inlined expression, so all predefined semirings
// (arithmetic, the tropical pair, boolean, the select variants) execute
// with no per-nonzero function-pointer calls; only user-defined
// semirings (AddCustom/MulCustom) take the func-valued loop, paying
// exactly the indirect call every semiring paid before specialization.
// This generalizes the previous one-off IsArithmetic fast path.
//
// The loops are spelled out per operation rather than written once as a
// generic function over semiring.Adder/Muler because gc does not
// devirtualize dictionary-based method calls in non-inlined generic
// instantiations: a generic-over-op loop of this size compiles to one
// shape instantiation that calls Add/Mul through the dictionary — an
// indirect call per nonzero, the very cost being removed. (The generic
// op types still pay off for helpers small enough to inline, e.g. the
// spa accumulators.)
//
// The paper-fidelity ablations are twins of these loops, picked per
// segment: scatterStaged for Options.StagingEntries and mergeSentinel
// for Options.UseInfSentinel. Both keep the func-valued semiring
// operations.

// scatterRange scatters the (row, MULT(x(j), A(i,j))) pairs of the x
// entries in [lo, hi) through the cursor row cur — one frontier's
// cursors within one Step-1 chunk — dispatching once on the semiring's
// Mul tag; it returns the number of matrix entries written.
func scatterRange(a *sparse.CSC, x *sparse.SpVec, sr semiring.Semiring, ws *Workspace, cur []int64, lo, hi int, shift uint) int64 {
	switch sr.MulKind {
	case semiring.MulTimes:
		return scatterTimes(a, x, ws, cur, lo, hi, shift)
	case semiring.MulPlus:
		return scatterPlus(a, x, ws, cur, lo, hi, shift)
	case semiring.MulSelect2nd:
		return scatterSelect2nd(a, x, ws, cur, lo, hi, shift)
	case semiring.MulSelect1st:
		return scatterSelect1st(a, x, ws, cur, lo, hi, shift)
	case semiring.MulAnd:
		return scatterAnd(a, x, ws, cur, lo, hi, shift)
	default:
		return scatterFunc(sr.Mul, a, x, ws, cur, lo, hi, shift)
	}
}

func scatterTimes(a *sparse.CSC, x *sparse.SpVec, ws *Workspace, cur []int64, lo, hi int, shift uint) int64 {
	var written int64
	for k := lo; k < hi; k++ {
		j, xv := x.Ind[k], x.Val[k]
		rows, vals := a.Col(j)
		for e, i := range rows {
			b := i >> shift
			p := cur[b]
			cur[b]++
			ws.entries[p] = sparse.Entry{Ind: i, Val: vals[e] * xv}
		}
		written += int64(len(rows))
	}
	return written
}

func scatterPlus(a *sparse.CSC, x *sparse.SpVec, ws *Workspace, cur []int64, lo, hi int, shift uint) int64 {
	var written int64
	for k := lo; k < hi; k++ {
		j, xv := x.Ind[k], x.Val[k]
		rows, vals := a.Col(j)
		for e, i := range rows {
			b := i >> shift
			p := cur[b]
			cur[b]++
			ws.entries[p] = sparse.Entry{Ind: i, Val: vals[e] + xv}
		}
		written += int64(len(rows))
	}
	return written
}

// scatterSelect2nd propagates x(j) unchanged, so the column's values
// are never read — BFS's frontier expansion touches only row indices.
func scatterSelect2nd(a *sparse.CSC, x *sparse.SpVec, ws *Workspace, cur []int64, lo, hi int, shift uint) int64 {
	var written int64
	for k := lo; k < hi; k++ {
		j, xv := x.Ind[k], x.Val[k]
		rows, _ := a.Col(j)
		for _, i := range rows {
			b := i >> shift
			p := cur[b]
			cur[b]++
			ws.entries[p] = sparse.Entry{Ind: i, Val: xv}
		}
		written += int64(len(rows))
	}
	return written
}

func scatterSelect1st(a *sparse.CSC, x *sparse.SpVec, ws *Workspace, cur []int64, lo, hi int, shift uint) int64 {
	var written int64
	for k := lo; k < hi; k++ {
		j := x.Ind[k]
		rows, vals := a.Col(j)
		for e, i := range rows {
			b := i >> shift
			p := cur[b]
			cur[b]++
			ws.entries[p] = sparse.Entry{Ind: i, Val: vals[e]}
		}
		written += int64(len(rows))
	}
	return written
}

func scatterAnd(a *sparse.CSC, x *sparse.SpVec, ws *Workspace, cur []int64, lo, hi int, shift uint) int64 {
	var written int64
	for k := lo; k < hi; k++ {
		j, xv := x.Ind[k], x.Val[k]
		rows, vals := a.Col(j)
		for e, i := range rows {
			v := 0.0
			if vals[e] != 0 && xv != 0 {
				v = 1
			}
			b := i >> shift
			p := cur[b]
			cur[b]++
			ws.entries[p] = sparse.Entry{Ind: i, Val: v}
		}
		written += int64(len(rows))
	}
	return written
}

func scatterFunc(mul func(a, b float64) float64, a *sparse.CSC, x *sparse.SpVec, ws *Workspace, cur []int64, lo, hi int, shift uint) int64 {
	var written int64
	for k := lo; k < hi; k++ {
		j, xv := x.Ind[k], x.Val[k]
		rows, vals := a.Col(j)
		for e, i := range rows {
			b := i >> shift
			p := cur[b]
			cur[b]++
			ws.entries[p] = sparse.Entry{Ind: i, Val: mul(vals[e], xv)}
		}
		written += int64(len(rows))
	}
	return written
}

// scatterStaged is scatterRange with the paper's cache-locality
// optimization: writes stream into the executing worker w's small
// per-bucket staging buffers (stage entries each, sized to stay L1/L2
// resident) and are copied to the bucket when a buffer fills and at the
// end of the segment, so the slab is free again for the worker's next
// segment. This ablation path (off by default) keeps the func-valued
// Mul; the flush bookkeeping, not the multiply, dominates its inner
// loop.
func scatterStaged(a *sparse.CSC, x *sparse.SpVec, mul func(a, b float64) float64, ws *Workspace, w int, cur []int64, lo, hi int, shift uint, stage int) int64 {
	nb := len(cur)
	slab := ws.staging[w*nb*stage : (w+1)*nb*stage]
	fill := ws.stagingCount[w*nb : (w+1)*nb]
	clear(fill)
	flush := func(b int64) {
		n := int64(fill[b])
		copy(ws.entries[cur[b]:cur[b]+n], slab[b*int64(stage):b*int64(stage)+n])
		cur[b] += n
		fill[b] = 0
	}
	var written int64
	for k := lo; k < hi; k++ {
		j, xv := x.Ind[k], x.Val[k]
		rows, vals := a.Col(j)
		for e, i := range rows {
			b := int64(i >> shift)
			if int(fill[b]) == stage {
				flush(b)
			}
			slab[b*int64(stage)+int64(fill[b])] = sparse.Entry{Ind: i, Val: mul(vals[e], xv)}
			fill[b]++
		}
		written += int64(len(rows))
	}
	for b := range fill {
		if fill[b] > 0 {
			flush(int64(b))
		}
	}
	return written
}

// mergeSentinel is the paper-faithful two-pass merge (Algorithm 1,
// lines 11-18): every entry's SPA slot is first marked with ∞ as the
// "uninitialized" sentinel, then accumulated. Like the paper, it cannot
// tell a stored +Inf from an unmarked slot. Ablation path; func-valued
// Add.
func mergeSentinel(sr semiring.Semiring, ws *Workspace, ents []sparse.Entry, u []sparse.Index) []sparse.Index {
	add := sr.Add
	inf := math.Inf(1)
	for _, e := range ents {
		ws.spaVal[e.Ind] = inf
	}
	for _, e := range ents {
		if ws.spaVal[e.Ind] == inf {
			ws.spaVal[e.Ind] = e.Val
			u = append(u, e.Ind)
		} else {
			ws.spaVal[e.Ind] = add(ws.spaVal[e.Ind], e.Val)
		}
	}
	return u
}

// mergeEpoch is the one-pass epoch-tag merge: a tag mismatch plays the
// role of the ∞ sentinel with no false positives. Dispatches on the
// semiring's Add tag to a loop with the collision combine inlined.
func mergeEpoch(sr semiring.Semiring, ws *Workspace, ents []sparse.Entry, u []sparse.Index, epoch uint32) []sparse.Index {
	switch sr.AddKind {
	case semiring.AddPlus:
		for _, e := range ents {
			if ws.spaTag[e.Ind] != epoch {
				ws.spaTag[e.Ind] = epoch
				ws.spaVal[e.Ind] = e.Val
				u = append(u, e.Ind)
			} else {
				ws.spaVal[e.Ind] += e.Val
			}
		}
	case semiring.AddMin:
		for _, e := range ents {
			if ws.spaTag[e.Ind] != epoch {
				ws.spaTag[e.Ind] = epoch
				ws.spaVal[e.Ind] = e.Val
				u = append(u, e.Ind)
			} else if !(ws.spaVal[e.Ind] < e.Val) {
				ws.spaVal[e.Ind] = e.Val
			}
		}
	case semiring.AddMax:
		for _, e := range ents {
			if ws.spaTag[e.Ind] != epoch {
				ws.spaTag[e.Ind] = epoch
				ws.spaVal[e.Ind] = e.Val
				u = append(u, e.Ind)
			} else if !(ws.spaVal[e.Ind] > e.Val) {
				ws.spaVal[e.Ind] = e.Val
			}
		}
	case semiring.AddOr:
		for _, e := range ents {
			if ws.spaTag[e.Ind] != epoch {
				ws.spaTag[e.Ind] = epoch
				ws.spaVal[e.Ind] = e.Val
				u = append(u, e.Ind)
			} else if ws.spaVal[e.Ind] != 0 || e.Val != 0 {
				ws.spaVal[e.Ind] = 1
			} else {
				ws.spaVal[e.Ind] = 0
			}
		}
	default:
		add := sr.Add
		for _, e := range ents {
			if ws.spaTag[e.Ind] != epoch {
				ws.spaTag[e.Ind] = epoch
				ws.spaVal[e.Ind] = e.Val
				u = append(u, e.Ind)
			} else {
				ws.spaVal[e.Ind] = add(ws.spaVal[e.Ind], e.Val)
			}
		}
	}
	return u
}

// mergeMasked is mergeEpoch with the mask test pushed into the loop
// (the §V mask-pushdown); same per-Add specialization — BFS's masked
// (min, select2nd) expansion runs call-free.
func mergeMasked(sr semiring.Semiring, ws *Workspace, ents []sparse.Entry, u []sparse.Index, epoch uint32, mask *sparse.BitVec, complement bool) []sparse.Index {
	switch sr.AddKind {
	case semiring.AddPlus:
		for _, e := range ents {
			if mask.Test(e.Ind) == complement {
				continue
			}
			if ws.spaTag[e.Ind] != epoch {
				ws.spaTag[e.Ind] = epoch
				ws.spaVal[e.Ind] = e.Val
				u = append(u, e.Ind)
			} else {
				ws.spaVal[e.Ind] += e.Val
			}
		}
	case semiring.AddMin:
		for _, e := range ents {
			if mask.Test(e.Ind) == complement {
				continue
			}
			if ws.spaTag[e.Ind] != epoch {
				ws.spaTag[e.Ind] = epoch
				ws.spaVal[e.Ind] = e.Val
				u = append(u, e.Ind)
			} else if !(ws.spaVal[e.Ind] < e.Val) {
				ws.spaVal[e.Ind] = e.Val
			}
		}
	case semiring.AddMax:
		for _, e := range ents {
			if mask.Test(e.Ind) == complement {
				continue
			}
			if ws.spaTag[e.Ind] != epoch {
				ws.spaTag[e.Ind] = epoch
				ws.spaVal[e.Ind] = e.Val
				u = append(u, e.Ind)
			} else if !(ws.spaVal[e.Ind] > e.Val) {
				ws.spaVal[e.Ind] = e.Val
			}
		}
	case semiring.AddOr:
		for _, e := range ents {
			if mask.Test(e.Ind) == complement {
				continue
			}
			if ws.spaTag[e.Ind] != epoch {
				ws.spaTag[e.Ind] = epoch
				ws.spaVal[e.Ind] = e.Val
				u = append(u, e.Ind)
			} else if ws.spaVal[e.Ind] != 0 || e.Val != 0 {
				ws.spaVal[e.Ind] = 1
			} else {
				ws.spaVal[e.Ind] = 0
			}
		}
	default:
		add := sr.Add
		for _, e := range ents {
			if mask.Test(e.Ind) == complement {
				continue
			}
			if ws.spaTag[e.Ind] != epoch {
				ws.spaTag[e.Ind] = epoch
				ws.spaVal[e.Ind] = e.Val
				u = append(u, e.Ind)
			} else {
				ws.spaVal[e.Ind] = add(ws.spaVal[e.Ind], e.Val)
			}
		}
	}
	return u
}
