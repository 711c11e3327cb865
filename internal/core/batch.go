package core

import (
	"fmt"

	"spmspv/internal/par"
	"spmspv/internal/perf"
	"spmspv/internal/radix"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// MultiplyBatch computes ys[q] ← ⟨A·xs[q], masks[q]⟩ into the output
// frontiers in one pass of the bucket algorithm, sharing what a loop of
// Multiply calls pays per frontier: one workspace checkout, one
// Estimate/bucket-sizing pass and cursor prefix over the concatenated
// inputs, one scatter and one merge parallel region, one counter
// retirement. The per-frontier marginal cost approaches the pure O(df)
// work term, which is why batching wins exactly in the sparse-frontier
// regime (multi-source BFS ramp-up) where fixed costs rival the work.
//
// Frontiers stay logically separate throughout: the bucket space is
// subdivided per frontier (bucket id q·nb + rowbucket), the merge
// processes all frontiers of one row range on one worker under
// distinct SPA epochs (a slot's mask, when non-nil, is pushed into that
// frontier's segment of the merge), and each output vector is
// concatenated independently — with bitmap set, the batched Step 3
// scatters every slot's output bitmap in the same pass. Results are
// exactly those of the equivalent Multiply loop.
//
// len(xs) must equal len(ys); the ys must be pairwise distinct and not
// alias any x. The ablation-only options UseInfSentinel and
// StagingEntries apply to single multiplies only: multi-frontier
// segments always use the epoch-tag merge and the direct-write
// scatter. Every other option (threads, buckets, sorting, scheduling,
// SplitEvenly) behaves as in Multiply.
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

	// Segment the batch so one segment's bucket storage stays within
	// the single-call bound (≈ nnz(A) entries, the paper's §III-A
	// preallocation ceiling). Sparse frontiers — whose per-frontier df
	// is tiny — batch by the dozens under the budget, which is exactly
	// where the shared Estimate pass pays; a run of dense frontiers
	// degrades gracefully toward singleton segments instead of
	// streaming a k·nnz(A) working set through memory for no
	// amortization gain.
	budget := mu.A.NNZ()
	if budget < 1 {
		budget = 1
	}
	lo := 0
	var acc int64
	for q := range xs {
		w := frontierWork(mu.A, xs[q])
		if q > lo && acc+w > budget {
			runBatchSegment(mu.A, xs[lo:q], ys[lo:q], sr, ws, mu.Opt, subMasks(lo, q), complement, subBits(lo, q))
			lo, acc = q, 0
		}
		acc += w
	}
	runBatchSegment(mu.A, xs[lo:], ys[lo:], sr, ws, mu.Opt, subMasks(lo, len(xs)), complement, subBits(lo, len(xs)))
	mu.retire(ws, slot)
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

// runBatchSegment multiplies one budget-bounded segment through the
// shared workspace; singleton segments take the single-call path.
func runBatchSegment(a *sparse.CSC, xs, ys []*sparse.SpVec, sr semiring.Semiring, ws *Workspace, opt Options, masks []*sparse.BitVec, complement bool, outBits []*sparse.BitVec) {
	if len(xs) == 1 {
		var mk, ob *sparse.BitVec
		if masks != nil {
			mk = masks[0]
		}
		if outBits != nil {
			ob = outBits[0]
		}
		multiply(a, xs[0], ys[0], sr, ws, opt, mk, complement, ob)
		return
	}
	multiplyBatch(a, xs, ys, sr, ws, opt, masks, complement, outBits)
}

func multiplyBatch(a *sparse.CSC, xs, ys []*sparse.SpVec, sr semiring.Semiring, ws *Workspace, opt Options, masks []*sparse.BitVec, complement bool, outBits []*sparse.BitVec) {
	opt = opt.WithDefaults()
	m := a.NumRows
	k := len(xs)

	// Concatenate the inputs; batchOff[q] marks frontier q's start.
	var totalF int64
	for _, x := range xs {
		totalF += int64(x.NNZ())
	}
	ws.ensureBatch(totalF, k)
	off := int64(0)
	for q, x := range xs {
		ws.batchOff[q] = off
		copy(ws.batchInd[off:], x.Ind)
		copy(ws.batchVal[off:], x.Val)
		off += int64(x.NNZ())
	}
	ws.batchOff[k] = off

	for _, y := range ys {
		y.Reset(m)
	}
	if totalF == 0 || m == 0 {
		ws.Steps = perf.StepTimes{}
		return
	}
	xAll := &sparse.SpVec{N: a.NumCols, Ind: ws.batchInd[:totalF], Val: ws.batchVal[:totalF]}

	// Thread count and bucket geometry exactly as in the single-call
	// path, but with the batch's total nonzeros as f and the bucket
	// space replicated per frontier: full bucket id = q·nb + (i >>
	// shift), so every (frontier, row-range) pair owns a disjoint slot.
	t := opt.Threads
	if int64(t) > totalF {
		t = int(totalF)
	}
	nbReq := opt.BucketsPerThread * t
	shift := uint(0)
	for int64(m) > int64(nbReq)<<shift {
		shift++
	}
	nb := int((int64(m) + (int64(1) << shift) - 1) >> shift)
	if nb < 1 {
		nb = 1
	}
	NB := k * nb
	nc := stepChunks(t, int(totalF))
	ws.ensure(m, t, NB, nc)
	ex := opt.Exec()

	var timer perf.Timer
	timer.Start()

	// One split over the concatenated entries into ~8 stealable chunks
	// per worker (weighted by column nonzeros by default, the §III-B
	// fix; by entry count under SplitEvenly), crossing frontier
	// boundaries freely.
	if opt.SplitEvenly {
		ws.ranges = par.EvenRangesInto(int(totalF), nc, ws.ranges)
	} else {
		ws.xcum = a.CumulativeColWeights(xAll.Ind, ws.xcum)
		ws.ranges = par.SplitByWeightInto(ws.xcum, nc, ws.ranges)
	}

	// Estimate (Algorithm 2) for the whole batch: count per (chunk,
	// frontier, bucket) insertions in one pass.
	clear(ws.boffset[:nc*NB])
	ex.ForChunks(t, nc, nil, func(w, c int) {
		lo, hi := ws.ranges[c][0], ws.ranges[c][1]
		if lo >= hi {
			return
		}
		ctr := &ws.Counters[w]
		var touched int64
		for q, k2 := frontierAt(ws.batchOff, lo), lo; k2 < hi; {
			for k2 >= int(ws.batchOff[q+1]) {
				q++
			}
			segHi := hi
			if int(ws.batchOff[q+1]) < segHi {
				segHi = int(ws.batchOff[q+1])
			}
			row := ws.boffset[c*NB+q*nb : c*NB+(q+1)*nb]
			for ; k2 < segHi; k2++ {
				rows, _ := a.Col(xAll.Ind[k2])
				for _, i := range rows {
					row[i>>shift]++
				}
				touched += int64(len(rows))
			}
		}
		ctr.XScanned += int64(hi - lo)
		ctr.MatrixTouched += touched
	}, &ws.sched)

	// Two-level exclusive prefix: bucket-major, chunk-minor, over the
	// full (frontier, bucket) space.
	var total int64
	for bq := 0; bq < NB; bq++ {
		ws.bucketStart[bq] = total
		for c := 0; c < nc; c++ {
			idx := c*NB + bq
			cnt := ws.boffset[idx]
			ws.boffset[idx] = total
			total += cnt
		}
	}
	ws.bucketStart[NB] = total
	ws.ensureEntries(total)
	ws.ensureUval(total)
	ws.Steps.Estimate = timer.Lap()

	// Step 1 for the whole batch: each chunk scatters its per-frontier
	// segments through the chunk's cursor rows, reusing the
	// monomorphized kernels.
	ex.ForChunks(t, nc, nil, func(w, c int) {
		lo, hi := ws.ranges[c][0], ws.ranges[c][1]
		if lo >= hi {
			return
		}
		ctr := &ws.Counters[w]
		var written int64
		for q, k2 := frontierAt(ws.batchOff, lo), lo; k2 < hi; {
			for k2 >= int(ws.batchOff[q+1]) {
				q++
			}
			segHi := hi
			if int(ws.batchOff[q+1]) < segHi {
				segHi = int(ws.batchOff[q+1])
			}
			cur := ws.boffset[c*NB+q*nb : c*NB+(q+1)*nb]
			written += scatterRange(a, xAll, sr, ws, cur, k2, segHi, shift)
			k2 = segHi
		}
		ctr.XScanned += int64(hi - lo)
		ctr.MatrixTouched += written
		ctr.BucketWrites += written
	}, &ws.sched)
	ws.Steps.Bucket = timer.Lap()

	// Step 2: merge. All k frontiers of one row-range bucket run on the
	// same worker (the row range — hence the SPA slots — is what must
	// not be shared), under k distinct epochs; unique values are copied
	// out to uval immediately because the next frontier reuses the same
	// SPA rows before the output step runs. A slot with a mask takes the
	// masked merge — the same §V pushdown as the single-call path,
	// applied per frontier segment.
	base := ws.epochBlock(uint32(k))
	mergeBody := func(w, b int) {
		ctr := &ws.Counters[w]
		for q := 0; q < k; q++ {
			bq := q*nb + b
			lo, hi := ws.bucketStart[bq], ws.bucketStart[bq+1]
			if lo == hi {
				ws.uindCount[bq] = 0
				continue
			}
			ents := ws.entries[lo:hi]
			u := ws.uind[lo:lo]
			if masks != nil && masks[q] != nil {
				u = mergeMasked(sr, ws, ents, u, base+uint32(q), masks[q], complement)
			} else {
				u = mergeEpoch(sr, ws, ents, u, base+uint32(q))
			}
			ws.uindCount[bq] = int64(len(u))
			ctr.SPAInit += int64(len(u))
			ctr.SPAUpdates += int64(len(ents)) - int64(len(u))
			if opt.SortOutput {
				ws.scratch[w] = radix.SortIndices(u, ws.scratch[w])
				ctr.SortedElems += int64(len(u))
			}
			uval := ws.uval[lo : lo+int64(len(u))]
			for i, ind := range u {
				uval[i] = ws.spaVal[ind]
			}
		}
	}
	switch opt.MergeSched {
	case SchedDynamic:
		for w := 0; w < t; w++ {
			ws.sync[w] = 0
		}
		par.ForDynamic(t, nb, 1, func(w, lo, hi int) {
			for b := lo; b < hi; b++ {
				mergeBody(w, b)
			}
		}, ws.sync)
		for w := 0; w < t; w++ {
			ws.Counters[w].SyncEvents += ws.sync[w]
		}
	case SchedStealing:
		ex.ForChunks(t, nb, nil, mergeBody, &ws.sched)
	default:
		par.ForStatic(t, nb, func(w, lo, hi int) {
			for b := lo; b < hi; b++ {
				mergeBody(w, b)
			}
		})
	}
	ws.Steps.Merge = timer.Lap()
	ws.Steps.Sort = 0

	// Step 3 per frontier: prefix each frontier's unique counts and
	// copy every bucket's (index, value) pairs to its final offset.
	for q := 0; q < k; q++ {
		var nnzY int64
		for b := 0; b < nb; b++ {
			bq := q*nb + b
			ws.uindOffset[bq] = nnzY
			nnzY += ws.uindCount[bq]
		}
		y := ys[q]
		if int64(cap(y.Ind)) < nnzY {
			y.Ind = make([]sparse.Index, nnzY)
			y.Val = make([]float64, nnzY)
		} else {
			y.Ind = y.Ind[:nnzY]
			y.Val = y.Val[:nnzY]
		}
		y.Sorted = opt.SortOutput || nnzY == 0
	}
	ex.ForChunks(t, NB, nil, func(w, bq int) {
		cnt := ws.uindCount[bq]
		if cnt == 0 {
			return
		}
		q := bq / nb
		y := ys[q]
		off := ws.uindOffset[bq]
		start := ws.bucketStart[bq]
		copy(y.Ind[off:off+cnt], ws.uind[start:start+cnt])
		copy(y.Val[off:off+cnt], ws.uval[start:start+cnt])
		if outBits != nil && outBits[q] != nil {
			// Native bitmap emission, batched: bucket bq owns the
			// row range [b·2^shift, (b+1)·2^shift) of frontier q,
			// so SetRangeFrom's boundary-word atomics make the
			// concurrent per-slot fill race-free exactly as in the
			// single-call Step 3.
			bLo := sparse.Index(bq%nb) << shift
			outBits[q].SetRangeFrom(y.Ind[off:off+cnt], y.Val[off:off+cnt],
				bLo, bLo+(sparse.Index(1)<<shift))
		}
		ws.Counters[w].OutputWritten += cnt
	}, &ws.sched)
	ws.Steps.Output = timer.Lap()
	ws.foldSched(t)
}

// frontierAt returns the frontier owning concatenated position pos.
func frontierAt(off []int64, pos int) int {
	q := 0
	for pos >= int(off[q+1]) {
		q++
	}
	return q
}
