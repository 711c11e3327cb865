package core

import (
	"spmspv/internal/par"
	"spmspv/internal/perf"
	"spmspv/internal/radix"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// Multiply computes y ← A·x over the semiring sr using the
// SpMSpV-bucket algorithm (Algorithms 1 and 2 of the paper). x may be
// sorted or unsorted; duplicate indices in x contribute additively. y is
// reset and filled; it comes out sorted iff opt.SortOutput is set or it
// is empty. ws must not be shared with concurrent calls.
func Multiply(a *sparse.CSC, x *sparse.SpVec, y *sparse.SpVec, sr semiring.Semiring, ws *Workspace, opt Options) {
	multiplyOne(a, x, y, sr, ws, opt, nil, false, nil)
}

// MultiplyMasked computes y ← ⟨A·x, mask⟩: entries of A·x whose row is
// not admitted by the mask are dropped during the merge step rather than
// after the fact. With complement set, rows present in the mask are the
// ones dropped — the pattern BFS uses to exclude already-visited
// vertices. Masked SpMSpV is listed as upcoming GraphBLAS work in the
// paper's §V; this implements the mask-pushdown the paper anticipates.
func MultiplyMasked(a *sparse.CSC, x *sparse.SpVec, y *sparse.SpVec, sr semiring.Semiring, mask *sparse.BitVec, complement bool, ws *Workspace, opt Options) {
	multiplyOne(a, x, y, sr, ws, opt, mask, complement, nil)
}

// multiplyOne runs a single multiply as a batch of one, passed through
// one-slot arrays held in the workspace so the call allocates nothing.
// outBits, when non-nil, is an output bitmap Step 3 populates natively
// alongside y (see Multiplier.Multiply).
func multiplyOne(a *sparse.CSC, x, y *sparse.SpVec, sr semiring.Semiring, ws *Workspace, opt Options, mask *sparse.BitVec, complement bool, outBits *sparse.BitVec) {
	ws.oneX[0], ws.oneY[0], ws.oneMask[0], ws.oneBits[0] = x, y, mask, outBits
	multiplyBatch(a, ws.oneX[:], ws.oneY[:], sr, ws, opt, ws.oneMask[:], complement, ws.oneBits[:])
	// Let go of the caller's vectors.
	ws.oneX[0], ws.oneY[0], ws.oneMask[0], ws.oneBits[0] = nil, nil, nil, nil
}

// multiplyBatch is the SpMSpV-bucket kernel for k ≥ 1 frontiers:
// ys[q] ← ⟨A·xs[q], masks[q]⟩, with Step 3 also filling outBits[q]
// when that slot is non-nil (a nil masks or outBits means none). A
// single multiply is its k = 1 case.
//
// The frontiers share one pass of every step: the bucket space is
// replicated per frontier — bucket q·nb + (i >> shift) — so each
// (frontier, row range) pair owns a disjoint slot, and every
// frontier's result is exactly what it would get alone.
func multiplyBatch(a *sparse.CSC, xs, ys []*sparse.SpVec, sr semiring.Semiring, ws *Workspace, opt Options, masks []*sparse.BitVec, complement bool, outBits []*sparse.BitVec) {
	opt = opt.WithDefaults()
	m := a.NumRows
	k := len(xs)

	// The inputs are read in place; batchOff[q] is frontier q's start
	// in their concatenation, the index space Step 1 is split over.
	if len(ws.batchOff) < k+1 {
		ws.batchOff = make([]int64, k+1)
	}
	var f int64
	for q, x := range xs {
		ws.batchOff[q] = f
		f += int64(x.NNZ())
	}
	ws.batchOff[k] = f
	for _, y := range ys {
		y.Reset(m)
	}
	if f == 0 || m == 0 {
		ws.Steps = perf.StepTimes{}
		return
	}

	var timer perf.Timer
	timer.Start()

	// Cumulative column weights over the concatenated inputs: their
	// total, the call's flops Σ nnz(A(:,j)), sets its thread count, and
	// the default split partitions by them.
	if int64(cap(ws.xcum)) < f+1 {
		ws.xcum = make([]int64, f+1)
	}
	cum := ws.xcum[:f+1]
	cum[0] = 0
	p := 0
	for _, x := range xs {
		for _, j := range x.Ind {
			cum[p+1] = cum[p] + a.ColLen(j)
			p++
		}
	}
	t := callThreads(opt.Threads, f, cum[f])
	nb, shift := bucketGeometry(m, opt.BucketsPerThread*t)
	NB := k * nb
	// Over-decompose the input split into ~8 stealable chunks per worker
	// (one chunk when t = 1): each chunk owns a private cursor row per
	// frontier, so any executor worker can run any chunk and stealing
	// rebalances skewed frontiers without changing the bucket layout.
	nc := stepChunks(t, int(f))
	ws.ensure(m, t, NB, nc)
	// The parallel regions read the batch from the workspace, which
	// keeps their closures small.
	ws.xs, ws.ys, ws.masks, ws.outBits = xs, ys, masks, outBits

	// Partition the f input nonzeros among nc chunks, crossing frontier
	// boundaries freely. The default weights each x entry by its
	// column's nonzero count — the §III-B fix that keeps the span low
	// when a few columns are huge.
	if opt.SplitEvenly {
		ws.ranges = par.EvenRangesInto(int(f), nc, ws.ranges)
	} else {
		ws.ranges = par.SplitByWeightInto(cum, nc, ws.ranges)
	}

	// Preprocessing (Algorithm 2, ESTIMATE-BUCKETS): each chunk's share
	// of the inputs is scanned — by whichever worker claims or steals
	// the chunk — counting per (frontier, bucket) insertions. Every
	// counter row is zeroed up front: chunks whose range is empty never
	// touch theirs, and a stale count from a previous call would reserve
	// bucket slots that nobody fills.
	clear(ws.boffset[:nc*NB])
	par.ForChunks(t, nc, nil, func(w, c int) {
		lo, hi := ws.ranges[c][0], ws.ranges[c][1]
		if lo >= hi {
			return
		}
		var touched int64
		forSegments(ws.batchOff[:k+1], lo, hi, func(q, lo, hi int) {
			row := ws.boffset[c*NB+q*nb : c*NB+(q+1)*nb]
			for _, j := range ws.xs[q].Ind[lo:hi] {
				rows, _ := a.Col(j)
				for _, i := range rows {
					row[i>>shift]++
				}
				touched += int64(len(rows))
			}
		})
		ctr := &ws.Counters[w]
		ctr.XScanned += int64(hi - lo)
		ctr.MatrixTouched += touched
	}, &ws.sched)

	// Two-level exclusive prefix turns counts into private write
	// cursors: bucket-major, chunk-minor, so entries of one bucket are
	// contiguous and each chunk's slice of each bucket is disjoint —
	// the bucket layout is therefore identical no matter which worker
	// executes which chunk.
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
	ws.Steps.Estimate = timer.Lap()

	// Step 1: each chunk scatters its per-frontier segments of scaled
	// columns into buckets through its cursor rows, lock-free: the
	// cursor ranges are disjoint by construction, and the cursors — not
	// the executing worker — determine where entries land.
	stage := opt.StagingEntries
	if stage > 0 {
		ws.ensureStaging(t, nb, stage)
	}
	par.ForChunks(t, nc, nil, func(w, c int) {
		lo, hi := ws.ranges[c][0], ws.ranges[c][1]
		if lo >= hi {
			return
		}
		var written int64
		forSegments(ws.batchOff[:k+1], lo, hi, func(q, lo, hi int) {
			cur := ws.boffset[c*NB+q*nb : c*NB+(q+1)*nb]
			if stage > 0 {
				written += scatterStaged(a, ws.xs[q], sr.Mul, ws, w, cur, lo, hi, shift, stage)
			} else {
				written += scatterRange(a, ws.xs[q], sr, ws, cur, lo, hi, shift)
			}
		})
		ctr := &ws.Counters[w]
		ctr.XScanned += int64(hi - lo)
		ctr.MatrixTouched += written
		ctr.BucketWrites += written
	}, &ws.sched)
	ws.Steps.Bucket = timer.Lap()

	// Step 2: merge every bucket through the SPA. All k frontiers of
	// one row range run on the same worker — the row range, hence its
	// SPA slots, is what must not be shared — each under its own epoch.
	// A slot's mask is pushed into its frontier's merge (the §V
	// mask-pushdown). With k > 1 the next frontier reuses the SPA rows
	// before Step 3 runs, so each merged segment parks its unique values
	// in the Val fields of its now-dead entries.
	base := ws.epochBlock(uint32(k))
	sortOut, sentinel := opt.SortOutput, opt.UseInfSentinel
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
			switch {
			case ws.masks != nil && ws.masks[q] != nil:
				u = mergeMasked(sr, ws, ents, u, base+uint32(q), ws.masks[q], complement)
				ctr.SPAInit += int64(len(u))
			case sentinel:
				// The marking pass initializes a slot per entry.
				u = mergeSentinel(sr, ws, ents, u)
				ctr.SPAInit += int64(len(ents))
			default:
				u = mergeEpoch(sr, ws, ents, u, base+uint32(q))
				ctr.SPAInit += int64(len(u))
			}
			ws.uindCount[bq] = int64(len(u))
			ctr.SPAUpdates += int64(len(ents)) - int64(len(u))
			if sortOut {
				ws.scratch[w] = radix.SortIndices(u, ws.scratch[w])
				ctr.SortedElems += int64(len(u))
			}
			if k > 1 {
				for i, ind := range u {
					ents[i].Val = ws.spaVal[ind]
				}
			}
		}
	}
	switch opt.MergeSched {
	case SchedDynamic:
		clear(ws.sync[:t])
		par.ForDynamic(t, nb, 1, func(w, lo, hi int) {
			for b := lo; b < hi; b++ {
				mergeBody(w, b)
			}
		}, ws.sync)
		for w := 0; w < t; w++ {
			ws.Counters[w].SyncEvents += ws.sync[w]
		}
	case SchedStealing:
		// Stealable row ranges with initial shares weighted by their
		// entry count over all frontiers (uindOffset is free until
		// Step 3): heavy ranges cluster on few workers up front, and
		// whoever drains their share first steals from the stragglers.
		cum := ws.uindOffset[:nb+1]
		cum[0] = 0
		for b := 0; b < nb; b++ {
			cum[b+1] = cum[b]
			for q := 0; q < k; q++ {
				cum[b+1] += ws.bucketStart[q*nb+b+1] - ws.bucketStart[q*nb+b]
			}
		}
		par.ForChunks(t, nb, cum, mergeBody, &ws.sched)
	default:
		par.ForStatic(t, nb, func(w, lo, hi int) {
			for b := lo; b < hi; b++ {
				mergeBody(w, b)
			}
		})
	}
	ws.Steps.Merge = timer.Lap()
	ws.Steps.Sort = 0 // folded into Merge; reported separately only by instrumented runs

	// Step 3: concatenate buckets into the ys through a prefix sum of
	// unique counts ("using prefix sum on the master thread",
	// Algorithm 1), frontier-major so frontier q's entries start at
	// uindOffset[q·nb].
	var nnz int64
	for bq := 0; bq < NB; bq++ {
		ws.uindOffset[bq] = nnz
		nnz += ws.uindCount[bq]
	}
	ws.uindOffset[NB] = nnz
	for q, y := range ys {
		n := ws.uindOffset[(q+1)*nb] - ws.uindOffset[q*nb]
		if int64(cap(y.Ind)) < n {
			y.Ind = make([]sparse.Index, n)
			y.Val = make([]float64, n)
		} else {
			y.Ind = y.Ind[:n]
			y.Val = y.Val[:n]
		}
		// Buckets cover increasing row ranges; per-bucket sorted uind
		// makes the concatenation globally sorted.
		y.Sorted = sortOut || n == 0
	}
	// Stealable per-bucket copies with initial shares weighted by each
	// bucket's output count (uindOffset is exactly that cumulative
	// weight array). With outBits[q] set the same pass scatters the
	// bucket's entries into frontier q's bitmap: bucket q·nb + b owns
	// rows [b·2^shift, (b+1)·2^shift), so SetRangeFrom's boundary-word
	// atomics make the concurrent fill race-free at any alignment.
	par.ForChunks(t, NB, ws.uindOffset[:NB+1], func(w, bq int) {
		cnt := ws.uindCount[bq]
		if cnt == 0 {
			return
		}
		q := bq / nb
		o := ws.uindOffset[bq] - ws.uindOffset[q*nb]
		yi, yv := ws.ys[q].Ind[o:o+cnt], ws.ys[q].Val[o:o+cnt]
		start := ws.bucketStart[bq]
		u := ws.uind[start : start+cnt]
		if k == 1 {
			for i, ind := range u {
				yi[i], yv[i] = ind, ws.spaVal[ind]
			}
		} else {
			for i, e := range ws.entries[start : start+cnt] {
				yi[i], yv[i] = u[i], e.Val
			}
		}
		if ws.outBits != nil && ws.outBits[q] != nil {
			bLo := sparse.Index(bq-q*nb) << shift
			ws.outBits[q].SetRangeFrom(yi, yv, bLo, bLo+(sparse.Index(1)<<shift))
		}
		ws.Counters[w].OutputWritten += cnt
	}, &ws.sched)
	ws.Steps.Output = timer.Lap()
	ws.foldSched(t)
	ws.xs, ws.ys, ws.masks, ws.outBits = nil, nil, nil, nil
}

// grain is the flops one thread of a call must have before the call is
// split: below it, a fork-join on the executor costs more than the
// share of the multiply it hands off. BenchmarkGrain measures the
// crossover between one and two threads (EXPERIMENTS.md); charging one
// more grain for each further thread is not measured. Only tests
// assign it, to keep small inputs on the parallel path.
var grain int64 = 1 << 14

// callThreads returns the thread count of a call with f input nonzeros
// and the given flops: one thread per started grain of flops, at least
// one and at most the requested t and f. The paper's parallel analysis
// assumes t ≤ f; more threads than input nonzeros cannot be given
// distinct Step-1 work.
func callThreads(t int, f, flops int64) int {
	return int(max(1, min(int64(t), f, (flops+grain-1)/grain)))
}

// bucketGeometry maps an m-row matrix onto at most nbReq buckets. The
// paper assigns row i to bucket ⌊i·nb/m⌋; rounding the rows per bucket
// up to a power of two makes the mapping a shift (i >> shift) instead
// of two 64-bit divisions per matrix nonzero — same contiguous row
// ranges, ≤ the requested bucket count, measurably faster Steps 1 and 2.
func bucketGeometry(m sparse.Index, nbReq int) (nb int, shift uint) {
	for int64(m) > int64(nbReq)<<shift {
		shift++
	}
	nb = int((int64(m) + (int64(1) << shift) - 1) >> shift)
	return max(nb, 1), shift
}

// forSegments calls fn once for every frontier whose inputs overlap the
// concatenated positions [lo, hi), with the overlap in that frontier's
// own positions; off holds the frontier boundaries.
func forSegments(off []int64, lo, hi int, fn func(q, lo, hi int)) {
	for q := 0; q+1 < len(off) && off[q] < int64(hi); q++ {
		sLo, sHi := max(int64(lo), off[q]), min(int64(hi), off[q+1])
		if sLo < sHi {
			fn(q, int(sLo-off[q]), int(sHi-off[q]))
		}
	}
}
