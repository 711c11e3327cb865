package core

import (
	"spmspv/internal/par"
	"spmspv/internal/perf"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// Multiply computes y ← A·x over the semiring sr using the
// SpMSpV-bucket algorithm (Algorithms 1 and 2 of the paper). x may be
// sorted or unsorted; duplicate indices in x contribute additively. y is
// reset and filled; it comes out sorted iff opt.SortOutput is set. ws
// must not be shared with concurrent calls.
func Multiply(a *sparse.CSC, x *sparse.SpVec, y *sparse.SpVec, sr semiring.Semiring, ws *Workspace, opt Options) {
	multiply(a, x, y, sr, ws, opt, nil, false, nil)
}

// MultiplyMasked computes y ← ⟨A·x, mask⟩: entries of A·x whose row is
// not admitted by the mask are dropped during the merge step rather than
// after the fact. With complement set, rows present in the mask are the
// ones dropped — the pattern BFS uses to exclude already-visited
// vertices. Masked SpMSpV is listed as upcoming GraphBLAS work in the
// paper's §V; this implements the mask-pushdown the paper anticipates.
func MultiplyMasked(a *sparse.CSC, x *sparse.SpVec, y *sparse.SpVec, sr semiring.Semiring, mask *sparse.BitVec, complement bool, ws *Workspace, opt Options) {
	multiply(a, x, y, sr, ws, opt, mask, complement, nil)
}

// multiply is the shared implementation. outBits, when non-nil, is an
// output bitmap the final output step populates natively alongside y
// (one pass emits both representations — see Multiplier.Multiply).
func multiply(a *sparse.CSC, x *sparse.SpVec, y *sparse.SpVec, sr semiring.Semiring, ws *Workspace, opt Options, mask *sparse.BitVec, maskComplement bool, outBits *sparse.BitVec) {
	opt = opt.WithDefaults()
	m := a.NumRows
	y.Reset(m)
	y.Sorted = true
	f := x.NNZ()
	if f == 0 || m == 0 {
		ws.Steps = perf.StepTimes{}
		return
	}

	// The paper's parallel analysis assumes t ≤ f; more threads than
	// input nonzeros cannot be given distinct Step-1 work.
	t := opt.Threads
	if t > f {
		t = f
	}
	// Bucket mapping: the paper assigns row i to bucket ⌊i·nb/m⌋. We
	// round the rows-per-bucket up to a power of two so the mapping is
	// a shift (i >> bucketShift) instead of two 64-bit divisions per
	// matrix nonzero — same contiguous row ranges, ≤ the requested
	// bucket count, measurably faster Steps 1 and 2.
	nbReq := opt.BucketsPerThread * t
	shift := uint(0)
	for int64(m) > int64(nbReq)<<shift {
		shift++
	}
	nb := int((int64(m) + (int64(1) << shift) - 1) >> shift)
	if nb < 1 {
		nb = 1
	}
	// Over-decompose the input split into ~8 stealable chunks per worker
	// (one chunk when t = 1): each chunk owns a private cursor row, so
	// any executor worker can run any chunk and stealing rebalances
	// skewed frontiers without changing the bucket layout.
	nc := stepChunks(t, f)
	ws.ensure(m, t, nb, nc)
	ex := opt.Exec()

	var timer perf.Timer
	timer.Start()

	// Partition the f input nonzeros among nc chunks. The default
	// weights each x entry by its column's nonzero count — the §III-B
	// fix that keeps the span low when a few columns are huge.
	if opt.SplitEvenly {
		ws.ranges = par.EvenRangesInto(f, nc, ws.ranges)
	} else {
		ws.xcum = a.CumulativeColWeights(x.Ind, ws.xcum)
		ws.ranges = par.SplitByWeightInto(ws.xcum, nc, ws.ranges)
	}

	// Preprocessing (Algorithm 2, ESTIMATE-BUCKETS): count per
	// (chunk, bucket) insertions.
	estimateBuckets(a, x, ws, ex, t, nc, nb, shift)

	// Two-level exclusive prefix turns counts into private write
	// cursors: bucket-major, chunk-minor, so entries of one bucket are
	// contiguous and each chunk's slice of each bucket is disjoint —
	// the bucket layout is therefore identical no matter which worker
	// executes which chunk.
	var total int64
	for b := 0; b < nb; b++ {
		ws.bucketStart[b] = total
		for c := 0; c < nc; c++ {
			idx := c*nb + b
			cnt := ws.boffset[idx]
			ws.boffset[idx] = total
			total += cnt
		}
	}
	ws.bucketStart[nb] = total
	ws.ensureEntries(total)
	ws.Steps.Estimate = timer.Lap()

	// Step 1: scatter scaled columns into buckets, lock-free.
	if opt.StagingEntries > 0 {
		bucketStepStaged(a, x, sr, ws, ex, t, nc, nb, shift, opt.StagingEntries)
	} else {
		bucketStep(a, x, sr, ws, ex, t, nc, nb, shift)
	}
	ws.Steps.Bucket = timer.Lap()

	// Step 2: merge each bucket independently via the SPA.
	mergeStep(sr, ws, ex, t, nb, opt, mask, maskComplement)
	ws.Steps.Merge = timer.Lap()
	ws.Steps.Sort = 0 // folded into Merge; reported separately only by instrumented runs

	// Step 3: concatenate buckets into y through a prefix sum of unique
	// counts ("using prefix sum on the master thread", Algorithm 1).
	outputStep(y, outBits, ws, ex, t, nb, shift, opt)
	ws.Steps.Output = timer.Lap()
	ws.foldSched(t)
}

// estimateBuckets implements Algorithm 2: each chunk's share of x is
// scanned — by whichever worker claims or steals the chunk — counting
// how many entries of the selected columns fall into each bucket.
func estimateBuckets(a *sparse.CSC, x *sparse.SpVec, ws *Workspace, ex *par.Executor, t, nc, nb int, shift uint) {
	// Zero every chunk's counter row up front: chunks whose x range is
	// empty are never invoked, and a stale count from a previous call
	// would reserve bucket slots that nobody fills.
	clear(ws.boffset[:nc*nb])
	ex.ForChunks(t, nc, nil, func(w, c int) {
		lo, hi := ws.ranges[c][0], ws.ranges[c][1]
		if lo >= hi {
			return
		}
		row := ws.boffset[c*nb : (c+1)*nb]
		ctr := &ws.Counters[w]
		var touched int64
		for k := lo; k < hi; k++ {
			rows, _ := a.Col(x.Ind[k])
			for _, i := range rows {
				row[i>>shift]++
			}
			touched += int64(len(rows))
		}
		ctr.XScanned += int64(hi - lo)
		ctr.MatrixTouched += touched
	}, &ws.sched)
}

// The bucketStep, bucketStepStaged and mergeStep hot loops live in
// kernels.go, monomorphized over the semiring's tagged operations.

// outputStep implements Step 3 of Algorithm 1: per-bucket unique counts
// are prefix-summed on the master thread, then every bucket copies its
// (index, SPA value) pairs to its final offset in y in parallel. When
// outBits is non-nil the same per-bucket pass scatters the bucket's
// entries into the output bitmap — buckets own disjoint row ranges
// [b·2^shift, (b+1)·2^shift), so SetRangeFrom's boundary-word atomics
// make the concurrent fill race-free at any alignment.
func outputStep(y *sparse.SpVec, outBits *sparse.BitVec, ws *Workspace, ex *par.Executor, t, nb int, shift uint, opt Options) {
	var nnzY int64
	for b := 0; b < nb; b++ {
		ws.uindOffset[b] = nnzY
		nnzY += ws.uindCount[b]
	}
	ws.uindOffset[nb] = nnzY

	if int64(cap(y.Ind)) < nnzY {
		y.Ind = make([]sparse.Index, nnzY)
		y.Val = make([]float64, nnzY)
	} else {
		y.Ind = y.Ind[:nnzY]
		y.Val = y.Val[:nnzY]
	}
	// Stealable per-bucket copies with initial shares weighted by each
	// bucket's output count (uindOffset is exactly that cumulative
	// weight array).
	ex.ForChunks(t, nb, ws.uindOffset[:nb+1], func(w, b int) {
		ctr := &ws.Counters[w]
		off := ws.uindOffset[b]
		start := ws.bucketStart[b]
		u := ws.uind[start : start+ws.uindCount[b]]
		for i, ind := range u {
			y.Ind[off+int64(i)] = ind
			y.Val[off+int64(i)] = ws.spaVal[ind]
		}
		if outBits != nil && len(u) > 0 {
			bLo := sparse.Index(b) << shift
			outBits.SetRangeFrom(y.Ind[off:off+int64(len(u))], y.Val[off:off+int64(len(u))],
				bLo, bLo+(sparse.Index(1)<<shift))
		}
		ctr.OutputWritten += int64(len(u))
	}, &ws.sched)
	// Buckets cover increasing row ranges; per-bucket sorted uind makes
	// the concatenation globally sorted.
	y.Sorted = opt.SortOutput
}
