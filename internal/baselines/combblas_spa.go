package baselines

import (
	enginepkg "spmspv/internal/engine"
	"spmspv/internal/par"
	"spmspv/internal/perf"
	"spmspv/internal/radix"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// CombBLASSPA reimplements the CombBLAS-SPA algorithm of Table I: the
// matrix is split row-wise into t DCSC pieces ahead of time; each thread
// scans the entire input vector, pulls its piece's fragment of every
// selected column, and accumulates into a private SPA covering its own
// row range.
//
// Two properties make it work-inefficient, and both are reproduced
// here: every thread reads all f input nonzeros (O(t·f) total — the
// term that kills scalability once t exceeds the average degree d), and
// the SPA is fully initialized on every call (O(m) total — the term
// that dominates for very sparse inputs, paper §IV-C). Set FullInit to
// false for the ablation that removes the second cost.
//
// The row-split pieces are immutable after construction; all per-call
// scratch lives in a slot-pinned spaState (warm state reuse, pool
// overflow — see par.Slots), so one CombBLASSPA is safe for concurrent
// Multiply calls.
type CombBLASSPA struct {
	pieces []*sparse.DCSC
	m, n   sparse.Index
	t      int

	states *par.Slots[spaState]

	// FullInit selects the paper-faithful full SPA initialization
	// (default true). Flip it only while no Multiply is in flight.
	FullInit bool

	counterAgg
}

// spaState is the per-call scratch of one CombBLASSPA multiply: the
// per-thread private SPAs, touched lists, sort scratch, output offsets
// and work counters.
type spaState struct {
	spaVal  [][]float64
	spaTag  [][]uint32
	epochs  []uint32
	touched [][]sparse.Index
	scratch [][]sparse.Index
	outOff  []int64
	ctr     []perf.Counters
}

// NewCombBLASSPA builds the row-split structure for t threads (≤ 0
// means GOMAXPROCS).
func NewCombBLASSPA(a *sparse.CSC, t int) *CombBLASSPA {
	t = par.Threads(t)
	c := &CombBLASSPA{
		pieces:   sparse.RowSplit(a, t),
		m:        a.NumRows,
		n:        a.NumCols,
		t:        t,
		FullInit: true,
	}
	c.states = par.NewSlots(par.Threads(0), func() *spaState {
		st := &spaState{
			spaVal:  make([][]float64, t),
			spaTag:  make([][]uint32, t),
			epochs:  make([]uint32, t),
			touched: make([][]sparse.Index, t),
			scratch: make([][]sparse.Index, t),
			outOff:  make([]int64, t+1),
			ctr:     make([]perf.Counters, t),
		}
		for w, d := range c.pieces {
			st.spaVal[w] = make([]float64, d.NumRows)
			st.spaTag[w] = make([]uint32, d.NumRows)
		}
		return st
	})
	return c
}

// retire folds the state's per-worker counters into the aggregate and
// releases the state's slot.
func (c *CombBLASSPA) retire(st *spaState, slot int) {
	c.retireCounters(st.ctr)
	c.states.Put(st, slot)
}

// Multiply computes y ← ⟨A·x, mask⟩ into the output frontier's list;
// the output is sorted (CombBLAS keeps its vectors ordered, paper
// §IV-B) and its bitmap is left lazy. Masked rows are dropped from each
// piece's touched list before the per-piece sort and output copy (see
// masked.go).
func (c *CombBLASSPA) Multiply(x, y *sparse.Frontier, sr semiring.Semiring, mask *sparse.BitVec, complement, _ bool) {
	c.run(x.List(), y.BeginOutput(), sr, mask, complement)
	y.FinishOutput(false)
}

// MultiplyBatch runs the batch as a loop of Multiply calls.
func (c *CombBLASSPA) MultiplyBatch(xs, ys []*sparse.Frontier, sr semiring.Semiring, masks []*sparse.BitVec, complement, bitmap bool) {
	enginepkg.BatchLoop(c, xs, ys, sr, masks, complement, bitmap)
}

func (c *CombBLASSPA) run(x, y *sparse.SpVec, sr semiring.Semiring, mask *sparse.BitVec, complement bool) {
	st, slot := c.states.Get()
	y.Reset(c.m)
	par.ForStatic(c.t, c.t, func(_, lo, hi int) {
		for w := lo; w < hi; w++ {
			c.multiplyPiece(st, w, x, sr, mask, complement)
		}
	})

	var total int64
	for w := 0; w < c.t; w++ {
		st.outOff[w] = total
		total += int64(len(st.touched[w]))
	}
	st.outOff[c.t] = total
	if int64(cap(y.Ind)) < total {
		y.Ind = make([]sparse.Index, total)
		y.Val = make([]float64, total)
	} else {
		y.Ind = y.Ind[:total]
		y.Val = y.Val[:total]
	}
	par.ForStatic(c.t, c.t, func(_, lo, hi int) {
		for w := lo; w < hi; w++ {
			off := st.outOff[w]
			rowOff := c.pieces[w].RowOffset
			vals := st.spaVal[w]
			for i, li := range st.touched[w] {
				y.Ind[off+int64(i)] = li + rowOff
				y.Val[off+int64(i)] = vals[li]
			}
			st.ctr[w].OutputWritten += int64(len(st.touched[w]))
		}
	})
	// Pieces cover increasing row ranges and each piece's indices are
	// sorted, so the concatenation is globally sorted.
	y.Sorted = true
	c.retire(st, slot)
}

func (c *CombBLASSPA) multiplyPiece(st *spaState, w int, x *sparse.SpVec, sr semiring.Semiring, mask *sparse.BitVec, complement bool) {
	d := c.pieces[w]
	ctr := &st.ctr[w]
	vals := st.spaVal[w]
	tags := st.spaTag[w]

	if c.FullInit {
		// The CombBLAS-SPA discipline: wipe the whole private SPA.
		for i := range vals {
			vals[i] = sr.Zero
		}
		for i := range tags {
			tags[i] = 0
		}
		st.epochs[w] = 1
		ctr.SPAInit += int64(len(vals)) * 2
	} else {
		st.epochs[w]++
		if st.epochs[w] == 0 {
			for i := range tags {
				tags[i] = 0
			}
			st.epochs[w] = 1
		}
	}
	acc := spaAccum{
		vals:    vals,
		tags:    tags,
		epoch:   st.epochs[w],
		touched: st.touched[w][:0],
	}

	// Every thread scans the entire input vector — the O(t·f) term. The
	// accumulate body is monomorphized over the semiring tags
	// (accumulate.go).
	for k, j := range x.Ind {
		pos, ok := d.FindCol(j)
		if !ok {
			continue
		}
		rows, mvals := d.ColAt(pos)
		acc.accumulate(sr, rows, mvals, x.Val[k])
		ctr.MatrixTouched += int64(len(rows))
	}
	ctr.XScanned += int64(len(x.Ind))
	ctr.ColumnsProbed += int64(len(x.Ind))
	if !c.FullInit {
		// With full initialization the O(m) wipe above is the init cost;
		// per-slot inits are counted only for the ablation variant.
		ctr.SPAInit += acc.inits
	}
	ctr.SPAUpdates += acc.updates

	if mask != nil {
		acc.touched = filterTouchedMasked(acc.touched, d.RowOffset, mask, complement)
	}
	st.scratch[w] = radix.SortIndices(acc.touched, st.scratch[w])
	ctr.SortedElems += int64(len(acc.touched))
	st.touched[w] = acc.touched
}

// Name identifies the algorithm in benchmark tables.
func (c *CombBLASSPA) Name() string { return "CombBLAS-SPA" }
