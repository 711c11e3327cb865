package baselines

import (
	enginepkg "spmspv/internal/engine"
	"spmspv/internal/par"
	"spmspv/internal/perf"
	"spmspv/internal/semiring"
	"spmspv/internal/spa"
	"spmspv/internal/sparse"
)

// CombBLASHeap reimplements the CombBLAS-heap algorithm of Table I:
// row-split DCSC pieces, with each thread merging the scaled fragments
// of its selected columns through a k-way binary heap. Sequential
// complexity is O(df·lg f); the heap's logarithmic factor is what makes
// it ~3.5× slower than the SPA algorithms once the vector gets dense
// (paper §IV-C), while its lack of any O(m) or O(n) term keeps it
// competitive for very sparse inputs.
//
// The row-split pieces are immutable after construction; the per-call
// mergers and output buffers live in a slot-pinned heapState (warm
// state reuse, pool overflow — see par.Slots), so one CombBLASHeap is
// safe for concurrent Multiply calls.
type CombBLASHeap struct {
	pieces []*sparse.DCSC
	m, n   sparse.Index
	t      int

	states *par.Slots[heapState]

	counterAgg
}

// heapState is the per-call scratch of one CombBLASHeap multiply.
type heapState struct {
	mergers []*spa.KWayMerger
	outInd  [][]sparse.Index
	outVal  [][]float64
	outOff  []int64
	ctr     []perf.Counters
}

// NewCombBLASHeap builds the row-split structure for t threads (≤ 0
// means GOMAXPROCS). Columns within each piece must be sorted by row,
// which sparse.RowSplit guarantees for matrices built by this package.
func NewCombBLASHeap(a *sparse.CSC, t int) *CombBLASHeap {
	t = par.Threads(t)
	c := &CombBLASHeap{
		pieces: sparse.RowSplit(a, t),
		m:      a.NumRows,
		n:      a.NumCols,
		t:      t,
	}
	c.states = par.NewSlots(par.Threads(0), func() *heapState {
		st := &heapState{
			mergers: make([]*spa.KWayMerger, t),
			outInd:  make([][]sparse.Index, t),
			outVal:  make([][]float64, t),
			outOff:  make([]int64, t+1),
			ctr:     make([]perf.Counters, t),
		}
		for w := range st.mergers {
			st.mergers[w] = spa.NewKWayMerger(64)
		}
		return st
	})
	return c
}

func (c *CombBLASHeap) retire(st *heapState, slot int) {
	c.retireCounters(st.ctr)
	c.states.Put(st, slot)
}

// Multiply computes y ← ⟨A·x, mask⟩ into the output frontier's list;
// the output is sorted (heap merging emits rows in order) and its
// bitmap is left lazy. The mask is tested in the heap-merge emit
// callback, so masked rows never enter the per-piece output buffers
// (see masked.go).
func (c *CombBLASHeap) Multiply(x, y *sparse.Frontier, sr semiring.Semiring, mask *sparse.BitVec, complement, _ bool) {
	c.run(x.List(), y.BeginOutput(), sr, mask, complement)
	y.FinishOutput(false)
}

// MultiplyBatch runs the batch as a loop of Multiply calls.
func (c *CombBLASHeap) MultiplyBatch(xs, ys []*sparse.Frontier, sr semiring.Semiring, masks []*sparse.BitVec, complement, bitmap bool) {
	enginepkg.BatchLoop(c, xs, ys, sr, masks, complement, bitmap)
}

func (c *CombBLASHeap) run(x, y *sparse.SpVec, sr semiring.Semiring, mask *sparse.BitVec, complement bool) {
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
		total += int64(len(st.outInd[w]))
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
			copy(y.Ind[off:], st.outInd[w])
			copy(y.Val[off:], st.outVal[w])
			st.ctr[w].OutputWritten += int64(len(st.outInd[w]))
		}
	})
	y.Sorted = true
	c.retire(st, slot)
}

func (c *CombBLASHeap) multiplyPiece(st *heapState, w int, x *sparse.SpVec, sr semiring.Semiring, mask *sparse.BitVec, complement bool) {
	d := c.pieces[w]
	ctr := &st.ctr[w]
	merger := st.mergers[w]
	merger.Reset()

	var touched int64
	// Every thread scans the entire input vector, as in CombBLAS-SPA.
	for k, j := range x.Ind {
		pos, ok := d.FindCol(j)
		if !ok {
			continue
		}
		rows, vals := d.ColAt(pos)
		merger.AddSegment(rows, vals, x.Val[k])
		touched += int64(len(rows))
	}
	ctr.XScanned += int64(len(x.Ind))
	ctr.ColumnsProbed += int64(len(x.Ind))
	ctr.MatrixTouched += touched

	rowOff := d.RowOffset
	outInd := st.outInd[w][:0]
	outVal := st.outVal[w][:0]
	emit := func(row sparse.Index, val float64) {
		outInd = append(outInd, row+rowOff)
		outVal = append(outVal, val)
	}
	if mask != nil {
		plain := emit
		emit = func(row sparse.Index, val float64) {
			if mask.Test(row+rowOff) == complement {
				return
			}
			plain(row, val)
		}
	}
	merger.Merge(sr, emit)
	ctr.HeapOps += merger.Ops()
	st.outInd[w] = outInd
	st.outVal[w] = outVal
}

// Name identifies the algorithm in benchmark tables.
func (c *CombBLASHeap) Name() string { return "CombBLAS-heap" }
