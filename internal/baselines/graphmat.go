package baselines

import (
	enginepkg "spmspv/internal/engine"
	"spmspv/internal/par"
	"spmspv/internal/perf"
	"spmspv/internal/radix"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// GraphMat reimplements GraphMat's matrix-driven SpMSpV (Table I):
// row-split DCSC pieces and a bitvector input vector. Being
// matrix-driven, every thread iterates over all nonzero columns of its
// piece and probes the bitvector — O(nzc) work per call regardless of
// how sparse x is. That flat O(nzc) floor is exactly the plateau
// GraphMat shows for nnz(x) < 50K in Fig. 3, and the reason the paper
// classifies matrix-driven algorithms as unable to attain the lower
// bound.
//
// GraphMat consumes the bitmap representation of its input frontier:
// the first call on a list-only frontier pays the O(f) list→bitmap
// conversion; a frontier whose bitmap is already materialized (a
// hybrid engine or batch caller sharing one frontier across calls, or
// the native output bitmap of the previous level) skips it entirely.
//
// The row-split pieces are immutable after construction; the per-thread
// SPAs live in a slot-pinned gmState (warm state reuse, pool overflow —
// see par.Slots), so one GraphMat is safe for concurrent Multiply
// calls.
type GraphMat struct {
	pieces []*sparse.DCSC
	m, n   sparse.Index
	t      int

	states *par.Slots[gmState]

	counterAgg
}

// gmState is the per-call scratch of one GraphMat multiply.
type gmState struct {
	spaVal  [][]float64
	spaTag  [][]uint32
	epochs  []uint32
	touched [][]sparse.Index
	scratch [][]sparse.Index
	outOff  []int64
	ctr     []perf.Counters
}

// NewGraphMat builds the row-split structure for t threads (≤ 0 means
// GOMAXPROCS).
func NewGraphMat(a *sparse.CSC, t int) *GraphMat {
	t = par.Threads(t)
	g := &GraphMat{
		pieces: sparse.RowSplit(a, t),
		m:      a.NumRows,
		n:      a.NumCols,
		t:      t,
	}
	g.states = par.NewSlots(par.Threads(0), func() *gmState {
		st := &gmState{
			spaVal:  make([][]float64, t),
			spaTag:  make([][]uint32, t),
			epochs:  make([]uint32, t),
			touched: make([][]sparse.Index, t),
			scratch: make([][]sparse.Index, t),
			outOff:  make([]int64, t+1),
			ctr:     make([]perf.Counters, t),
		}
		for w, d := range g.pieces {
			st.spaVal[w] = make([]float64, d.NumRows)
			st.spaTag[w] = make([]uint32, d.NumRows)
		}
		return st
	})
	return g
}

func (g *GraphMat) retire(st *gmState, slot int) {
	g.retireCounters(st.ctr)
	g.states.Put(st, slot)
}

// Multiply computes y ← ⟨A·x, mask⟩ into the output frontier; the
// output is sorted. The input is read through the frontier's bitmap,
// materialized only when no earlier consumer of the same frontier
// already has (the O(f) list→bitmap conversion a list input costs is
// counted in XScanned). The mask is pushed into the per-piece pass:
// masked rows are dropped from each piece's touched list before it is
// sorted or copied out. With bitmap set the per-piece output copy
// scatters its rows into the output bitmap in the same pass that
// writes the list — a bitvector-in, bitvector-out multiply, the shape
// GraphMat's own matrix-driven pipeline composes.
func (g *GraphMat) Multiply(x, y *sparse.Frontier, sr semiring.Semiring, mask *sparse.BitVec, complement, bitmap bool) {
	list := y.BeginOutput()
	var bits *sparse.BitVec
	if bitmap {
		bits = y.OutputBits(g.m)
	}
	g.run(x, list, bits, sr, mask, complement)
	y.FinishOutput(bitmap)
}

// MultiplyBatch runs the batch as a loop of Multiply calls.
func (g *GraphMat) MultiplyBatch(xs, ys []*sparse.Frontier, sr semiring.Semiring, masks []*sparse.BitVec, complement, bitmap bool) {
	enginepkg.BatchLoop(g, xs, ys, sr, masks, complement, bitmap)
}

// run is the shared matrix-driven multiply: frontier in, list (and
// optionally native bitmap) out, with an optional output mask applied
// per piece.
func (g *GraphMat) run(fr *sparse.Frontier, y *sparse.SpVec, outBits *sparse.BitVec, sr semiring.Semiring, mask *sparse.BitVec, complement bool) {
	st, slot := g.states.Get()
	y.Reset(g.m)
	if fr.Materialize() {
		// The conversion scans the f input entries, the same O(f) cost
		// the original bitvector build paid per call.
		st.ctr[0].XScanned += int64(fr.NNZ())
		st.ctr[0].FrontierConversions++
		if fr.IsOutput() {
			// The upstream engine produced this frontier without a
			// native bitmap — the conversion the output layer is
			// supposed to make unnecessary.
			st.ctr[0].OutputConversions++
		}
	}
	bits := fr.Bits()

	par.ForStatic(g.t, g.t, func(_, lo, hi int) {
		for w := lo; w < hi; w++ {
			g.multiplyPiece(st, bits, w, sr, mask, complement)
		}
	})

	var total int64
	for w := 0; w < g.t; w++ {
		st.outOff[w] = total
		total += int64(len(st.touched[w]))
	}
	st.outOff[g.t] = total
	if int64(cap(y.Ind)) < total {
		y.Ind = make([]sparse.Index, total)
		y.Val = make([]float64, total)
	} else {
		y.Ind = y.Ind[:total]
		y.Val = y.Val[:total]
	}
	par.ForStatic(g.t, g.t, func(_, lo, hi int) {
		for w := lo; w < hi; w++ {
			off := st.outOff[w]
			d := g.pieces[w]
			rowOff := d.RowOffset
			vals := st.spaVal[w]
			for i, li := range st.touched[w] {
				y.Ind[off+int64(i)] = li + rowOff
				y.Val[off+int64(i)] = vals[li]
			}
			if outBits != nil && len(st.touched[w]) > 0 {
				cnt := int64(len(st.touched[w]))
				outBits.SetRangeFrom(y.Ind[off:off+cnt], y.Val[off:off+cnt],
					rowOff, rowOff+d.NumRows)
			}
			st.ctr[w].OutputWritten += int64(len(st.touched[w]))
		}
	})
	y.Sorted = true
	g.retire(st, slot)
}

func (g *GraphMat) multiplyPiece(st *gmState, bits *sparse.BitVec, w int, sr semiring.Semiring, mask *sparse.BitVec, complement bool) {
	d := g.pieces[w]
	ctr := &st.ctr[w]
	st.epochs[w]++
	if st.epochs[w] == 0 {
		tags := st.spaTag[w]
		for i := range tags {
			tags[i] = 0
		}
		st.epochs[w] = 1
	}
	acc := spaAccum{
		vals:    st.spaVal[w],
		tags:    st.spaTag[w],
		epoch:   st.epochs[w],
		touched: st.touched[w][:0],
	}

	// Matrix-driven: iterate over every nonzero column of the piece and
	// probe the input bitvector. This loop runs nzc times per call no
	// matter how sparse x is. The accumulate body is monomorphized over
	// the semiring tags (accumulate.go).
	for pos, j := range d.JC {
		if !bits.Test(j) {
			continue
		}
		xv := bits.Val[j]
		rows, mvals := d.ColAt(pos)
		acc.accumulate(sr, rows, mvals, xv)
		ctr.MatrixTouched += int64(len(rows))
	}
	ctr.ColumnsProbed += int64(len(d.JC))
	ctr.SPAInit += acc.inits
	ctr.SPAUpdates += acc.updates

	if mask != nil {
		// Mask pushdown: masked rows leave the piece here, before the
		// sort and the output copy ever see them.
		acc.touched = filterTouchedMasked(acc.touched, d.RowOffset, mask, complement)
	}
	st.scratch[w] = radix.SortIndices(acc.touched, st.scratch[w])
	ctr.SortedElems += int64(len(acc.touched))
	st.touched[w] = acc.touched
}

// Name identifies the algorithm in benchmark tables.
func (g *GraphMat) Name() string { return "GraphMat" }
