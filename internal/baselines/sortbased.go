package baselines

import (
	enginepkg "spmspv/internal/engine"
	"spmspv/internal/par"
	"spmspv/internal/perf"
	"spmspv/internal/radix"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// SortBased reimplements the SpMSpV-sort algorithm of Yang et al.
// (Table I: "concatenate, sort and prune"): all df scaled entries of the
// selected columns are gathered into one array, sorted by row index with
// a parallel radix sort, and adjacent duplicates are reduced. The
// O(df·lg df) sorting work is its handicap; its upside is a naturally
// sorted output and no per-thread matrix partitioning.
//
// The matrix is shared read-only; the gather/sort/prune buffers live in
// a slot-pinned sortState (warm state reuse, pool overflow — see
// par.Slots), so one SortBased is safe for concurrent Multiply calls.
type SortBased struct {
	a *sparse.CSC
	t int

	states *par.Slots[sortState]

	counterAgg
}

// sortState is the per-call scratch of one SortBased multiply.
type sortState struct {
	entries []sparse.Entry
	scratch []sparse.Entry
	xcum    []int64
	bounds  []int64
	outInd  [][]sparse.Index
	outVal  [][]float64
	outOff  []int64
	ctr     []perf.Counters
}

// NewSortBased returns a sort-based multiplier for t threads (≤ 0 means
// GOMAXPROCS).
func NewSortBased(a *sparse.CSC, t int) *SortBased {
	t = par.Threads(t)
	s := &SortBased{a: a, t: t}
	s.states = par.NewSlots(par.Threads(0), func() *sortState {
		return &sortState{
			bounds: make([]int64, t+1),
			outInd: make([][]sparse.Index, t),
			outVal: make([][]float64, t),
			outOff: make([]int64, t+1),
			ctr:    make([]perf.Counters, t),
		}
	})
	return s
}

func (s *SortBased) retire(st *sortState, slot int) {
	s.retireCounters(st.ctr)
	s.states.Put(st, slot)
}

// Multiply computes y ← ⟨A·x, mask⟩ into the output frontier's list;
// the output is sorted and its bitmap is left lazy. The mask is tested
// once per duplicate-run during the prune step: runs the mask kills are
// skipped without reducing them (see masked.go).
func (s *SortBased) Multiply(x, y *sparse.Frontier, sr semiring.Semiring, mask *sparse.BitVec, complement, _ bool) {
	s.run(x.List(), y.BeginOutput(), sr, mask, complement)
	y.FinishOutput(false)
}

// MultiplyBatch runs the batch as a loop of Multiply calls.
func (s *SortBased) MultiplyBatch(xs, ys []*sparse.Frontier, sr semiring.Semiring, masks []*sparse.BitVec, complement, bitmap bool) {
	enginepkg.BatchLoop(s, xs, ys, sr, masks, complement, bitmap)
}

func (s *SortBased) run(x, y *sparse.SpVec, sr semiring.Semiring, mask *sparse.BitVec, complement bool) {
	y.Reset(s.a.NumRows)
	f := len(x.Ind)
	if f == 0 {
		return
	}
	st, slot := s.states.Get()
	t := s.t
	if t > f {
		t = f
	}

	// Concatenate: gather all scaled entries, each worker writing a
	// contiguous region sized by the cumulative column weights.
	st.xcum = s.a.CumulativeColWeights(x.Ind, st.xcum)
	total := st.xcum[f]
	ranges := par.SplitByWeight(st.xcum, t)
	if int64(cap(st.entries)) < total {
		st.entries = make([]sparse.Entry, total)
	}
	ents := st.entries[:total]
	mul := sr.Mul
	par.ForRanges(ranges, func(w, lo, hi int) {
		ctr := &st.ctr[w]
		pos := st.xcum[lo]
		for k := lo; k < hi; k++ {
			j, xv := x.Ind[k], x.Val[k]
			rows, vals := s.a.Col(j)
			for e, i := range rows {
				ents[pos] = sparse.Entry{Ind: i, Val: mul(vals[e], xv)}
				pos++
			}
			ctr.MatrixTouched += int64(len(rows))
		}
		ctr.XScanned += int64(hi - lo)
	})

	// Sort by row index.
	st.scratch = radix.ParallelSortEntries(ents, st.scratch, t)
	st.ctr[0].SortedElems += total

	// Prune: segmented reduction over runs of equal row ids. Worker
	// boundaries are pushed forward to run starts so every run belongs
	// to exactly one worker.
	bounds := st.bounds
	for w := 0; w <= t; w++ {
		b := int64(w) * total / int64(t)
		for b > 0 && b < total && ents[b].Ind == ents[b-1].Ind {
			b++
		}
		bounds[w] = b
	}
	par.ForStatic(t, t, func(_, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			ctr := &st.ctr[w]
			outInd := st.outInd[w][:0]
			outVal := st.outVal[w][:0]
			lo, hi := bounds[w], bounds[w+1]
			for k := lo; k < hi; {
				row := ents[k].Ind
				if mask != nil && mask.Test(row) == complement {
					// Masked run: skip it wholesale, no reduction.
					for k++; k < hi && ents[k].Ind == row; k++ {
					}
					continue
				}
				acc := ents[k].Val
				k++
				for k < hi && ents[k].Ind == row {
					acc = sr.Add(acc, ents[k].Val)
					k++
					ctr.SPAUpdates++
				}
				outInd = append(outInd, row)
				outVal = append(outVal, acc)
			}
			st.outInd[w] = outInd
			st.outVal[w] = outVal
		}
	})

	var outTotal int64
	for w := 0; w < t; w++ {
		st.outOff[w] = outTotal
		outTotal += int64(len(st.outInd[w]))
	}
	st.outOff[t] = outTotal
	if int64(cap(y.Ind)) < outTotal {
		y.Ind = make([]sparse.Index, outTotal)
		y.Val = make([]float64, outTotal)
	} else {
		y.Ind = y.Ind[:outTotal]
		y.Val = y.Val[:outTotal]
	}
	par.ForStatic(t, t, func(_, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			off := st.outOff[w]
			copy(y.Ind[off:], st.outInd[w])
			copy(y.Val[off:], st.outVal[w])
			st.ctr[w].OutputWritten += int64(len(st.outInd[w]))
		}
	})
	y.Sorted = true
	s.retire(st, slot)
}

// Name identifies the algorithm in benchmark tables.
func (s *SortBased) Name() string { return "SpMSpV-sort" }
