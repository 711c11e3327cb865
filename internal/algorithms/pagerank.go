package algorithms

import (
	"math"

	"spmspv/internal/engine"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// PageRankOptions configures the data-driven PageRank iteration.
type PageRankOptions struct {
	// Damping is the teleport parameter α (default 0.85).
	Damping float64
	// Tol is the per-vertex activity threshold: a vertex whose rank
	// changed by less than Tol drops out of the frontier ("SpMSpV allows
	// marking vertices inactive using the sparsity of the input vector,
	// as soon as its value converges", paper §I). Default 1e-9.
	Tol float64
	// MaxIter bounds the iteration count (default 100).
	MaxIter int
}

func (o PageRankOptions) withDefaults() PageRankOptions {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	return o
}

// NormalizeColumns returns a copy of a with every column scaled to sum
// to one (the column-stochastic matrix PageRank iterates with). Columns
// of dangling vertices stay empty; their rank mass is redistributed
// implicitly by renormalizing at the end.
func NormalizeColumns(a *sparse.CSC) *sparse.CSC {
	out := &sparse.CSC{
		NumRows:    a.NumRows,
		NumCols:    a.NumCols,
		ColPtr:     append([]int64(nil), a.ColPtr...),
		RowIdx:     append([]sparse.Index(nil), a.RowIdx...),
		Val:        append([]float64(nil), a.Val...),
		SortedCols: a.SortedCols,
	}
	for j := sparse.Index(0); j < a.NumCols; j++ {
		lo, hi := out.ColPtr[j], out.ColPtr[j+1]
		var sum float64
		for k := lo; k < hi; k++ {
			sum += out.Val[k]
		}
		if sum == 0 {
			continue
		}
		for k := lo; k < hi; k++ {
			out.Val[k] /= sum
		}
	}
	return out
}

// PageRankResult reports the ranks and per-iteration frontier sizes.
type PageRankResult struct {
	Ranks []float64
	// ActiveCounts[k] is the number of still-active vertices fed into
	// the k-th SpMSpV: the shrinking working set that motivates the
	// data-driven formulation.
	ActiveCounts []int
	Iterations   int
}

// PageRank runs the data-driven ("delta") PageRank iteration: instead
// of multiplying the full rank vector every round (SpMV), only the
// vertices whose rank is still changing are kept in the sparse frontier
// and pushed through SpMSpV. mult must be bound to the column-normalized
// adjacency matrix (see NormalizeColumns); n is the vertex count.
//
// The recurrence is r ← r + Δ with Δ' = α·Â·Δ, starting from
// Δ = (1−α)/n at every vertex; entries of Δ below Tol are dropped,
// deactivating converged vertices. Ranks are L1-normalized on return.
func PageRank(mult Multiplier, n sparse.Index, opt PageRankOptions) *PageRankResult {
	opt = opt.withDefaults()
	res := &PageRankResult{Ranks: make([]float64, n)}
	if n == 0 {
		return res
	}

	delta := sparse.NewSpVec(n, int(n))
	init := (1 - opt.Damping) / float64(n)
	for i := sparse.Index(0); i < n; i++ {
		delta.Append(i, init)
		res.Ranks[i] = init
	}
	// Each iteration multiplies with list output, the
	// product landing in the output frontier's list. delta is
	// double-buffered: the frontier's stale-bitmap erase (SetList →
	// ClearFrom) walks the list the bitmap was built FROM, so the round
	// that built it must not mutate that list — rebuilding delta in
	// place would leave ghost bits set for every deactivated vertex,
	// which bitmap-consuming engines would keep multiplying forever.
	df := sparse.NewFrontier(delta)
	yf := sparse.NewOutputFrontier(n)
	next := sparse.NewSpVec(n, int(n))
	d := engine.Desc{Output: engine.OutputList}

	for iter := 0; iter < opt.MaxIter && delta.NNZ() > 0; iter++ {
		res.ActiveCounts = append(res.ActiveCounts, delta.NNZ())
		res.Iterations++
		df.SetList(delta)
		engine.Mult(mult, df, yf, semiring.Arithmetic, d)
		y := yf.List()
		next.Reset(n)
		for k, i := range y.Ind {
			dv := opt.Damping * y.Val[k]
			res.Ranks[i] += dv
			if math.Abs(dv) > opt.Tol {
				next.Append(i, dv)
			}
		}
		delta, next = next, delta
	}

	var sum float64
	for _, r := range res.Ranks {
		sum += r
	}
	if sum > 0 {
		for i := range res.Ranks {
			res.Ranks[i] /= sum
		}
	}
	return res
}
