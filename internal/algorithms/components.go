package algorithms

import (
	"spmspv/internal/engine"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// ConnectedComponents labels the vertices of an undirected graph by
// min-label propagation: every vertex starts with its own id and
// repeatedly adopts the minimum label among its neighbors, with only the
// vertices whose label just changed staying in the frontier. Each
// round is one SpMSpV over (min, select2nd) — the pattern of the
// GPI/LACC linear-algebraic connectivity algorithms the paper cites
// (§I, ref [5]).
//
// The result maps every vertex to the minimum vertex id of its
// component. The iteration count is bounded by the largest component
// diameter.
//
// The rounds run as a frontier pipeline: each round's product is
// written into an output Frontier (list-only — the refine step would
// erase a native bitmap before anything read it), refined in place to
// the vertices whose label improved, and fed back as the next round's
// input while the previous input becomes the next output — no
// per-round allocation, the same two-frontier swap as BFS.
func ConnectedComponents(mult Multiplier, n sparse.Index) []sparse.Index {
	labels := make([]sparse.Index, n)
	x := sparse.NewSpVec(n, int(n))
	for i := sparse.Index(0); i < n; i++ {
		labels[i] = i
		x.Append(i, float64(i))
	}
	xf := sparse.NewFrontier(x)
	yf := sparse.NewOutputFrontier(n)

	d := engine.Desc{Output: engine.OutputList}

	for xf.NNZ() > 0 {
		engine.Mult(mult, xf, yf, semiring.MinSelect2nd, d)
		yf.Refine(func(i sparse.Index, v float64) (float64, bool) {
			if l := sparse.Index(v); l < labels[i] {
				labels[i] = l
				return v, true
			}
			return 0, false
		})
		xf, yf = yf, xf
	}
	return labels
}

// CountComponents returns the number of distinct labels.
func CountComponents(labels []sparse.Index) int {
	seen := make(map[sparse.Index]struct{})
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}
