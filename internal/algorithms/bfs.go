package algorithms

import (
	"spmspv/internal/engine"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// BFSResult carries the output of a matrix-based breadth-first search.
type BFSResult struct {
	// Parents[v] is the BFS parent of v (itself for the source), or -1
	// when v is unreached.
	Parents []sparse.Index
	// Levels[v] is the BFS distance from the source, or -1.
	Levels []int32
	// FrontierSizes records nnz(x) for every SpMSpV call, the quantity
	// Fig. 3 sweeps.
	FrontierSizes []int
	// Frontiers holds a clone of every input frontier when capture was
	// requested — the replay workload for the Fig. 3 benchmark.
	Frontiers []*sparse.SpVec
}

// BFS runs a breadth-first search from source using the
// (min, select2nd) semiring: the frontier vector x holds x(v) = v for
// every frontier vertex v, so y = A·x assigns each newly reached vertex
// its minimum parent id ("the current frontier is represented with the
// input vector x, the graph is represented by the matrix A and the next
// frontier is represented by y", paper §I). A(i,j) ≠ 0 is interpreted
// as an edge j→i, i.e. column j lists the out-neighbors of j.
//
// With capture set, every frontier vector is cloned into the result for
// benchmark replay.
//
// BFS runs as a frontier pipeline: each level's product is written
// into an output Frontier, refined in place to the unvisited portion,
// and fed back as the next level's input while the previous input
// frontier becomes the next output — two frontiers, swapped, for the
// whole search. The refine step shrinks the support, so the output
// goes through the list-only path (a natively emitted bitmap would be
// erased before any consumer saw it); BFSMasked has nothing to filter,
// keeps each output intact, and is the conversion-free variant.
func BFS(mult Multiplier, n sparse.Index, source sparse.Index, capture bool) *BFSResult {
	res := &BFSResult{
		Parents: make([]sparse.Index, n),
		Levels:  make([]int32, n),
	}
	for i := range res.Parents {
		res.Parents[i] = -1
		res.Levels[i] = -1
	}
	if source < 0 || source >= n {
		return res
	}
	res.Parents[source] = source
	res.Levels[source] = 0

	x := sparse.NewSpVec(n, 1)
	x.Append(source, float64(source))
	xf := sparse.NewFrontier(x)
	yf := sparse.NewOutputFrontier(n)

	// One plan for the whole search, in the list-output shape: the
	// refine step below would erase a native bitmap.
	d := engine.Desc{Output: engine.OutputList}
	plan := engine.CompilePlan(mult, d.Shape())

	for level := int32(1); xf.NNZ() > 0; level++ {
		res.FrontierSizes = append(res.FrontierSizes, xf.NNZ())
		if capture {
			res.Frontiers = append(res.Frontiers, xf.List().Clone())
		}
		plan.Mult(xf, yf, semiring.MinSelect2nd, d)
		// The next frontier is the unvisited portion of the product;
		// the frontier values become the vertices' own ids for the next
		// expansion.
		yf.Refine(func(i sparse.Index, v float64) (float64, bool) {
			if res.Levels[i] >= 0 {
				return 0, false
			}
			res.Levels[i] = level
			res.Parents[i] = sparse.Index(v)
			return float64(i), true
		})
		xf, yf = yf, xf
	}
	return res
}

// BFSMasked is BFS with the visited-set filter pushed into the multiply
// (mask complement semantics: visited vertices are excluded during the
// merge step instead of being filtered afterwards) — the §V GraphBLAS
// masking extension. Every registered engine runs it, each pushing the
// mask into its own merge/accumulate step.
//
// The masked product needs no refine step — every entry is unvisited
// by construction — so the pipeline keeps each level's output frontier
// intact (values rewritten in place to the vertices' own ids, which
// preserves a natively-emitted bitmap) and feeds it straight back as
// the next input. With an output-capable engine (bucket, GraphMat,
// hybrid) no list→bitmap conversion ever runs, even when a
// direction-optimized hybrid probes the bitmap on every dense level:
// perf.Counters.OutputConversions stays 0.
func BFSMasked(mult Multiplier, n sparse.Index, source sparse.Index) *BFSResult {
	res := &BFSResult{
		Parents: make([]sparse.Index, n),
		Levels:  make([]int32, n),
	}
	for i := range res.Parents {
		res.Parents[i] = -1
		res.Levels[i] = -1
	}
	if source < 0 || source >= n {
		return res
	}
	res.Parents[source] = source
	res.Levels[source] = 0

	visited := sparse.NewBitVec(n)
	x := sparse.NewSpVec(n, 1)
	x.Append(source, float64(source))
	visited.SetFrom(x)
	xf := sparse.NewFrontier(x)
	yf := sparse.NewOutputFrontier(n)

	// One masked plan for the whole search: the complemented visited
	// mask is the only per-level runtime argument.
	d := engine.Desc{Mask: visited, Complement: true}
	plan := engine.CompilePlan(mult, d.Shape())

	for level := int32(1); xf.NNZ() > 0; level++ {
		res.FrontierSizes = append(res.FrontierSizes, xf.NNZ())
		plan.Mult(xf, yf, semiring.MinSelect2nd, d)
		// Every entry of the product is unvisited by construction:
		// record it, then rewrite the values to the vertices' own ids
		// in place (support unchanged, so the output bitmap survives).
		y := yf.List()
		for k, i := range y.Ind {
			res.Levels[i] = level
			res.Parents[i] = sparse.Index(y.Val[k])
		}
		yf.UpdateValues(func(i sparse.Index, _ float64) float64 {
			return float64(i)
		})
		visited.SetFrom(y)
		xf, yf = yf, xf
	}
	return res
}

// ValidateBFS checks a BFS result against the graph: parents form a
// tree rooted at source whose edges exist in the graph, levels are
// consistent along tree edges, and the reached set matches reachability.
// It returns a non-nil error description on the first inconsistency.
func ValidateBFS(a *sparse.CSC, source sparse.Index, res *BFSResult) string {
	want, _, _ := sparse.BFSLevels(a, source)
	for v := sparse.Index(0); v < a.NumCols; v++ {
		if want[v] != res.Levels[v] {
			return "level mismatch"
		}
		if res.Levels[v] > 0 {
			p := res.Parents[v]
			if p < 0 {
				return "reached vertex without parent"
			}
			if res.Levels[p] != res.Levels[v]-1 {
				return "parent level not one less"
			}
			if a.At(v, p) == 0 {
				return "parent edge not in graph"
			}
		}
	}
	return ""
}
