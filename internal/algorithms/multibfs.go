package algorithms

import (
	"spmspv/internal/engine"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// SpreadSources picks k BFS roots spread evenly across the vertex
// range starting at base — the canonical default-source selection
// shared by the CLI, examples and benchmarks.
func SpreadSources(n, base sparse.Index, k int) []sparse.Index {
	srcs := make([]sparse.Index, k)
	for i := range srcs {
		srcs[i] = (base + sparse.Index(i)*n/sparse.Index(k)) % n
	}
	return srcs
}

// MultiBFSResult carries the output of a batched multi-source BFS: one
// parent/level labeling per source, plus (when capture was requested)
// the per-level frontier batches for benchmark replay.
type MultiBFSResult struct {
	// Sources echoes the BFS roots, in input order.
	Sources []sparse.Index
	// Parents[s][v] is v's BFS parent in source s's tree (itself for
	// the source), or -1 when unreached from that source.
	Parents [][]sparse.Index
	// Levels[s][v] is v's distance from source s, or -1.
	Levels [][]int32
	// FrontierSizes[s] records nnz(x) per level of source s's search.
	FrontierSizes [][]int
	// Batches holds, per multiply round, a clone of every live frontier
	// in that round's batch — the replay workload for the batched
	// multiply benchmark. Populated only with capture set.
	Batches [][]*sparse.SpVec
}

// MultiBFS runs k breadth-first searches — one per source — in
// lockstep, expanding all live frontiers of a level through ONE
// batched SpMSpV call (the engine's MultiplyBatch: its native batch
// path when it has one, a loop of Multiply calls otherwise).
// Each search uses the (min, select2nd) semiring exactly as BFS does;
// the searches are independent — identical trees to running BFS k
// times — but the batch amortizes the engine's per-call setup across
// the sources, which is where the sparse ramp-up levels of a
// multi-source BFS spend their time. Exhausted searches drop out of
// the batch as their frontiers empty.
//
// With capture set, every round's frontier batch is cloned into the
// result for benchmark replay.
//
// The searches run as a batched frontier pipeline: every live search
// owns an (input, output) frontier pair, the whole level expands
// through one Plan.MultBatch call, and each search's output frontier
// is refined in place to its unvisited portion and swapped to become
// the next input — the two-frontier BFS pipeline, k-wide.
func MultiBFS(mult Multiplier, n sparse.Index, sources []sparse.Index, capture bool) *MultiBFSResult {
	k := len(sources)
	res := &MultiBFSResult{
		Sources:       append([]sparse.Index(nil), sources...),
		Parents:       make([][]sparse.Index, k),
		Levels:        make([][]int32, k),
		FrontierSizes: make([][]int, k),
	}
	// live maps batch slot → source index; frontier pairs are dropped
	// (and the mapping compacted) as searches exhaust.
	live := make([]int, 0, k)
	xs := make([]*sparse.Frontier, 0, k)
	ys := make([]*sparse.Frontier, 0, k)
	for s := range sources {
		res.Parents[s] = make([]sparse.Index, n)
		res.Levels[s] = make([]int32, n)
		for v := range res.Parents[s] {
			res.Parents[s][v] = -1
			res.Levels[s][v] = -1
		}
		src := sources[s]
		if src < 0 || src >= n {
			continue
		}
		res.Parents[s][src] = src
		res.Levels[s][src] = 0
		x := sparse.NewSpVec(n, 1)
		x.Append(src, float64(src))
		live = append(live, s)
		xs = append(xs, sparse.NewFrontier(x))
		ys = append(ys, sparse.NewOutputFrontier(n))
	}

	// One batch plan for the whole search: list-output shape, because
	// the per-search refine below shrinks every product's support (a
	// native bitmap would be erased unread — the masked variant is the
	// conversion-free one).
	d := engine.Desc{Output: engine.OutputList}
	plan := engine.CompilePlan(mult, d.Shape())

	for level := int32(1); len(xs) > 0; level++ {
		for q, s := range live {
			res.FrontierSizes[s] = append(res.FrontierSizes[s], xs[q].NNZ())
		}
		if capture {
			batch := make([]*sparse.SpVec, len(xs))
			for q := range xs {
				batch[q] = xs[q].List().Clone()
			}
			res.Batches = append(res.Batches, batch)
		}
		plan.MultBatch(xs, ys[:len(xs)], semiring.MinSelect2nd, d)

		// Refine each search's product to its unvisited portion, swap
		// it in as the next frontier, and compact away exhausted
		// searches.
		w := 0
		for q, s := range live {
			levels, parents := res.Levels[s], res.Parents[s]
			ys[q].Refine(func(i sparse.Index, v float64) (float64, bool) {
				if levels[i] >= 0 {
					return 0, false
				}
				levels[i] = level
				parents[i] = sparse.Index(v)
				return float64(i), true
			})
			if ys[q].NNZ() > 0 {
				live[w], xs[w], ys[w] = s, ys[q], xs[q]
				w++
			}
		}
		live, xs, ys = live[:w], xs[:w], ys[:w]
	}
	return res
}
