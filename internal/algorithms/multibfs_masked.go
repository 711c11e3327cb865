package algorithms

import (
	"spmspv/internal/engine"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// MultiBFSMasked is MultiBFS with every search's visited-set filter
// pushed into the batched multiply as a per-slot output mask — the
// multi-source form of BFSMasked. Each level expands ALL live searches
// through one batched masked SpMSpV (engine.Desc.Masks carries one
// complemented visited bitmap per slot), and because a masked product
// needs no refine step, every output frontier is kept intact and fed
// straight back as the slot's next input. With a bitmap-emitting
// engine (bucket and hybrid natively batched, GraphMat through the
// shared loop) each slot's output bitmap is emitted natively, so a
// direction-optimized multi-source pipeline — the
// hybrid engine routing each slot's dense levels to the matrix-driven
// side — performs ZERO list→bitmap output conversions, exactly like
// single-source BFSMasked.
//
// The trees are identical to running BFSMasked (equivalently BFS) once
// per source.
func MultiBFSMasked(mult Multiplier, n sparse.Index, sources []sparse.Index) *MultiBFSResult {
	k := len(sources)
	res := &MultiBFSResult{
		Sources:       append([]sparse.Index(nil), sources...),
		Parents:       make([][]sparse.Index, k),
		Levels:        make([][]int32, k),
		FrontierSizes: make([][]int, k),
	}
	// live maps batch slot → source index; each slot owns an (input,
	// output) frontier pair plus its visited bitmap, all compacted as
	// searches exhaust.
	live := make([]int, 0, k)
	xs := make([]*sparse.Frontier, 0, k)
	ys := make([]*sparse.Frontier, 0, k)
	visited := make([]*sparse.BitVec, 0, k)
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
		vis := sparse.NewBitVec(n)
		vis.SetFrom(x)
		live = append(live, s)
		xs = append(xs, sparse.NewFrontier(x))
		ys = append(ys, sparse.NewOutputFrontier(n))
		visited = append(visited, vis)
	}

	// One masked batch plan for the whole search; the per-slot masks
	// are the only per-level runtime arguments.
	shape := engine.Shape{Masked: true}
	plan := engine.CompilePlan(mult, shape)

	for level := int32(1); len(xs) > 0; level++ {
		for q, s := range live {
			res.FrontierSizes[s] = append(res.FrontierSizes[s], xs[q].NNZ())
		}
		plan.MultBatch(xs, ys[:len(xs)], semiring.MinSelect2nd,
			engine.Desc{Masks: visited[:len(xs)], Complement: true})

		// Every entry of every product is unvisited by construction:
		// record it, rewrite the values to the vertices' own ids in
		// place (support unchanged, so a natively emitted bitmap
		// survives), extend the slot's visited set, swap, and compact
		// away exhausted searches.
		w := 0
		for q, s := range live {
			levels, parents := res.Levels[s], res.Parents[s]
			y := ys[q].List()
			for e, i := range y.Ind {
				levels[i] = level
				parents[i] = sparse.Index(y.Val[e])
			}
			ys[q].UpdateValues(func(i sparse.Index, _ float64) float64 {
				return float64(i)
			})
			visited[q].SetFrom(y)
			if ys[q].NNZ() > 0 {
				live[w], xs[w], ys[w], visited[w] = s, ys[q], xs[q], visited[q]
				w++
			}
		}
		live, xs, ys, visited = live[:w], xs[:w], ys[:w], visited[:w]
	}
	return res
}
