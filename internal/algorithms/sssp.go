package algorithms

import (
	"math"

	"spmspv/internal/engine"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// SSSP computes single-source shortest paths over non-negative edge
// weights by data-driven label correction: the frontier holds the
// vertices whose tentative distance just improved, and one SpMSpV over
// the tropical (min, +) semiring relaxes all their out-edges at once.
// This is Bellman-Ford with frontier sparsity — the same
// active-set-shrinking structure as the paper's other motivating
// applications.
//
// A(i,j) is the weight of edge j→i; absent entries are no edge.
// Unreachable vertices get +Inf.
func SSSP(mult Multiplier, n sparse.Index, source sparse.Index) []float64 {
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if source < 0 || source >= n {
		return dist
	}
	dist[source] = 0

	x := sparse.NewSpVec(n, 1)
	x.Append(source, 0)
	xf := sparse.NewFrontier(x)
	yf := sparse.NewOutputFrontier(n)
	d := engine.Desc{Output: engine.OutputList}

	for x.NNZ() > 0 {
		engine.Mult(mult, xf, yf, semiring.MinPlus, d)
		y := yf.List()
		// Drop the bitmap a bitmap-reading engine built from this
		// round's x before x is rebuilt in place.
		xf.SetList(x)
		x.Reset(n)
		for k, i := range y.Ind {
			if y.Val[k] < dist[i] {
				dist[i] = y.Val[k]
				x.Append(i, dist[i])
			}
		}
	}
	return dist
}

// Dijkstra is the sequential oracle for SSSP: a binary-heap
// implementation over the same column-as-out-neighbors convention.
func Dijkstra(a *sparse.CSC, source sparse.Index) []float64 {
	n := a.NumCols
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if source < 0 || source >= n {
		return dist
	}
	dist[source] = 0

	// Minimal pairing of (distance, vertex) on a binary heap.
	type item struct {
		d float64
		v sparse.Index
	}
	heap := []item{{0, source}}
	push := func(it item) {
		heap = append(heap, it)
		i := len(heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if heap[p].d <= heap[i].d {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() item {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && heap[l].d < heap[small].d {
				small = l
			}
			if r < len(heap) && heap[r].d < heap[small].d {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
		return top
	}

	for len(heap) > 0 {
		it := pop()
		if done[it.v] {
			continue
		}
		done[it.v] = true
		rows, vals := a.Col(it.v)
		for k, u := range rows {
			if nd := it.d + vals[k]; nd < dist[u] {
				dist[u] = nd
				push(item{nd, u})
			}
		}
	}
	return dist
}
