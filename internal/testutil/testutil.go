// Package testutil provides deterministic random inputs shared by the
// test suites of the algorithm packages, and list-vector shorthands for
// driving an engine's frontier multiplies.
package testutil

import (
	"math/rand"

	"spmspv/internal/engine"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// RandomCSC builds an m×n matrix with approximately avgDeg nonzeros per
// column at uniformly random rows, values in (0, 1].
func RandomCSC(rng *rand.Rand, m, n sparse.Index, avgDeg float64) *sparse.CSC {
	t := sparse.NewTriples(m, n, int(float64(n)*avgDeg))
	for j := sparse.Index(0); j < n; j++ {
		k := int(avgDeg)
		if rng.Float64() < avgDeg-float64(k) {
			k++
		}
		for e := 0; e < k; e++ {
			t.Append(sparse.Index(rng.Intn(int(m))), j, rng.Float64()+0.001)
		}
	}
	a, err := sparse.NewCSCFromTriples(t)
	if err != nil {
		panic(err)
	}
	return a
}

// RandomVector builds a sparse vector of dimension n with f distinct
// random indices and values in [0.5, 1.5). With sorted set, the indices
// are increasing; otherwise they are left in insertion (random) order.
func RandomVector(rng *rand.Rand, n sparse.Index, f int, sorted bool) *sparse.SpVec {
	if f > int(n) {
		f = int(n)
	}
	perm := rng.Perm(int(n))[:f]
	v := sparse.NewSpVec(n, f)
	for _, i := range perm {
		v.Append(sparse.Index(i), 0.5+rng.Float64())
	}
	v.Sorted = false
	if sorted {
		v.Sort()
	}
	return v
}

// VectorWithIndices builds a sparse vector holding exactly the given
// indices with values 1.
func VectorWithIndices(n sparse.Index, ind ...sparse.Index) *sparse.SpVec {
	v := sparse.NewSpVec(n, len(ind))
	for _, i := range ind {
		v.Append(i, 1)
	}
	return v
}

// Multiply runs e's unmasked multiply on list vectors: x is wrapped in
// a fresh frontier and the result lands, list only, in y's storage.
func Multiply(e engine.Engine, x, y *sparse.SpVec, sr semiring.Semiring) {
	MultiplyMasked(e, x, y, sr, nil, false)
}

// MultiplyMasked is Multiply with an output mask.
func MultiplyMasked(e engine.Engine, x, y *sparse.SpVec, sr semiring.Semiring, mask *sparse.BitVec, complement bool) {
	e.Multiply(sparse.NewFrontier(x), sparse.NewFrontier(y), sr, mask, complement, false)
}

// MultiplyBatch runs e's unmasked batch multiply on list vectors, list
// outputs landing in the ys' storage.
func MultiplyBatch(e engine.Engine, xs, ys []*sparse.SpVec, sr semiring.Semiring) {
	e.MultiplyBatch(Frontiers(xs), Frontiers(ys), sr, nil, false, false)
}

// Frontiers wraps each vector as a frontier.
func Frontiers(vs []*sparse.SpVec) []*sparse.Frontier {
	fs := make([]*sparse.Frontier, len(vs))
	for q, v := range vs {
		fs[q] = sparse.NewFrontier(v)
	}
	return fs
}
