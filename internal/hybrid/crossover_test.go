package hybrid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spmspv/internal/engine"
	"spmspv/internal/graphgen"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// growX returns a sorted x over the columns of a taken in perm order
// until their nonzeros reach flops, and the flops it reached.
func growX(a *sparse.CSC, perm []int, flops int64) (*sparse.SpVec, int64) {
	var ind []sparse.Index
	var w int64
	for _, j := range perm {
		if w >= flops {
			break
		}
		ind = append(ind, sparse.Index(j))
		w += a.ColLen(sparse.Index(j))
	}
	slices.Sort(ind)
	x := sparse.NewSpVec(a.NumCols, len(ind))
	for _, j := range ind {
		x.Append(j, 1)
	}
	return x, w
}

// BenchmarkHybridCrossover is the sweep that sets Kappa: one BFS-style
// multiply (MinSelect2nd, the input wrapped in a pooled frontier per
// call, as a BFS level is) on each side of the switch, with x grown
// over random columns until its flops reach r·nzc(A) for r = 1/64 … 4,
// on two meshes and two R-MAT graphs at scales 13 and 15. Each case
// reports the flops/nzc its x reached; Kappa belongs at the r where
// the graphmat side starts to beat the bucket side.
func BenchmarkHybridCrossover(b *testing.B) {
	for _, name := range []string{"grid5-g3circuit", "trimesh-delaunay", "rmat-ljournal", "rmat-webgoogle"} {
		p, _ := graphgen.FindProblem(name)
		for _, scale := range []int{13, 15} {
			a := p.Build(scale)
			h := New(a, engine.Options{SortOutput: true})
			sides := []struct {
				name string
				eng  engine.Engine
			}{{"bucket", h.bucket}, {"graphmat", h.matrix}}
			pool := sparse.NewFrontierPool(a.NumCols)
			y := sparse.NewOutputFrontier(a.NumRows)
			perm := rand.New(rand.NewSource(1)).Perm(int(a.NumCols))
			nzc := float64(a.NZC())
			for e := -6; e <= 2; e++ {
				r := math.Ldexp(1, e)
				x, flops := growX(a, perm, int64(math.Ceil(r*nzc)))
				for _, s := range sides {
					b.Run(fmt.Sprintf("%s-%d/r=%g/%s", name, scale, r, s.name), func(b *testing.B) {
						mult := func() {
							xf := pool.Wrap(x)
							s.eng.Multiply(xf, y, semiring.MinSelect2nd, nil, false, false)
							xf.Release()
						}
						mult()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							mult()
						}
						b.ReportMetric(float64(flops)/nzc, "flops/nzc")
					})
				}
			}
		}
	}
}
