package baselines

import (
	enginepkg "spmspv/internal/engine"
	"spmspv/internal/sparse"
)

// The Table I baselines register themselves with the engine registry;
// importing this package is what makes them constructible. The
// bucket-specific option fields are ignored — each baseline is built
// exactly as its published system does it, from the matrix and the
// thread count.
func init() {
	enginepkg.Register(enginepkg.CombBLASSPA, "CombBLAS-SPA",
		func(a *sparse.CSC, opt enginepkg.Options) enginepkg.Engine {
			return NewCombBLASSPA(a, opt.Threads)
		})
	enginepkg.Register(enginepkg.CombBLASHeap, "CombBLAS-heap",
		func(a *sparse.CSC, opt enginepkg.Options) enginepkg.Engine {
			return NewCombBLASHeap(a, opt.Threads)
		})
	enginepkg.Register(enginepkg.GraphMat, "GraphMat",
		func(a *sparse.CSC, opt enginepkg.Options) enginepkg.Engine {
			return NewGraphMat(a, opt.Threads)
		})
	enginepkg.Register(enginepkg.SortBased, "SpMSpV-sort",
		func(a *sparse.CSC, opt enginepkg.Options) enginepkg.Engine {
			return NewSortBased(a, opt.Threads)
		}, "sort")
}
