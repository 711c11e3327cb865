package spmspv_test

import (
	"testing"

	spmspv "spmspv"
)

// The frontier-pipeline benchmarks compare the rewritten masked BFS —
// output frontiers fed back as inputs, bitmaps emitted natively — with
// the pre-refactor level loop that rebuilt the next frontier list by
// hand (forcing a fresh list→bitmap conversion whenever the next level
// went matrix-driven). Both drive the same direction-switching hybrid
// engine; ns/level is the figure of merit, and outputconv/op proves
// the pipeline's conversion count is zero.

func hybridForBench(b *testing.B, scale int) (*spmspv.Multiplier, *spmspv.Matrix) {
	b.Helper()
	a := spmspv.RMAT(spmspv.DefaultRMAT(scale), 3)
	mu := newMult(b, a, spmspv.Hybrid, spmspv.Options{SortOutput: true, HybridThreshold: 0.02})
	return mu, a
}

func BenchmarkBFSMaskedFrontierPipeline(b *testing.B) {
	mu, _ := hybridForBench(b, 14)
	var levels int
	spmspv.ResetFrontierStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := spmspv.BFSMasked(mu, 0)
		levels += len(res.FrontierSizes)
	}
	b.StopTimer()
	outConv, _ := spmspv.FrontierOutputStats()
	if levels > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(levels), "ns/level")
	}
	b.ReportMetric(float64(outConv)/float64(b.N), "outputconv/op")
}

// BenchmarkBFSMaskedPreRefactorLoop reproduces the pre-output-layer
// masked BFS: every level's product lands in a bare list vector, the
// next frontier is rebuilt entry by entry, and any bitmap the
// matrix-driven side needs is re-derived from scratch.
func BenchmarkBFSMaskedPreRefactorLoop(b *testing.B) {
	mu, a := hybridForBench(b, 14)
	n := a.NumCols
	var levels int
	spmspv.ResetFrontierStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parents := make([]spmspv.Index, n)
		levelOf := make([]int32, n)
		for v := range parents {
			parents[v] = -1
			levelOf[v] = -1
		}
		parents[0] = 0
		levelOf[0] = 0
		visited := spmspv.NewBitVector(n)
		x := spmspv.NewVector(n, 1)
		x.Append(0, 0)
		visited.SetFrom(x)
		y := spmspv.NewVector(n, 0)
		xf, yf := spmspv.NewFrontier(x), spmspv.NewFrontier(y)
		d := spmspv.Desc{Mask: visited, Complement: true, Output: spmspv.OutputList}
		for level := int32(1); x.NNZ() > 0; level++ {
			levels++
			mu.Mult(xf, yf, spmspv.MinSelect2nd, d)
			// Drop x's bitmap before the list is rebuilt by hand, so a
			// matrix-driven next level re-derives it from scratch.
			xf.SetList(x)
			x.Reset(n)
			for k, v := range y.Ind {
				levelOf[v] = level
				parents[v] = spmspv.Index(y.Val[k])
				x.Append(v, float64(v))
			}
			visited.SetFrom(x)
		}
	}
	b.StopTimer()
	if levels > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(levels), "ns/level")
	}
}

// BenchmarkMultiplyMaskedEngines times one masked multiply per
// registered engine on a common frontier, the cross-engine comparison
// masked BFS levels are made of.
func BenchmarkMultiplyMaskedEngines(b *testing.B) {
	a := spmspv.RMAT(spmspv.DefaultRMAT(13), 7)
	n := a.NumCols
	x := spmspv.NewVector(n, 0)
	for i := spmspv.Index(0); i < n; i += 16 {
		x.Append(i, float64(i))
	}
	mask := spmspv.NewBitVector(a.NumRows)
	sel := spmspv.NewVector(a.NumRows, 0)
	for i := spmspv.Index(0); i < a.NumRows; i += 2 {
		sel.Append(i, 1)
	}
	mask.SetFrom(sel)

	for _, alg := range spmspv.Algorithms() {
		mu := newMult(b, a, alg, spmspv.Options{SortOutput: true, HybridThreshold: 0.25})
		b.Run(alg.String(), func(b *testing.B) {
			xf, yf := spmspv.NewFrontier(x), mu.NewOutputFrontier()
			d := spmspv.Desc{Mask: mask, Complement: true, Output: spmspv.OutputList}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mu.Mult(xf, yf, spmspv.MinSelect2nd, d)
			}
		})
	}
}

// BenchmarkMultiClusterBatch compares batched multi-seed clustering
// against the per-seed loop it replaces.
func BenchmarkMultiClusterBatch(b *testing.B) {
	a := spmspv.RMAT(spmspv.DefaultRMAT(12), 9)
	mu := newMult(b, a, spmspv.Bucket, spmspv.Options{SortOutput: true})
	seeds := spmspv.SpreadSources(a.NumCols, 1, 8)
	opt := spmspv.ACLOptions{Epsilon: 1e-4}
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spmspv.MultiCluster(mu, seeds, opt)
		}
	})
	b.Run("per-seed-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range seeds {
				spmspv.LocalCluster(mu, s, opt)
			}
		}
	})
}
