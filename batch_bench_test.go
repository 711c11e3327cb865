// Benchmarks for the batched multi-frontier multiply and the
// multi-source BFS workload built on it.
package spmspv_test

import (
	"fmt"
	"testing"

	spmspv "spmspv"
	"spmspv/internal/bench"
	"spmspv/internal/core"
	"spmspv/internal/graphgen"
	"spmspv/internal/sparse"
)

// BenchmarkBatchMultiply replays the frontier batches of an 8-source
// BFS on the R-MAT ljournal stand-in (scale 14) through the bucket
// engine at several batch granularities. batch=1 is the
// loop-of-Multiply baseline; larger sizes share the Estimate/
// bucket-sizing pass, workspace checkout and scheduling across the
// batch. The headline metric is ns/frontier; the win concentrates in
// the sparse ramp-up rounds (also reported as the sparse/* sub-
// benchmarks), which is where a multi-source BFS spends its calls.
func BenchmarkBatchMultiply(b *testing.B) {
	p, _ := graphgen.FindProblem("rmat-ljournal")
	a := p.Build(14)
	sources := bench.MultiSources(a.NumCols, 0, 8)
	batches := bench.CaptureMultiFrontiers(a, sources)
	sparseBatches := bench.FilterSparseBatches(batches, bench.SparseRoundCut(a.NumCols))

	for _, arm := range []struct {
		name    string
		batches [][]*sparse.SpVec
	}{{"all", batches}, {"sparse", sparseBatches}} {
		total := bench.CountFrontiers(arm.batches)
		for _, bs := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("%s/batch=%d", arm.name, bs), func(b *testing.B) {
				eng := core.NewMultiplier(a, core.Options{Threads: benchThreads, SortOutput: true})
				xs, ys := bench.ReplayScratch(arm.batches)
				bench.ReplayBatches(eng, xs, bs, ys) // warmup: sizes pooled buffers
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bench.ReplayBatches(eng, xs, bs, ys)
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*total), "ns/frontier")
			})
		}
	}
}

// BenchmarkMultiBFS measures the full multi-source BFS workload:
// batched MultiBFS versus the same k searches run sequentially, on the
// facade's bucket engine.
func BenchmarkMultiBFS(b *testing.B) {
	a, _, _ := fixtures()
	mu := newMult(b, a, spmspv.Bucket, spmspv.Options{Threads: benchThreads, SortOutput: true})
	sources := spmspv.SpreadSources(a.NumCols, 0, 8)
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spmspv.MultiBFS(mu, sources)
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, src := range sources {
				spmspv.BFS(mu, src)
			}
		}
	})
}
