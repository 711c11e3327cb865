// Benchmarks for the concurrency-ready engine layer: one shared
// Multiplier serving G goroutines (the workspace-pooling win) and the
// semiring op-specialization microbenchmark (tagged predefined ops vs
// the func-valued custom path the predefined semirings used to take).
package spmspv_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	spmspv "spmspv"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// BenchmarkConcurrentMultiply sweeps goroutine counts over ONE shared
// bucket Multiplier. Each goroutine runs single-threaded multiplies
// (Threads: 1) so the sweep isolates engine-level concurrency —
// workspace pooling and counter aggregation — from intra-call
// parallelism. Throughput should scale with goroutines now that calls
// no longer serialize on a single workspace.
func BenchmarkConcurrentMultiply(b *testing.B) {
	a, frontiers, _ := fixtures()
	x := bestFrontier(frontiers, 1<<11)
	mu := newMult(b, a, spmspv.Bucket, spmspv.Options{Threads: 1, SortOutput: true})
	list := spmspv.Desc{Output: spmspv.OutputList}
	for _, gs := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", gs), func(b *testing.B) {
			var wg sync.WaitGroup
			var next int64
			b.ResetTimer()
			for g := 0; g < gs; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					xf, yf := spmspv.NewFrontier(x), mu.NewOutputFrontier()
					// Claim exactly b.N iterations across the goroutines
					// so ns/op is wall-clock per multiply at this
					// concurrency level.
					for atomic.AddInt64(&next, 1) <= int64(b.N) {
						mu.Mult(xf, yf, spmspv.Arithmetic, list)
					}
				}()
			}
			wg.Wait()
		})
	}
}

func bestFrontier(frontiers []*sparse.SpVec, target int) *sparse.SpVec {
	best := frontiers[0]
	for _, fr := range frontiers {
		d, bd := fr.NNZ()-target, best.NNZ()-target
		if d < 0 {
			d = -d
		}
		if bd < 0 {
			bd = -bd
		}
		if d < bd {
			best = fr
		}
	}
	return best
}

// BenchmarkSemiringDispatch measures the op-specialization win on the
// BFS workload (MinSelect2nd, the paper's §IV-D semiring). "tagged" is
// the predefined semiring, which dispatches once per call (bucket) or
// once per column (the baselines' SPA accumulate) to a monomorphized
// kernel; "func" is the identical semiring with the tags stripped,
// forcing the func-pointer path every predefined semiring took before
// specialization. Covered engines: the bucket engine's scatter/merge
// kernels and the CombBLAS-SPA / GraphMat accumulate loops.
func BenchmarkSemiringDispatch(b *testing.B) {
	a, frontiers, _ := fixtures()
	x := bestFrontier(frontiers, 1<<12)

	untaggedBFS := semiring.MinSelect2nd
	untaggedBFS.AddKind = semiring.AddCustom
	untaggedBFS.MulKind = semiring.MulCustom
	untaggedArith := spmspv.Semiring{
		Name: "arith-custom",
		Zero: 0,
		Add:  semiring.Arithmetic.Add,
		Mul:  semiring.Arithmetic.Mul,
	}
	semirings := []struct {
		name string
		sr   spmspv.Semiring
	}{
		{"bfs-tagged", semiring.MinSelect2nd},
		{"bfs-func", untaggedBFS},
		{"arith-tagged", semiring.Arithmetic},
		{"arith-func", untaggedArith},
	}

	for _, eng := range []struct {
		name string
		alg  spmspv.Algorithm
	}{
		{"bucket", spmspv.Bucket},
		{"combblas-spa", spmspv.CombBLASSPA},
		{"graphmat", spmspv.GraphMat},
	} {
		mu := newMult(b, a, eng.alg, spmspv.Options{Threads: benchThreads, SortOutput: true})
		for _, v := range semirings {
			b.Run(eng.name+"/"+v.name, func(b *testing.B) {
				xf, yf := spmspv.NewFrontier(x), mu.NewOutputFrontier()
				for i := 0; i < b.N; i++ {
					mu.Mult(xf, yf, v.sr, spmspv.Desc{Output: spmspv.OutputList})
				}
			})
		}
	}
}
