// Benchmarks regenerating the paper's evaluation (one family per table
// or figure). Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics: "work/op" is the aggregated deterministic work
// counter (perf.Counters.Work) per multiplication — the quantity behind
// the paper's work-efficiency comparison, stable across hosts. Step
// metrics of Fig. 6 are reported as "<step>-ns/op".
//
// The graphs are Table IV stand-ins at benchScale (laptop scale); set
// the shape comparisons (who wins, crossovers), not absolute numbers,
// against the paper.
package spmspv_test

import (
	"fmt"
	"sync"
	"testing"

	"spmspv/internal/bench"
	"spmspv/internal/core"
	"spmspv/internal/graphgen"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

const (
	benchScale   = 13 // log2 vertices of benchmark graphs
	benchThreads = 4
)

// lazily built shared fixtures (graph construction excluded from
// benchmark timing).
var (
	fixOnce      sync.Once
	fixLjournal  *sparse.CSC
	fixFrontiers []*sparse.SpVec
	fixER        *sparse.CSC
)

func fixtures() (*sparse.CSC, []*sparse.SpVec, *sparse.CSC) {
	fixOnce.Do(func() {
		p, _ := graphgen.FindProblem("rmat-ljournal")
		fixLjournal = p.Build(benchScale)
		fixFrontiers = bench.CaptureFrontiers(fixLjournal, 0)
		fixER = graphgen.ErdosRenyi(1<<benchScale, 8, 42)
	})
	return fixLjournal, fixFrontiers, fixER
}

func reportWork(b *testing.B, eng bench.Engine, calls int) {
	if calls <= 0 || b.N <= 0 {
		return
	}
	b.ReportMetric(float64(eng.Counters().Work())/float64(b.N*calls), "work/op")
}

// benchMultiply times one engine on one frontier.
func benchMultiply(b *testing.B, spec bench.EngineSpec, a *sparse.CSC, x *sparse.SpVec, threads int) {
	eng := spec.Build(a, threads)
	mult := bench.ListMult(eng, a, sparse.NewOutputFrontier(a.NumRows))
	mult(x, semiring.Arithmetic)
	eng.ResetCounters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mult(x, semiring.Arithmetic)
	}
	b.StopTimer()
	reportWork(b, eng, 1)
}

// BenchmarkFig2 reproduces Figure 2: the bucket algorithm with sorted
// versus unsorted vectors at a sparse and a dense frontier.
func BenchmarkFig2(b *testing.B) {
	a, frontiers, _ := fixtures()
	n := int(a.NumCols)
	for _, fr := range []struct {
		name   string
		target int
	}{{"sparse", n / 500}, {"dense", n * 47 / 100}} {
		x := bench.FrontierWithNNZ(frontiers, fr.target)
		for _, sorted := range []bool{true, false} {
			name := fmt.Sprintf("%s/nnzx=%d/sorted=%v", fr.name, x.NNZ(), sorted)
			b.Run(name, func(b *testing.B) {
				benchMultiply(b, bench.BucketEngine(core.Options{SortOutput: sorted}), a, x, benchThreads)
			})
		}
	}
}

// BenchmarkFig3 reproduces Figure 3: the four algorithms across the
// BFS-frontier sparsity sweep, at 1 thread and benchThreads.
func BenchmarkFig3(b *testing.B) {
	a, frontiers, _ := fixtures()
	// A sparse, a medium and the densest frontier keep the benchmark
	// suite's runtime bounded; the full sweep lives in
	// `spmspv-bench -experiment fig3`.
	picks := []*sparse.SpVec{
		bench.FrontierWithNNZ(frontiers, 8),
		bench.FrontierWithNNZ(frontiers, int(a.NumCols)/100),
		bench.FrontierWithNNZ(frontiers, int(a.NumCols)),
	}
	for _, threads := range []int{1, benchThreads} {
		for _, x := range picks {
			for _, spec := range bench.AllEngines() {
				name := fmt.Sprintf("t=%d/nnzx=%d/%s", threads, x.NNZ(), spec.Name)
				b.Run(name, func(b *testing.B) {
					benchMultiply(b, spec, a, x, threads)
				})
			}
		}
	}
}

// BenchmarkFig4 reproduces Figure 4: total BFS SpMSpV time per
// algorithm on one low-diameter and one high-diameter graph (the full
// 11-graph suite runs via `spmspv-bench -experiment fig4`).
func BenchmarkFig4(b *testing.B) {
	for _, gname := range []string{"rmat-ljournal", "grid5-g3circuit"} {
		p, _ := graphgen.FindProblem(gname)
		a := p.Build(benchScale)
		frontiers := bench.CaptureFrontiers(a, 0)
		for _, spec := range bench.AllEngines() {
			for _, threads := range []int{1, benchThreads} {
				name := fmt.Sprintf("%s/t=%d/%s", gname, threads, spec.Name)
				b.Run(name, func(b *testing.B) {
					eng := spec.Build(a, threads)
					mult := bench.ListMult(eng, a, sparse.NewOutputFrontier(a.NumRows))
					for _, x := range frontiers {
						mult(x, semiring.MinSelect2nd)
					}
					eng.ResetCounters()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for _, x := range frontiers {
							mult(x, semiring.MinSelect2nd)
						}
					}
					b.StopTimer()
					reportWork(b, eng, len(frontiers))
				})
			}
		}
	}
}

// BenchmarkFig5 reproduces Figure 5 (the KNL-analogue): the three
// non-GraphMat engines on a scale-free graph at a manycore-style
// oversubscribed thread count. Work counters (work/op) carry the
// scaling shape on hosts with few physical cores.
func BenchmarkFig5(b *testing.B) {
	p, _ := graphgen.FindProblem("rmat-wikipedia")
	a := p.Build(benchScale)
	frontiers := bench.CaptureFrontiers(a, 0)
	for _, spec := range bench.AllEngines()[:3] {
		for _, threads := range []int{1, 16, 64} {
			name := fmt.Sprintf("t=%d/%s", threads, spec.Name)
			b.Run(name, func(b *testing.B) {
				eng := spec.Build(a, threads)
				mult := bench.ListMult(eng, a, sparse.NewOutputFrontier(a.NumRows))
				for _, x := range frontiers {
					mult(x, semiring.MinSelect2nd)
				}
				eng.ResetCounters()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, x := range frontiers {
						mult(x, semiring.MinSelect2nd)
					}
				}
				b.StopTimer()
				reportWork(b, eng, len(frontiers))
			})
		}
	}
}

// BenchmarkFig6 reproduces Figure 6: the per-step breakdown of the
// bucket algorithm, reported as custom metrics per step.
func BenchmarkFig6(b *testing.B) {
	a, frontiers, _ := fixtures()
	n := int(a.NumCols)
	for _, target := range []int{n / 25000, n / 500, n * 47 / 100} {
		x := bench.FrontierWithNNZ(frontiers, max(target, 1))
		b.Run(fmt.Sprintf("nnzx=%d", x.NNZ()), func(b *testing.B) {
			eng := core.NewMultiplier(a, core.Options{Threads: benchThreads, SortOutput: true})
			mult := bench.ListMult(eng, a, sparse.NewOutputFrontier(a.NumRows))
			mult(x, semiring.Arithmetic)
			var estimate, bucket, merge, output float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mult(x, semiring.Arithmetic)
				s := eng.Steps()
				estimate += float64(s.Estimate.Nanoseconds())
				bucket += float64(s.Bucket.Nanoseconds())
				merge += float64(s.Merge.Nanoseconds())
				output += float64(s.Output.Nanoseconds())
			}
			b.StopTimer()
			b.ReportMetric(estimate/float64(b.N), "estimate-ns/op")
			b.ReportMetric(bucket/float64(b.N), "bucketing-ns/op")
			b.ReportMetric(merge/float64(b.N), "merge-ns/op")
			b.ReportMetric(output/float64(b.N), "output-ns/op")
		})
	}
}

// BenchmarkTable1 measures the work classification of Tables I/II: each
// algorithm's work/op on a fixed Erdős–Rényi workload at 1 and
// benchThreads threads. Work-efficient algorithms keep work/op flat.
func BenchmarkTable1(b *testing.B) {
	_, _, er := fixtures()
	n := er.NumCols
	x := sparse.NewSpVec(n, 256)
	for i := sparse.Index(0); i < 256; i++ {
		x.Append(i*(n/256), 1)
	}
	for _, spec := range bench.AllEngines() {
		for _, threads := range []int{1, benchThreads} {
			b.Run(fmt.Sprintf("%s/t=%d", spec.Name, threads), func(b *testing.B) {
				benchMultiply(b, spec, er, x, threads)
			})
		}
	}
}

// BenchmarkTable4Gen measures the stand-in generators (Table IV's
// synthetic suite construction cost).
func BenchmarkTable4Gen(b *testing.B) {
	for _, p := range graphgen.Problems() {
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := p.Build(benchScale - 2)
				if a.NNZ() == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}

// BenchmarkAblation sweeps the §III-A/B design choices on a fixed
// medium-density workload.
func BenchmarkAblation(b *testing.B) {
	a, frontiers, _ := fixtures()
	x := bench.FrontierWithNNZ(frontiers, int(a.NumCols)/100)
	variants := []struct {
		name string
		opt  core.Options
	}{
		{"buckets=1", core.Options{SortOutput: true, BucketsPerThread: 1}},
		{"buckets=4-default", core.Options{SortOutput: true}},
		{"buckets=16", core.Options{SortOutput: true, BucketsPerThread: 16}},
		{"staging=64", core.Options{SortOutput: true, StagingEntries: 64}},
		{"static-sched", core.Options{SortOutput: true, MergeSched: core.SchedStatic}},
		{"inf-sentinel", core.Options{SortOutput: true, UseInfSentinel: true}},
		{"even-split", core.Options{SortOutput: true, SplitEvenly: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			benchMultiply(b, bench.BucketEngine(v.opt), a, x, benchThreads)
		})
	}
}

// BenchmarkMasked compares mask pushdown against multiply-then-filter
// (paper §V masked-operations extension).
func BenchmarkMasked(b *testing.B) {
	a, frontiers, _ := fixtures()
	x := bench.FrontierWithNNZ(frontiers, int(a.NumCols)/100)
	mask := sparse.NewBitVec(a.NumRows)
	half := sparse.NewSpVec(a.NumRows, int(a.NumRows)/2)
	for i := sparse.Index(0); i < a.NumRows; i += 2 {
		half.Append(i, 1)
	}
	mask.SetFrom(half)

	xf := sparse.NewFrontier(x)
	b.Run("pushdown", func(b *testing.B) {
		eng := core.NewMultiplier(a, core.Options{Threads: benchThreads, SortOutput: true})
		yf := sparse.NewOutputFrontier(a.NumRows)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Multiply(xf, yf, semiring.Arithmetic, mask, false, false)
		}
	})
	b.Run("post-filter", func(b *testing.B) {
		eng := core.NewMultiplier(a, core.Options{Threads: benchThreads, SortOutput: true})
		yf := sparse.NewOutputFrontier(a.NumRows)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Multiply(xf, yf, semiring.Arithmetic, nil, false, false)
			y := yf.List()
			w := 0
			for k, ind := range y.Ind {
				if mask.Test(ind) {
					y.Ind[w], y.Val[w] = y.Ind[k], y.Val[k]
					w++
				}
			}
			y.Ind = y.Ind[:w]
			y.Val = y.Val[:w]
		}
	})
}

// BenchmarkHybrid evaluates the §V vector/matrix-driven switch across
// thresholds on the full BFS frontier replay.
func BenchmarkHybrid(b *testing.B) {
	a, frontiers, _ := fixtures()
	run := func(b *testing.B, eng bench.Engine) {
		mult := bench.ListMult(eng, a, sparse.NewOutputFrontier(a.NumRows))
		for _, x := range frontiers {
			mult(x, semiring.MinSelect2nd)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, x := range frontiers {
				mult(x, semiring.MinSelect2nd)
			}
		}
	}
	b.Run("bucket-only", func(b *testing.B) {
		run(b, bench.AllEngines()[0].Build(a, benchThreads))
	})
	b.Run("graphmat-only", func(b *testing.B) {
		run(b, bench.AllEngines()[3].Build(a, benchThreads))
	})
	for _, th := range []float64{0.05, 0.25} {
		b.Run(fmt.Sprintf("hybrid-%.2f", th), func(b *testing.B) {
			run(b, bench.HybridSpec(th).Build(a, benchThreads))
		})
	}
	b.Run("hybrid-calibrated", func(b *testing.B) {
		run(b, bench.HybridSpec(0).Build(a, benchThreads))
	})
}
