// MultiBFS: run k breadth-first searches through ONE batched SpMSpV
// engine and compare against k sequential single-source runs — the
// batched multi-frontier workload enabled by Multiplier.MultBatch
// (the Estimate pass and engine setup are shared across the k
// frontiers of every level). The masked variant (MultiBFSMasked)
// additionally pushes each search's visited filter into the batch and
// emits every slot's output bitmap natively.
//
//	go run ./examples/multibfs [-scale 14] [-k 8] [-threads 4] [-engine bucket|hybrid]
package main

import (
	"flag"
	"fmt"
	"time"

	spmspv "spmspv"
)

func main() {
	scale := flag.Int("scale", 14, "log2 of vertex count")
	k := flag.Int("k", 8, "number of BFS sources")
	threads := flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
	engName := flag.String("engine", "bucket", "engine for the batched run (bucket, hybrid, ...)")
	flag.Parse()

	cfg := spmspv.DefaultRMAT(*scale)
	cfg.EdgeFactor = 15
	a := spmspv.RMAT(cfg, 104)
	fmt.Printf("graph: n=%d nnz=%d\n", a.NumCols, a.NNZ())

	alg, ok := spmspv.ParseAlgorithm(*engName)
	if !ok {
		fmt.Printf("unknown engine %q\n", *engName)
		return
	}
	mu, err := spmspv.NewMultiplier(a, spmspv.WithAlgorithm(alg),
		spmspv.WithThreads(*threads), spmspv.WithSortOutput(true))
	if err != nil {
		panic(err)
	}

	sources := spmspv.SpreadSources(a.NumCols, 0, *k)

	// Batched: all live frontiers of a level go through one batched
	// multiply.
	start := time.Now()
	res := spmspv.MultiBFS(mu, sources)
	batched := time.Since(start)

	// Masked batched: every search's visited filter pushed into the
	// batched multiply, outputs pipelined with natively emitted bitmaps.
	start = time.Now()
	masked := spmspv.MultiBFSMasked(mu, sources)
	maskedTime := time.Since(start)

	// Sequential baseline: the same searches one by one.
	start = time.Now()
	singles := make([]*spmspv.BFSResult, len(sources))
	for i, src := range sources {
		singles[i] = spmspv.BFS(mu, src)
	}
	sequential := time.Since(start)

	fmt.Printf("\n%-28s %12s\n", "mode", "time")
	fmt.Printf("%-28s %12v\n", fmt.Sprintf("%d sequential BFS runs", *k), sequential)
	fmt.Printf("%-28s %12v  (%.2fx)\n", "batched MultiBFS", batched,
		float64(sequential)/float64(batched))
	fmt.Printf("%-28s %12v  (%.2fx)\n", "batched MultiBFSMasked", maskedTime,
		float64(sequential)/float64(maskedTime))

	fmt.Printf("\n%-10s %10s %8s\n", "source", "reached", "depth")
	for s, src := range sources {
		reached := 0
		depth := int32(0)
		for _, l := range res.Levels[s] {
			if l >= 0 {
				reached++
				if l > depth {
					depth = l
				}
			}
		}
		// Sanity: batched trees (plain and masked) must match the
		// sequential ones.
		for v, l := range singles[s].Levels {
			if res.Levels[s][v] != l || masked.Levels[s][v] != l {
				fmt.Printf("MISMATCH at source %d vertex %d\n", src, v)
				return
			}
		}
		fmt.Printf("%-10d %10d %8d\n", src, reached, depth)
	}
}
