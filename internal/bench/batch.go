package bench

import (
	"fmt"
	"io"
	"time"

	"spmspv/internal/algorithms"
	"spmspv/internal/core"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// MultiSources picks k BFS roots spread across the vertex range,
// starting at base (the multi-source analogue of Config.Source).
func MultiSources(n sparse.Index, base sparse.Index, k int) []sparse.Index {
	return algorithms.SpreadSources(n, base, k)
}

// CaptureMultiFrontiers runs a batched multi-source BFS from the
// given roots with the bucket engine and returns every round's
// frontier batch — the replay workload of the batched-multiply
// benchmark, the multi-frontier analogue of CaptureFrontiers.
func CaptureMultiFrontiers(a *sparse.CSC, sources []sparse.Index) [][]*sparse.SpVec {
	eng := core.NewMultiplier(a, core.Options{SortOutput: true})
	res := algorithms.MultiBFS(eng, a.NumCols, sources, true)
	return res.Batches
}

// Batch evaluates the batched multi-frontier multiply: the frontier
// batches of a k-source BFS on the ljournal stand-in are replayed
// through the bucket engine at several batch granularities — size 1 is
// the loop-of-Multiply baseline, size k feeds each round's whole batch
// to one MultiplyBatch call. The shared Estimate/bucket-sizing pass is
// what the larger granularities amortize; the win concentrates in the
// sparse ramp-up rounds, so those are also reported separately.
func Batch(w io.Writer, cfg Config) {
	a := ljournal(cfg.Scale)
	n := a.NumCols
	const k = 8
	sources := MultiSources(n, cfg.Source, k)
	batches := CaptureMultiFrontiers(a, sources)
	tmax := cfg.Threads[len(cfg.Threads)-1]

	// The sparse rounds: frontiers below 1/256 of the vertex count,
	// where per-call setup rivals the O(df) work.
	sparseCut := SparseRoundCut(n)
	sparseBatches := FilterSparseBatches(batches, sparseCut)

	for _, arm := range []struct {
		name    string
		batches [][]*sparse.SpVec
	}{
		{fmt.Sprintf("all rounds (%d)", len(batches)), batches},
		{fmt.Sprintf("sparse rounds nnz≤%d (%d)", sparseCut, len(sparseBatches)), sparseBatches},
	} {
		if len(arm.batches) == 0 {
			continue
		}
		total := CountFrontiers(arm.batches)
		tbl := NewTable(
			fmt.Sprintf("Batched multiply: %d-source BFS replay, ljournal stand-in, %s, %d frontiers, t=%d",
				k, arm.name, total, tmax),
			"batch size", "time/frontier(µs)", "vs size 1")
		var base time.Duration
		for _, bs := range []int{1, 2, 4, 8} {
			per := timeBatchReplay(a, arm.batches, bs, tmax, cfg.Reps)
			if bs == 1 {
				base = per
			}
			tbl.AddRow(fmt.Sprint(bs),
				fmt.Sprintf("%.2f", float64(per.Nanoseconds())/1e3),
				Speedup(base, per))
		}
		tbl.Render(w)
		fmt.Fprintln(w)
	}
}

// SparseRoundCut is the nnz(x) bound below which a frontier counts as
// "sparse" in the batch sweeps: 1/256 of the vertex count, the regime
// where per-call setup rivals the O(df) work.
func SparseRoundCut(n sparse.Index) int { return int(n) / 256 }

// FilterSparseBatches keeps, per round, the frontiers with nnz ≤ cut,
// dropping rounds left empty — one definition of the "sparse rounds"
// arm shared by the experiment table and BenchmarkBatchMultiply.
func FilterSparseBatches(batches [][]*sparse.SpVec, cut int) [][]*sparse.SpVec {
	var out [][]*sparse.SpVec
	for _, batch := range batches {
		var sb []*sparse.SpVec
		for _, x := range batch {
			if x.NNZ() <= cut {
				sb = append(sb, x)
			}
		}
		if len(sb) > 0 {
			out = append(out, sb)
		}
	}
	return out
}

// CountFrontiers returns the total frontier count across rounds.
func CountFrontiers(batches [][]*sparse.SpVec) int {
	total := 0
	for _, batch := range batches {
		total += len(batch)
	}
	return total
}

// ReplayBatches runs one replay pass of the frontier batches through
// the engine's batched multiply (list outputs), chunked to batchSize;
// ys is reused scratch with at least max-round-width entries. The BFS
// semiring matches the workload the batches came from.
func ReplayBatches(eng *core.Multiplier, batches [][]*sparse.Frontier, batchSize int, ys []*sparse.Frontier) {
	for _, batch := range batches {
		for lo := 0; lo < len(batch); lo += batchSize {
			hi := lo + batchSize
			if hi > len(batch) {
				hi = len(batch)
			}
			eng.MultiplyBatch(batch[lo:hi], ys[:hi-lo], semiring.MinSelect2nd, nil, false, false)
		}
	}
}

// ReplayScratch wraps the captured batches as input frontiers and
// allocates the output frontiers ReplayBatches needs, so replays
// allocate no wrappers.
func ReplayScratch(batches [][]*sparse.SpVec) (xs [][]*sparse.Frontier, ys []*sparse.Frontier) {
	maxK := 0
	xs = make([][]*sparse.Frontier, len(batches))
	for r, batch := range batches {
		maxK = max(maxK, len(batch))
		xs[r] = make([]*sparse.Frontier, len(batch))
		for q, x := range batch {
			xs[r][q] = sparse.NewFrontier(x)
		}
	}
	ys = make([]*sparse.Frontier, maxK)
	for q := range ys {
		ys[q] = sparse.NewOutputFrontier(0)
	}
	return xs, ys
}

// timeBatchReplay replays the frontier batches, chunked to the given
// batch size, through one bucket engine and returns the average time
// per frontier.
func timeBatchReplay(a *sparse.CSC, batches [][]*sparse.SpVec, batchSize, threads, reps int) time.Duration {
	eng := core.NewMultiplier(a, core.Options{Threads: threads, SortOutput: true})
	xs, ys := ReplayScratch(batches)
	ReplayBatches(eng, xs, batchSize, ys) // warmup: sizes pooled buffers
	start := time.Now()
	for r := 0; r < reps; r++ {
		ReplayBatches(eng, xs, batchSize, ys)
	}
	return time.Since(start) / time.Duration(reps*CountFrontiers(batches))
}
