package bench

import (
	"fmt"
	"io"

	"spmspv/internal/core"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
	"spmspv/internal/spmv"
	"time"
)

// SpMVCrossover quantifies §III-C's comparison between SpMSpV-bucket
// and the binning-based SpMV of Buono et al. (paper ref [19]): as the
// input vector densifies, the sparse algorithm's per-selected-column
// overheads meet the dense algorithm's fixed O(nnz) cost. The
// experiment sweeps nnz(x)/n and reports both runtimes and the ratio —
// the crossover bolsters the paper's §V remark that switching to a
// matrix(/dense)-driven formulation eventually pays.
func SpMVCrossover(w io.Writer, cfg Config) {
	a := ljournal(cfg.Scale)
	n := a.NumCols
	tmax := cfg.Threads[len(cfg.Threads)-1]

	tbl := NewTable(
		fmt.Sprintf("§III-C: SpMSpV-bucket vs binned SpMV (ref [19]), ljournal stand-in, t=%d", tmax),
		"nnz(x)/n", "nnz(x)", "SpMSpV ran on", "SpMSpV(ms)", "binned SpMV(ms)", "SpMSpV/SpMV")

	binned := spmv.NewBinned(a, tmax, 4)
	bucket := core.NewMultiplier(a, core.Options{Threads: tmax, SortOutput: true})
	dense := make([]float64, n)
	yDense := make([]float64, a.NumRows)
	mult := ListMult(bucket, a, sparse.NewOutputFrontier(a.NumRows))

	for _, perMille := range []int{1, 10, 50, 100, 250, 500, 1000} {
		f := int(int64(n) * int64(perMille) / 1000)
		if f < 1 {
			f = 1
		}
		x := randomFrontier(n, f, int64(perMille))
		for i := range dense {
			dense[i] = 0
		}
		for k, i := range x.Ind {
			dense[i] = x.Val[k]
		}

		mult(x, semiring.Arithmetic) // warmup
		start := time.Now()
		for r := 0; r < cfg.Reps; r++ {
			mult(x, semiring.Arithmetic)
		}
		sparseTime := time.Since(start) / time.Duration(cfg.Reps)

		binned.Multiply(dense, yDense) // warmup
		start = time.Now()
		for r := 0; r < cfg.Reps; r++ {
			binned.Multiply(dense, yDense)
		}
		denseTime := time.Since(start) / time.Duration(cfg.Reps)

		tbl.AddRow(fmt.Sprintf("%.3f", float64(perMille)/1000), fmt.Sprint(f),
			fmt.Sprint(bucket.CallThreads(x)), Ms(sparseTime), Ms(denseTime),
			fmt.Sprintf("%.2f", float64(sparseTime)/float64(denseTime)))
	}
	tbl.Render(w)
	fmt.Fprintln(w)
}
