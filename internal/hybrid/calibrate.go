package hybrid

import (
	"math"
	"time"

	"spmspv/internal/baselines"
	"spmspv/internal/core"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// Calibration: the switch threshold is learned from the bound matrix
// rather than hard-coded. At a handful of input densities, both sides
// run a few probe multiplies; the threshold is placed between the
// densest probe the vector-driven side won and the sparsest probe the
// matrix-driven side won. The cost model this samples is exactly the
// paper's: bucket is O(df) in the input's selected entries, GraphMat
// is pinned at O(nzc) probes plus the selected entries, so their
// crossover depends on the matrix's column structure and the host —
// both captured by measuring instead of guessing.

// probeDensities are the nnz(x)/n fractions sampled, sparsest first.
var probeDensities = []float64{1.0 / 256, 1.0 / 32, 1.0 / 8, 1.0 / 4, 1.0 / 2}

// probeReps is how many timed multiplies each side runs per density
// (the minimum is kept, standard micro-benchmark practice).
const probeReps = 2

// calibrate returns the learned threshold for the matrix bound to both
// engines. When the matrix-driven side never wins a probe the
// threshold is 1 (switch only for a fully dense input); when it wins
// the sparsest probe, half that probe's density.
func calibrate(bucket *core.Multiplier, matrix *baselines.GraphMat, a *sparse.CSC) float64 {
	n := a.NumCols
	if n == 0 || a.NNZ() == 0 {
		return 1
	}
	y := sparse.NewOutputFrontier(a.NumRows)
	// GraphMat probes wrap the list input in a pooled frontier per call,
	// so every probe pays its list→bitmap conversion.
	pool := sparse.NewFrontierPool(n)
	prev := 0.0
	for _, d := range probeDensities {
		f := int(d * float64(n))
		if f < 1 {
			f = 1
		}
		x := probeFrontier(n, f)
		xf := sparse.NewFrontier(x)
		tb := probeTime(func() { bucket.Multiply(xf, y, semiring.Arithmetic, nil, false, false) })
		tm := probeTime(func() {
			fr := pool.Wrap(x)
			matrix.Multiply(fr, y, semiring.Arithmetic, nil, false, false)
			fr.Release()
		})
		if tm < tb {
			if prev == 0 {
				return d / 2
			}
			// Geometric midpoint of the bracketing densities.
			return math.Sqrt(prev * d)
		}
		prev = d
	}
	return 1
}

// probeTime runs fn probeReps+1 times (one warmup) and returns the
// fastest timed run.
func probeTime(fn func()) time.Duration {
	fn() // warmup: sizes pooled buffers
	best := time.Duration(1<<63 - 1)
	for r := 0; r < probeReps; r++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// probeFrontier builds a deterministic frontier of f evenly spread
// indices (value 1), the same shape for every calibration so learned
// thresholds are comparable across engines on one matrix.
func probeFrontier(n sparse.Index, f int) *sparse.SpVec {
	x := sparse.NewSpVec(n, f)
	for i := 0; i < f; i++ {
		x.Append(sparse.Index(int64(i)*int64(n)/int64(f)), 1)
	}
	return x
}
