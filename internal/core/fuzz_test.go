package core

import (
	"math/rand"
	"testing"

	"spmspv/internal/baselines"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

// FuzzMultiplyMatchesReference drives the bucket algorithm with
// fuzzer-chosen shapes, densities, thread counts and option bits, on a
// single x and on a 3-frontier batch, and checks every result against
// the sequential oracle. The fuzzer explores the configuration space
// (bucket-count rounding, range splitting across frontier boundaries,
// staging flushes) far beyond the hand-picked test matrix. The grain is
// lowered so every call runs on the fuzzed thread count.
func FuzzMultiplyMatchesReference(f *testing.F) {
	withGrain(f, 1)
	f.Add(int64(1), uint16(100), uint16(100), uint8(4), uint8(2), uint8(0))
	f.Add(int64(2), uint16(1), uint16(1), uint8(1), uint8(1), uint8(7))
	f.Add(int64(3), uint16(3000), uint16(17), uint8(30), uint8(8), uint8(3))
	f.Add(int64(4), uint16(17), uint16(3000), uint8(2), uint8(16), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, m16, n16 uint16, deg, threads, bits uint8) {
		m := sparse.Index(m16%4000 + 1)
		n := sparse.Index(n16%4000 + 1)
		d := float64(deg%32) + 0.5
		tcount := int(threads%16) + 1

		rng := rand.New(rand.NewSource(seed))
		a := testutil.RandomCSC(rng, m, n, d)
		f64 := rng.Intn(int(n) + 1)
		x := testutil.RandomVector(rng, n, f64, bits&1 != 0)

		opt := Options{
			Threads:        tcount,
			SortOutput:     bits&2 != 0,
			UseInfSentinel: bits&4 != 0,
			SplitEvenly:    bits&8 != 0,
		}
		if bits&16 != 0 {
			opt.StagingEntries = 8
		}
		if bits&32 != 0 {
			opt.BucketsPerThread = 1
		}
		if bits&64 != 0 {
			opt.MergeSched = SchedStatic
		}

		ws := NewWorkspace(0, 0)
		y := sparse.NewSpVec(0, 0)
		Multiply(a, x, y, semiring.Arithmetic, ws, opt)
		requireCounts(t, "single call", a, opt, ws.TotalCounters(), []*sparse.SpVec{x})
		want := baselines.Reference(a, x, semiring.Arithmetic)
		if !y.EqualValues(want, 1e-9) {
			t.Fatalf("mismatch: m=%d n=%d d=%g f=%d opts=%+v", m, n, d, f64, opt)
		}
		if opt.SortOutput {
			if err := y.Validate(); err != nil {
				t.Fatalf("invalid sorted output: %v", err)
			}
		}
		// Reuse the same workspace once more to catch state leaks.
		Multiply(a, x, y, semiring.Arithmetic, ws, opt)
		if !y.EqualValues(want, 1e-9) {
			t.Fatal("second call with reused workspace diverged")
		}

		// The same options on one 3-frontier pass of the kernel: the
		// fuzzed x, an empty frontier and a second random x.
		x2 := testutil.RandomVector(rng, n, rng.Intn(int(n)+1), bits&1 != 0)
		xs := []*sparse.SpVec{x, sparse.NewSpVec(n, 0), x2}
		ys := []*sparse.SpVec{sparse.NewSpVec(0, 0), sparse.NewSpVec(0, 0), sparse.NewSpVec(0, 0)}
		multiplyBatch(a, xs, ys, semiring.Arithmetic, ws, opt, nil, false, nil)
		for q := range xs {
			if !ys[q].EqualValues(baselines.Reference(a, xs[q], semiring.Arithmetic), 1e-9) {
				t.Fatalf("batch slot %d mismatch: m=%d n=%d d=%g opts=%+v", q, m, n, d, opt)
			}
			if opt.SortOutput {
				if err := ys[q].Validate(); err != nil {
					t.Fatalf("batch slot %d: invalid sorted output: %v", q, err)
				}
			}
		}
	})
}

// FuzzMultiplyMaskedOutputMatchesReference extends the fuzz harness to
// masked frontier outputs: the mask-pushdown merge plus the native
// list+bitmap output pass must equal the oracle with the mask applied
// after the fact, and the emitted bitmap must mirror the list, across
// fuzzer-chosen shapes, mask densities and polarities, on the fuzzed
// thread count (the grain is lowered).
func FuzzMultiplyMaskedOutputMatchesReference(f *testing.F) {
	withGrain(f, 1)
	f.Add(int64(1), uint16(100), uint16(100), uint8(4), uint8(2), uint8(0), uint8(128))
	f.Add(int64(2), uint16(1), uint16(1), uint8(1), uint8(1), uint8(1), uint8(0))
	f.Add(int64(3), uint16(3000), uint16(17), uint8(30), uint8(8), uint8(2), uint8(255))
	f.Add(int64(5), uint16(64), uint16(2000), uint8(9), uint8(5), uint8(3), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, m16, n16 uint16, deg, threads, bits, maskDen uint8) {
		m := sparse.Index(m16%4000 + 1)
		n := sparse.Index(n16%4000 + 1)
		d := float64(deg%32) + 0.5
		tcount := int(threads%16) + 1

		rng := rand.New(rand.NewSource(seed))
		a := testutil.RandomCSC(rng, m, n, d)
		x := testutil.RandomVector(rng, n, rng.Intn(int(n)+1), bits&1 != 0)

		sel := sparse.NewSpVec(m, 0)
		den := float64(maskDen) / 255
		for i := sparse.Index(0); i < m; i++ {
			if rng.Float64() < den {
				sel.Append(i, 1)
			}
		}
		mask := sparse.NewBitVec(m)
		mask.SetFrom(sel)
		complement := bits&2 != 0

		opt := Options{Threads: tcount, SortOutput: bits&4 != 0}
		mu := NewMultiplier(a, opt)

		want := baselines.Reference(a, x, semiring.Arithmetic)
		sparse.FilterMaskInPlace(want, mask, complement)

		// Masked list path.
		y := sparse.NewSpVec(0, 0)
		testutil.MultiplyMasked(mu, x, y, semiring.Arithmetic, mask, complement)
		if !y.EqualValues(want, 1e-9) {
			t.Fatalf("MultiplyMasked mismatch: m=%d n=%d d=%g complement=%v", m, n, d, complement)
		}

		// Masked frontier-output path, run twice through the same
		// output frontier to catch stale bitmap state.
		xf := sparse.NewFrontier(x)
		yf := sparse.NewOutputFrontier(m)
		for round := 0; round < 2; round++ {
			mu.MultiplyIntoMasked(xf, yf, semiring.Arithmetic, mask, complement)
			if !yf.List().EqualValues(want, 1e-9) {
				t.Fatalf("round %d: MultiplyIntoMasked mismatch", round)
			}
			if yf.HasBits() {
				bv := yf.Bits()
				if bv.Count() != yf.NNZ() {
					t.Fatalf("round %d: bitmap count %d != nnz %d", round, bv.Count(), yf.NNZ())
				}
				l := yf.List()
				for k, i := range l.Ind {
					if v, ok := bv.Get(i); !ok || v != l.Val[k] {
						t.Fatalf("round %d: bitmap[%d] = (%v,%v), list %g", round, i, v, ok, l.Val[k])
					}
				}
			}
		}
		requireCounts(t, "masked calls", a, opt, mu.Counters(), []*sparse.SpVec{x}, []*sparse.SpVec{x}, []*sparse.SpVec{x})
	})
}
