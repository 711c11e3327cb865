package core

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"spmspv/internal/baselines"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

// TestMultiplyBatchMatchesLoop drives the batched multiply across
// shapes, semirings, thread counts, every optionMatrix variant (the
// staging and ∞-sentinel ablations included) and batch compositions
// (including empty and duplicate-free/duplicated frontiers) and checks
// every output against both a loop of single multiplies and the
// sequential reference. The grain is lowered so each variant's batches
// run on its configured t.
func TestMultiplyBatchMatchesLoop(t *testing.T) {
	withGrain(t, 1)
	rng := rand.New(rand.NewSource(7))
	shapes := []struct {
		m, n sparse.Index
		d    float64
	}{
		{1, 1, 1},
		{40, 90, 3},
		{700, 700, 5},
		{64, 1024, 2},
	}
	srs := []semiring.Semiring{semiring.Arithmetic, semiring.MinPlus, semiring.MinSelect2nd}
	variants := optionMatrix()
	variants["t1"] = Options{Threads: 1, SortOutput: true}
	variants["t3"] = Options{Threads: 3, SortOutput: true}
	names := slices.Sorted(maps.Keys(variants))
	for _, sh := range shapes {
		a := testutil.RandomCSC(rng, sh.m, sh.n, sh.d)
		for _, name := range names {
			mu := NewMultiplier(a, variants[name])
			for _, k := range []int{2, 3, 8} {
				xs := make([]*sparse.SpVec, k)
				ys := make([]*sparse.SpVec, k)
				want := make([]*sparse.SpVec, k)
				for _, sr := range srs {
					for q := 0; q < k; q++ {
						f := rng.Intn(int(sh.n)) // may be 0
						if q == 1 {
							f = 0 // force an empty frontier in every batch
						}
						xs[q] = testutil.RandomVector(rng, sh.n, f, true)
						ys[q] = sparse.NewSpVec(0, 0)
						want[q] = baselines.Reference(a, xs[q], sr)
					}
					mu.ResetCounters()
					testutil.MultiplyBatch(mu, xs, ys, sr)
					requireCounts(t, name, a, variants[name], mu.Counters(), segmentsOf(a, xs)...)
					for q := 0; q < k; q++ {
						if !ys[q].EqualValues(want[q], 1e-9) {
							t.Fatalf("%dx%d %s k=%d sr=%s frontier %d: batch result differs from reference",
								sh.m, sh.n, name, k, sr.Name, q)
						}
						if err := ys[q].Validate(); err != nil {
							t.Fatalf("%s frontier %d: invalid output: %v", name, q, err)
						}
						loop := sparse.NewSpVec(0, 0)
						testutil.Multiply(mu, xs[q], loop, sr)
						if !ys[q].EqualValues(loop, 1e-9) {
							t.Fatalf("%s frontier %d: batch differs from loop-of-Multiply", name, q)
						}
					}
				}
			}
		}
	}
}

// TestMultiplyBatchAllEmpty checks the degenerate all-empty batch.
func TestMultiplyBatchAllEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := testutil.RandomCSC(rng, 50, 50, 3)
	mu := NewMultiplier(a, Options{Threads: 2, SortOutput: true})
	xs := []*sparse.SpVec{sparse.NewSpVec(50, 0), sparse.NewSpVec(50, 0)}
	ys := []*sparse.SpVec{sparse.NewSpVec(0, 0), sparse.NewSpVec(0, 0)}
	testutil.MultiplyBatch(mu, xs, ys, semiring.Arithmetic)
	for q, y := range ys {
		if y.NNZ() != 0 || y.N != 50 {
			t.Errorf("frontier %d: got %v, want empty of dimension 50", q, y)
		}
	}
}

// TestMultiplyBatchCounters checks that the batch path records the
// same deterministic work the loop path does for the shared terms,
// under the default merge and scatter and under the ∞-sentinel and
// staging ablations, with both paths on 2 threads.
func TestMultiplyBatchCounters(t *testing.T) {
	withGrain(t, 1)
	rng := rand.New(rand.NewSource(11))
	a := testutil.RandomCSC(rng, 300, 300, 4)
	xs := make([]*sparse.SpVec, 4)
	ys := make([]*sparse.SpVec, 4)
	for q := range xs {
		xs[q] = testutil.RandomVector(rng, 300, 10+20*q, true)
		ys[q] = sparse.NewSpVec(0, 0)
	}

	for _, v := range []struct {
		name string
		opt  Options
	}{
		{"default", Options{Threads: 2, SortOutput: true}},
		{"sentinel", Options{Threads: 2, SortOutput: true, UseInfSentinel: true}},
		{"staged", Options{Threads: 2, SortOutput: true, StagingEntries: 4}},
	} {
		loop := NewMultiplier(a, v.opt)
		for q := range xs {
			testutil.Multiply(loop, xs[q], ys[q], semiring.Arithmetic)
		}
		wantC := loop.Counters()

		batch := NewMultiplier(a, v.opt)
		testutil.MultiplyBatch(batch, xs, ys, semiring.Arithmetic)
		gotC := batch.Counters()

		// Input scans, matrix touches, bucket writes, SPA work and output
		// are identical by construction; only SyncEvents (scheduling) may
		// differ.
		if gotC.XScanned != wantC.XScanned || gotC.MatrixTouched != wantC.MatrixTouched ||
			gotC.BucketWrites != wantC.BucketWrites || gotC.SPAInit != wantC.SPAInit ||
			gotC.SPAUpdates != wantC.SPAUpdates || gotC.OutputWritten != wantC.OutputWritten {
			t.Errorf("%s: batch counters differ from loop:\n batch %s\n loop  %s", v.name, gotC, wantC)
		}
	}
}
