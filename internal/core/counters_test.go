package core

import (
	"math/rand"
	"sync"
	"testing"

	"spmspv/internal/baselines"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestExactCounterValues pins the work counters to hand-computed values
// on the Fig. 1 matrix, so the Tables I/II experiment rests on counters
// with verified semantics.
func TestExactCounterValues(t *testing.T) {
	a := paperMatrix(t)
	// x selects columns 2 (4 entries), 5 (2 entries), 7 (2 entries).
	x := sparse.NewSpVec(8, 3)
	x.Append(2, 2)
	x.Append(5, 3)
	x.Append(7, 5)

	ws := NewWorkspace(8, 0)
	y := sparse.NewSpVec(0, 0)
	Multiply(a, x, y, semiring.Arithmetic, ws, Options{Threads: 1, SortOutput: false})
	c := ws.TotalCounters()

	const df = 8 // total selected entries: 4 + 2 + 2
	if c.XScanned != 6 {
		// Both the estimate pass and the bucket pass scan the 3 input
		// nonzeros (the paper's two passes over x).
		t.Errorf("XScanned = %d, want 6", c.XScanned)
	}
	if c.MatrixTouched != 2*df {
		// Estimate + scatter each touch all df entries (§III-B: "both
		// access df nonzero entries").
		t.Errorf("MatrixTouched = %d, want %d", c.MatrixTouched, 2*df)
	}
	if c.BucketWrites != df {
		t.Errorf("BucketWrites = %d, want %d", c.BucketWrites, df)
	}
	// nnz(y) = 6 unique rows; SPA initializes exactly the unique slots.
	if c.SPAInit != 6 {
		t.Errorf("SPAInit = %d, want 6", c.SPAInit)
	}
	if c.SPAUpdates != df-6 {
		t.Errorf("SPAUpdates = %d, want %d", c.SPAUpdates, df-6)
	}
	if c.OutputWritten != 6 {
		t.Errorf("OutputWritten = %d, want 6", c.OutputWritten)
	}
	if c.SortedElems != 0 {
		t.Errorf("SortedElems = %d, want 0 for unsorted output", c.SortedElems)
	}

	// The ∞-sentinel variant initializes per entry, not per unique slot.
	ws2 := NewWorkspace(8, 0)
	Multiply(a, x, y, semiring.Arithmetic, ws2, Options{Threads: 1, UseInfSentinel: true})
	if c2 := ws2.TotalCounters(); c2.SPAInit != df {
		t.Errorf("sentinel SPAInit = %d, want %d", c2.SPAInit, df)
	}
}

// TestSteadyStateAllocationConstant verifies the paper's §III-A memory
// strategy end to end: after the first call sizes every buffer, a
// multiply allocates only a constant handful of objects (closure
// headers for the parallel sections) — crucially, the count must not
// scale with the input or the matrix. Buckets, SPA, Boffset, uind and
// sort scratch are all reused.
func TestSteadyStateAllocationConstant(t *testing.T) {
	rng := newRand(31)
	a := testutil.RandomCSC(rng, 4000, 4000, 8)
	small := testutil.RandomVector(rng, 4000, 20, true)
	large := testutil.RandomVector(rng, 4000, 3000, true)
	ws := NewWorkspace(0, 0)
	y := sparse.NewSpVec(0, 0)
	opt := Options{Threads: 1, SortOutput: true}
	// Size all buffers with the largest workload first.
	Multiply(a, large, y, semiring.Arithmetic, ws, opt)

	allocSmall := testing.AllocsPerRun(20, func() {
		Multiply(a, small, y, semiring.Arithmetic, ws, opt)
	})
	allocLarge := testing.AllocsPerRun(20, func() {
		Multiply(a, large, y, semiring.Arithmetic, ws, opt)
	})
	if allocSmall > 8 || allocLarge > 8 {
		t.Errorf("steady-state multiply allocates %.1f / %.1f objects/op, want ≤ 8 fixed",
			allocSmall, allocLarge)
	}
	if allocLarge > allocSmall {
		t.Errorf("allocations scale with input: %.1f (f=20) vs %.1f (f=3000)",
			allocSmall, allocLarge)
	}
}

// TestConcurrentMultipliers runs independent Multiplier instances (each
// with a private workspace) from concurrent goroutines — the supported
// way to parallelize across multiplications — and checks isolation.
func TestConcurrentMultipliers(t *testing.T) {
	rngSeeds := []int64{1, 2, 3, 4}
	a := testutil.RandomCSC(newRand(11), 800, 800, 5)
	want := make([]*sparse.SpVec, len(rngSeeds))
	xs := make([]*sparse.SpVec, len(rngSeeds))
	for k, seed := range rngSeeds {
		xs[k] = testutil.RandomVector(newRand(seed), 800, 100+10*k, true)
		want[k] = baselines.Reference(a, xs[k], semiring.Arithmetic)
	}
	var wg sync.WaitGroup
	errs := make([]string, len(rngSeeds))
	for k := range rngSeeds {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			mu := NewMultiplier(a, Options{Threads: 2, SortOutput: true})
			y := sparse.NewSpVec(0, 0)
			for rep := 0; rep < 20; rep++ {
				testutil.Multiply(mu, xs[k], y, semiring.Arithmetic)
				if !y.EqualValues(want[k], 1e-9) {
					errs[k] = "result mismatch under concurrency"
					return
				}
			}
		}(k)
	}
	wg.Wait()
	for k, e := range errs {
		if e != "" {
			t.Errorf("goroutine %d: %s", k, e)
		}
	}
}
