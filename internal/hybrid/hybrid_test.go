package hybrid

import (
	"math/rand"
	"sync"
	"testing"

	"spmspv/internal/baselines"
	"spmspv/internal/engine"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

func opt(threads int) engine.Options {
	return engine.Options{Threads: threads, SortOutput: true}
}

// TestRegistryConstruction verifies the promotion contract: Hybrid is
// in the registry, constructible through engine.New, named, and
// calibrated when no threshold is given.
func TestRegistryConstruction(t *testing.T) {
	found := false
	for _, alg := range engine.Registered() {
		if alg == engine.Hybrid {
			found = true
		}
	}
	if !found {
		t.Fatal("engine.Hybrid not in Registered()")
	}
	if engine.Hybrid.String() != "Hybrid" {
		t.Errorf("name = %q", engine.Hybrid.String())
	}

	rng := rand.New(rand.NewSource(2))
	a := testutil.RandomCSC(rng, 400, 400, 5)
	e, err := engine.New(a, engine.Hybrid, opt(2))
	if err != nil {
		t.Fatal(err)
	}
	h := e.(*Engine)
	if !h.calibrated {
		t.Error("zero HybridThreshold should trigger calibration")
	}
	if th := h.Threshold(); !(th > 0 && th <= 1) {
		t.Errorf("calibrated threshold %g outside (0, 1]", th)
	}

	// An explicit threshold is honored verbatim.
	e, err = engine.New(a, engine.Hybrid, engine.Options{Threads: 2, HybridThreshold: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if h := e.(*Engine); h.calibrated || h.Threshold() != 0.25 {
		t.Errorf("explicit threshold: calibrated=%v th=%g", h.calibrated, h.Threshold())
	}

	// A negative threshold pins the vector-driven side.
	h = NewWithThreshold(a, opt(2), -1)
	x := testutil.RandomVector(rng, 400, 400, true)
	y := sparse.NewSpVec(0, 0)
	testutil.Multiply(h, x, y, semiring.Arithmetic)
	if h.Counters().DirectionSwitches != 0 {
		t.Error("pinned engine took the matrix-driven path")
	}
}

// TestHybridMatchesOracleAtEveryThreshold is the property test of the
// promotion issue: at thresholds 0 (always matrix-driven), 0.05
// (mixed) and 1 (matrix-driven only when fully dense), plain, masked
// and accumulate multiplies must match the sequential reference oracle
// for every probed input density and semiring.
func TestHybridMatchesOracleAtEveryThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := testutil.RandomCSC(rng, 500, 500, 4)
	n := a.NumCols
	srs := []semiring.Semiring{semiring.Arithmetic, semiring.MinPlus, semiring.MinSelect2nd}

	mask := sparse.NewBitVec(n)
	maskSrc := sparse.NewSpVec(n, int(n)/3)
	for v := sparse.Index(0); v < n; v += 3 {
		maskSrc.Append(v, 1)
	}
	mask.SetFrom(maskSrc)

	for _, th := range []float64{0, 0.05, 1} {
		h := NewWithThreshold(a, opt(3), th)
		for _, f := range []int{0, 1, 7, 60, 250, 500} {
			x := testutil.RandomVector(rng, n, f, true)
			for _, sr := range srs {
				want := baselines.Reference(a, x, sr)
				y := sparse.NewSpVec(0, 0)

				testutil.Multiply(h, x, y, sr)
				if !y.EqualValues(want, 1e-9) {
					t.Fatalf("th=%g f=%d sr=%s: plain multiply differs from oracle", th, f, sr.Name)
				}

				testutil.MultiplyMasked(h, x, y, sr, mask, false)
				wantMasked := sparse.Filter(want, func(i sparse.Index, _ float64) bool { return mask.Test(i) })
				if !y.EqualValues(wantMasked, 1e-9) {
					t.Fatalf("th=%g f=%d sr=%s: masked multiply differs from oracle", th, f, sr.Name)
				}

				testutil.MultiplyMasked(h, x, y, sr, mask, true)
				wantCompl := sparse.Filter(want, func(i sparse.Index, _ float64) bool { return !mask.Test(i) })
				if !y.EqualValues(wantCompl, 1e-9) {
					t.Fatalf("th=%g f=%d sr=%s: complement-masked multiply differs from oracle", th, f, sr.Name)
				}

				// Accumulate: y ← accum ⊕ (A·x), the GraphBLAS pattern the
				// engine.Mult builds from Multiply + EwiseAddInto.
				accum := testutil.RandomVector(rng, a.NumRows, 40, true)
				prod := sparse.NewSpVec(0, 0)
				testutil.Multiply(h, x, prod, sr)
				got := sparse.EwiseAdd(prod, accum, sr.Add)
				wantAcc := sparse.EwiseAdd(want, accum, sr.Add)
				if !got.EqualValues(wantAcc, 1e-9) {
					t.Fatalf("th=%g f=%d sr=%s: accumulate differs from oracle", th, f, sr.Name)
				}
			}
		}
		// Threshold semantics: 0 routes everything matrix-driven.
		if th == 0 {
			if got := h.Counters().DirectionSwitches; got == 0 {
				t.Error("threshold 0 never took the matrix-driven path")
			}
		}
	}
}

// TestSwitchAccounting pins the direction-switch bookkeeping: sparse
// inputs stay vector-driven, dense inputs switch, and the count lands
// in Counters().DirectionSwitches and resets.
func TestSwitchAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := testutil.RandomCSC(rng, 1000, 1000, 4)
	h := NewWithThreshold(a, opt(2), 0.1)
	y := sparse.NewSpVec(0, 0)

	sparseX := sparse.NewSpVec(1000, 1)
	sparseX.Append(5, 1)
	testutil.Multiply(h, sparseX, y, semiring.Arithmetic)
	if h.Counters().DirectionSwitches != 0 {
		t.Error("sparse input should use the bucket side")
	}

	denseX := testutil.RandomVector(rng, 1000, 500, true)
	testutil.Multiply(h, denseX, y, semiring.Arithmetic)
	if c := h.Counters(); c.DirectionSwitches != 1 {
		t.Errorf("Counters().DirectionSwitches = %d, want 1", c.DirectionSwitches)
	}
	h.ResetCounters()
	if c := h.Counters(); c.DirectionSwitches != 0 || c.Work() != 0 {
		t.Error("reset failed")
	}
	if h.Name() != "Hybrid" {
		t.Error("name")
	}
}

// TestHybridBatchMatchesLoop checks MultiplyBatch with frontiers
// straddling the threshold: the split between the batched bucket path
// and the per-call matrix path must be invisible in the results.
func TestHybridBatchMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := testutil.RandomCSC(rng, 600, 600, 5)
	h := NewWithThreshold(a, opt(2), 0.1)

	xs := make([]*sparse.SpVec, 6)
	ys := make([]*sparse.SpVec, 6)
	for q := range xs {
		f := 5 + q*2
		if q%2 == 1 {
			f = 200 + q*30 // above threshold: matrix-driven
		}
		xs[q] = testutil.RandomVector(rng, 600, f, true)
		ys[q] = sparse.NewSpVec(0, 0)
	}
	testutil.MultiplyBatch(h, xs, ys, semiring.MinPlus)
	if got := h.Counters().DirectionSwitches; got != 3 {
		t.Errorf("switches = %d, want 3 (the dense half of the batch)", got)
	}
	for q := range xs {
		want := baselines.Reference(a, xs[q], semiring.MinPlus)
		if !ys[q].EqualValues(want, 1e-9) {
			t.Errorf("frontier %d differs from oracle", q)
		}
	}
}

// TestConcurrentHybrid hammers one shared hybrid engine from many
// goroutines mixing densities (so both directions race) — the
// engine-layer concurrency contract, meaningful under -race.
func TestConcurrentHybrid(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := testutil.RandomCSC(rng, 500, 500, 5)
	h := NewWithThreshold(a, opt(2), 0.1)

	type tc struct {
		x    *sparse.SpVec
		want *sparse.SpVec
	}
	cases := make([]tc, 6)
	for i := range cases {
		f := 10 + i*3
		if i%2 == 0 {
			f = 150 + i*40
		}
		x := testutil.RandomVector(rng, 500, f, true)
		cases[i] = tc{x: x, want: baselines.Reference(a, x, semiring.Arithmetic)}
	}

	var wg sync.WaitGroup
	errs := make([]string, 10)
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			y := sparse.NewSpVec(0, 0)
			for rep := 0; rep < 25; rep++ {
				c := cases[(g+rep)%len(cases)]
				testutil.Multiply(h, c.x, y, semiring.Arithmetic)
				if !y.EqualValues(c.want, 1e-9) {
					errs[g] = "result mismatch under concurrency"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Errorf("goroutine %d: %s", g, e)
		}
	}
}
