package hybrid

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"spmspv/internal/algorithms"
	"spmspv/internal/baselines"
	"spmspv/internal/core"
	"spmspv/internal/engine"
	"spmspv/internal/graphgen"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

func opt(threads int) engine.Options {
	return engine.Options{Threads: threads, SortOutput: true}
}

// TestRegistryConstruction verifies the promotion contract: Hybrid is
// in the registry, constructible through engine.New, named, and
// routed by the cost rule when no threshold is given.
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
	if !h.costRule || h.Threshold() != 0 {
		t.Errorf("zero HybridThreshold should select the cost rule: costRule=%v th=%g", h.costRule, h.Threshold())
	}

	// An explicit threshold is honored verbatim.
	e, err = engine.New(a, engine.Hybrid, engine.Options{Threads: 2, HybridThreshold: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if h := e.(*Engine); h.costRule || h.Threshold() != 0.25 {
		t.Errorf("explicit threshold: costRule=%v th=%g", h.costRule, h.Threshold())
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

// TestCostRule pins the default switch to flops, not entries: one entry
// on a column of degree ⌈Kappa·nzc⌉ runs matrix-driven, and more
// entries whose flops fall one short of that run vector-driven.
func TestCostRule(t *testing.T) {
	const n = 200
	bound := sparse.Index(math.Ceil(Kappa * n)) // every column is nonempty
	tr := sparse.NewTriples(n, n, 2*n)
	for i := sparse.Index(0); i < bound; i++ {
		tr.Append(i, 0, 1)
	}
	for j := sparse.Index(1); j < n; j++ {
		tr.Append(j, j, 1)
	}
	a, err := sparse.NewCSCFromTriples(tr)
	if err != nil {
		t.Fatal(err)
	}
	light := make([]sparse.Index, 0, bound-1)
	for j := sparse.Index(1); j < bound; j++ {
		light = append(light, j)
	}
	h := New(a, opt(2))
	for _, c := range []struct {
		name   string
		x      *sparse.SpVec
		matrix bool
	}{
		{"one heavy column", testutil.VectorWithIndices(n, 0), true},
		{"light columns", testutil.VectorWithIndices(n, light...), false},
	} {
		before := h.switches.Load()
		y := sparse.NewSpVec(0, 0)
		testutil.Multiply(h, c.x, y, semiring.Arithmetic)
		if got := h.switches.Load() > before; got != c.matrix {
			t.Errorf("%s (nnz %d): matrix-driven = %v, want %v", c.name, c.x.NNZ(), got, c.matrix)
		}
		if !y.EqualValues(baselines.Reference(a, c.x, semiring.Arithmetic), 0) {
			t.Errorf("%s: result differs from oracle", c.name)
		}
	}
}

// TestRoutingIsDeterministic builds the default engine five times on
// each of two meshes and replays one BFS's frontiers, then inputs grown
// across the switch (flops/nzc from 1/64 to 4), through every build:
// every build must route every input the same way.
func TestRoutingIsDeterministic(t *testing.T) {
	for _, name := range []string{"trimesh-delaunay", "grid5-g3circuit"} {
		p, _ := graphgen.FindProblem(name)
		a := p.Build(13)
		frontiers := algorithms.BFS(core.NewMultiplier(a, core.Options{SortOutput: true}),
			a.NumCols, 0, true).Frontiers
		perm := rand.New(rand.NewSource(1)).Perm(int(a.NumCols))
		for e := -6; e <= 2; e++ {
			x, _ := growX(a, perm, int64(math.Ldexp(float64(a.NZC()), e)))
			frontiers = append(frontiers, x)
		}
		var first []bool
		var firstSwitches int64
		for build := 0; build < 5; build++ {
			h := New(a, opt(2))
			routes := make([]bool, len(frontiers))
			y := sparse.NewSpVec(0, 0)
			for l, x := range frontiers {
				before := h.switches.Load()
				testutil.Multiply(h, x, y, semiring.MinSelect2nd)
				routes[l] = h.switches.Load() > before
			}
			switches := h.Counters().DirectionSwitches
			if build == 0 {
				first, firstSwitches = routes, switches
				continue
			}
			if !slices.Equal(routes, first) || switches != firstSwitches {
				t.Errorf("%s build %d: routed %d of %d inputs matrix-driven, build 0 routed %d",
					name, build, switches, len(frontiers), firstSwitches)
			}
		}
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
