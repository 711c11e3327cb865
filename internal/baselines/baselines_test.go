package baselines

import (
	"math/rand"
	"testing"

	enginepkg "spmspv/internal/engine"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

func engines(a *sparse.CSC, t int) []enginepkg.Engine {
	return []enginepkg.Engine{
		NewCombBLASSPA(a, t),
		NewCombBLASHeap(a, t),
		NewGraphMat(a, t),
		NewSortBased(a, t),
	}
}

func TestBaselinesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		m, n sparse.Index
		d    float64
	}{
		{1, 1, 1},
		{17, 31, 2.5},
		{500, 500, 4},
		{64, 1024, 2},  // wide
		{1024, 64, 12}, // tall
	}
	for _, sh := range shapes {
		a := testutil.RandomCSC(rng, sh.m, sh.n, sh.d)
		for _, threads := range []int{1, 3, 8} {
			for _, f := range []int{0, 1, int(sh.n) / 2, int(sh.n)} {
				x := testutil.RandomVector(rng, sh.n, f, true)
				want := Reference(a, x, semiring.Arithmetic)
				for _, eng := range engines(a, threads) {
					y := sparse.NewSpVec(0, 0)
					testutil.Multiply(eng, x, y, semiring.Arithmetic)
					if !y.EqualValues(want, 1e-9) {
						t.Fatalf("%s: %dx%d t=%d f=%d: mismatch vs reference",
							eng.Name(), sh.m, sh.n, threads, f)
					}
					if err := y.Validate(); err != nil {
						t.Fatalf("%s: invalid output: %v", eng.Name(), err)
					}
					if !y.Sorted {
						t.Fatalf("%s: output not marked sorted", eng.Name())
					}
				}
			}
		}
	}
}

func TestBaselinesReuseAcrossCalls(t *testing.T) {
	// Engines keep internal state (SPAs, bitvectors, buffers); repeated
	// calls with different vectors must not leak state between calls.
	rng := rand.New(rand.NewSource(2))
	a := testutil.RandomCSC(rng, 300, 300, 5)
	engs := engines(a, 4)
	for trial := 0; trial < 25; trial++ {
		x := testutil.RandomVector(rng, 300, rng.Intn(300), true)
		want := Reference(a, x, semiring.Arithmetic)
		for _, eng := range engs {
			y := sparse.NewSpVec(0, 0)
			testutil.Multiply(eng, x, y, semiring.Arithmetic)
			if !y.EqualValues(want, 1e-9) {
				t.Fatalf("%s: trial %d: state leaked across calls", eng.Name(), trial)
			}
		}
	}
}

func TestBaselinesSemirings(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := testutil.RandomCSC(rng, 200, 200, 4)
	x := testutil.RandomVector(rng, 200, 50, true)
	rings := []semiring.Semiring{
		semiring.MinPlus, semiring.BoolOrAnd, semiring.MinSelect2nd,
	}
	for _, sr := range rings {
		want := Reference(a, x, sr)
		for _, eng := range engines(a, 4) {
			y := sparse.NewSpVec(0, 0)
			testutil.Multiply(eng, x, y, sr)
			if !y.EqualValues(want, 0) {
				t.Errorf("%s over %s: mismatch vs reference", eng.Name(), sr.Name)
			}
		}
	}
}

func TestCombBLASSPAWorkGrowsWithThreads(t *testing.T) {
	// Table II: the row-split private-SPA scheme is NOT work-efficient —
	// its x-scan work is t·f and its SPA-init work is O(m) total.
	rng := rand.New(rand.NewSource(4))
	a := testutil.RandomCSC(rng, 5000, 5000, 4)
	x := testutil.RandomVector(rng, 5000, 100, true)
	y := sparse.NewSpVec(0, 0)

	scan := map[int]int64{}
	for _, threads := range []int{1, 4} {
		eng := NewCombBLASSPA(a, threads)
		testutil.Multiply(eng, x, y, semiring.Arithmetic)
		scan[threads] = eng.Counters().XScanned
	}
	if scan[4] != 4*scan[1] {
		t.Errorf("x-scan work: t=4 got %d, want exactly 4×%d (the paper's O(t·f) term)",
			scan[4], scan[1])
	}

	eng := NewCombBLASSPA(a, 2)
	testutil.Multiply(eng, x, y, semiring.Arithmetic)
	if init := eng.Counters().SPAInit; init < int64(a.NumRows) {
		t.Errorf("full-init SPA initialized %d slots, want ≥ m=%d", init, a.NumRows)
	}
	// The ablation switch removes the O(m) term.
	eng.FullInit = false
	eng.ResetCounters()
	testutil.Multiply(eng, x, y, semiring.Arithmetic)
	if init := eng.Counters().SPAInit; init >= int64(a.NumRows) {
		t.Errorf("partial-init SPA initialized %d slots, want < m=%d", init, a.NumRows)
	}
}

func TestGraphMatProbesAllColumns(t *testing.T) {
	// The matrix-driven O(nzc) floor: column probes are independent of
	// nnz(x).
	rng := rand.New(rand.NewSource(5))
	a := testutil.RandomCSC(rng, 3000, 3000, 4)
	y := sparse.NewSpVec(0, 0)

	probes := map[int]int64{}
	for _, f := range []int{1, 1000} {
		eng := NewGraphMat(a, 2)
		x := testutil.RandomVector(rng, 3000, f, true)
		testutil.Multiply(eng, x, y, semiring.Arithmetic)
		probes[f] = eng.Counters().ColumnsProbed
	}
	if probes[1] != probes[1000] {
		t.Errorf("matrix-driven probes should not depend on nnz(x): f=1 → %d, f=1000 → %d",
			probes[1], probes[1000])
	}
	if probes[1] < int64(a.NZC()) {
		t.Errorf("probes %d < nzc %d", probes[1], a.NZC())
	}
}

func TestCombBLASHeapUsesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := testutil.RandomCSC(rng, 1000, 1000, 6)
	x := testutil.RandomVector(rng, 1000, 200, true)
	y := sparse.NewSpVec(0, 0)
	eng := NewCombBLASHeap(a, 2)
	testutil.Multiply(eng, x, y, semiring.Arithmetic)
	c := eng.Counters()
	if c.HeapOps == 0 {
		t.Error("heap algorithm recorded no heap operations")
	}
	if c.HeapOps < c.MatrixTouched {
		t.Errorf("heap ops %d < matrix entries %d: every merged entry passes the heap",
			c.HeapOps, c.MatrixTouched)
	}
}

func TestSortBasedSortsAllEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := testutil.RandomCSC(rng, 1000, 1000, 6)
	x := testutil.RandomVector(rng, 1000, 200, true)
	y := sparse.NewSpVec(0, 0)
	eng := NewSortBased(a, 2)
	testutil.Multiply(eng, x, y, semiring.Arithmetic)
	c := eng.Counters()
	if c.SortedElems != c.MatrixTouched {
		t.Errorf("sort-based sorted %d elements, touched %d matrix entries — should sort all df",
			c.SortedElems, c.MatrixTouched)
	}
}

func TestEmptyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := testutil.RandomCSC(rng, 100, 100, 3)
	x := sparse.NewSpVec(100, 0)
	for _, eng := range engines(a, 4) {
		y := sparse.NewSpVec(0, 0)
		testutil.Multiply(eng, x, y, semiring.Arithmetic)
		if y.NNZ() != 0 || y.N != 100 {
			t.Errorf("%s: empty x gave nnz=%d n=%d", eng.Name(), y.NNZ(), y.N)
		}
	}
}
