package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spmspv/internal/baselines"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

// paperMatrix reconstructs the 8×8 worked example of the paper's
// Fig. 1. Letters a..t map to values 1..20:
//
//	col0: a(1), b(3), c(7)        col4: l(1), m(3), n(6), o(7)
//	col1: d(0)                    col5: p(2), q(4)
//	col2: e(0), f(3), g(5), h(6)  col6: r(1)
//	col3: i(0), j(6), k(7)        col7: s(0), t(4)
func paperMatrix(t *testing.T) *sparse.CSC {
	t.Helper()
	tr := sparse.NewTriples(8, 8, 20)
	entries := []struct {
		row, col sparse.Index
		letter   float64
	}{
		{1, 0, 1}, {3, 0, 2}, {7, 0, 3}, // a b c
		{0, 1, 4},                                  // d
		{0, 2, 5}, {3, 2, 6}, {5, 2, 7}, {6, 2, 8}, // e f g h
		{0, 3, 9}, {6, 3, 10}, {7, 3, 11}, // i j k
		{1, 4, 12}, {3, 4, 13}, {6, 4, 14}, {7, 4, 15}, // l m n o
		{2, 5, 16}, {4, 5, 17}, // p q
		{1, 6, 18},             // r
		{0, 7, 19}, {4, 7, 20}, // s t
	}
	for _, e := range entries {
		tr.Append(e.row, e.col, e.letter)
	}
	a, err := sparse.NewCSCFromTriples(tr)
	if err != nil {
		t.Fatalf("building Fig. 1 matrix: %v", err)
	}
	return a
}

// optionMatrix enumerates the algorithm variants every correctness test
// should cover. Its tests lower the grain so each variant runs on its
// configured t.
func optionMatrix() map[string]Options {
	return map[string]Options{
		"default":        {Threads: 4},
		"sorted":         {Threads: 4, SortOutput: true},
		"1thread":        {Threads: 1, SortOutput: true},
		"manybuckets":    {Threads: 4, BucketsPerThread: 8, SortOutput: true},
		"onebucket":      {Threads: 1, BucketsPerThread: 1, SortOutput: true},
		"sentinel":       {Threads: 4, UseInfSentinel: true, SortOutput: true},
		"staged":         {Threads: 4, StagingEntries: 4, SortOutput: true},
		"static":         {Threads: 4, MergeSched: SchedStatic, SortOutput: true},
		"stealing":       {Threads: 4, MergeSched: SchedStealing, SortOutput: true},
		"evensplit":      {Threads: 4, SplitEvenly: true, SortOutput: true},
		"morethreads":    {Threads: 16, SortOutput: true},
		"stagedbig":      {Threads: 3, StagingEntries: 64, SortOutput: true},
		"combo-faithful": {Threads: 4, UseInfSentinel: true, StagingEntries: 8, SplitEvenly: true, SortOutput: true},
	}
}

func TestPaperWorkedExample(t *testing.T) {
	withGrain(t, 1)
	a := paperMatrix(t)
	// x has nonzeros at indices 2, 5, 7 as in Fig. 1.
	x := sparse.NewSpVec(8, 3)
	x.Append(2, 2)
	x.Append(5, 3)
	x.Append(7, 5)

	// y[0] = e·x2 + s·x7, y[2] = p·x5, y[3] = f·x2,
	// y[4] = q·x5 + t·x7, y[5] = g·x2, y[6] = h·x2.
	wantInd := []sparse.Index{0, 2, 3, 4, 5, 6}
	wantVal := []float64{5*2 + 19*5, 16 * 3, 6 * 2, 17*3 + 20*5, 7 * 2, 8 * 2}

	for name, opt := range optionMatrix() {
		opt := opt
		opt.SortOutput = true
		t.Run(name, func(t *testing.T) {
			ws := NewWorkspace(8, 0)
			y := sparse.NewSpVec(8, 0)
			Multiply(a, x, y, semiring.Arithmetic, ws, opt)
			requireCounts(t, name, a, opt, ws.TotalCounters(), []*sparse.SpVec{x})
			if y.NNZ() != len(wantInd) {
				t.Fatalf("nnz(y) = %d, want %d (y=%v %v)", y.NNZ(), len(wantInd), y.Ind, y.Val)
			}
			for k := range wantInd {
				if y.Ind[k] != wantInd[k] || y.Val[k] != wantVal[k] {
					t.Errorf("y[%d] = (%d, %g), want (%d, %g)", k, y.Ind[k], y.Val[k], wantInd[k], wantVal[k])
				}
			}
		})
	}
}

func TestMatchesReferenceRandom(t *testing.T) {
	withGrain(t, 1)
	rng := rand.New(rand.NewSource(42))
	shapes := []struct {
		m, n sparse.Index
		d    float64
	}{
		{1, 1, 1},
		{17, 31, 2.5},
		{100, 100, 4},
		{1000, 1000, 8},
		{64, 4096, 1.5}, // wide
		{4096, 64, 30},  // tall
	}
	for _, sh := range shapes {
		a := testutil.RandomCSC(rng, sh.m, sh.n, sh.d)
		for _, f := range []int{0, 1, 2, int(sh.n) / 3, int(sh.n)} {
			x := testutil.RandomVector(rng, sh.n, f, false)
			want := baselines.Reference(a, x, semiring.Arithmetic)
			for name, opt := range optionMatrix() {
				ws := NewWorkspace(0, 0)
				y := sparse.NewSpVec(0, 0)
				Multiply(a, x, y, semiring.Arithmetic, ws, opt)
				requireCounts(t, name, a, opt, ws.TotalCounters(), []*sparse.SpVec{x})
				if !y.EqualValues(want, 1e-9) {
					t.Fatalf("%s: %dx%d d=%g f=%d: mismatch vs reference", name, sh.m, sh.n, sh.d, f)
				}
				if opt.SortOutput {
					if err := y.Validate(); err != nil {
						t.Fatalf("%s: sorted output invalid: %v", name, err)
					}
				}
			}
		}
	}
}

func TestSemirings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := testutil.RandomCSC(rng, 300, 300, 5)
	x := testutil.RandomVector(rng, 300, 40, true)
	rings := []semiring.Semiring{
		semiring.Arithmetic,
		semiring.MinPlus,
		semiring.MaxPlus,
		semiring.BoolOrAnd,
		semiring.MinSelect2nd,
		semiring.MaxSelect2nd,
		semiring.MinSelect1st,
	}
	for _, sr := range rings {
		want := baselines.Reference(a, x, sr)
		ws := NewWorkspace(300, 0)
		y := sparse.NewSpVec(0, 0)
		// Epoch merge handles the ±Inf identities of min/max semirings;
		// the ∞-sentinel variant cannot (documented paper fidelity
		// limitation), so only the default merge is exercised here.
		Multiply(a, x, y, sr, ws, Options{Threads: 4, SortOutput: true})
		if !y.EqualValues(want, 0) {
			t.Errorf("%s: mismatch vs reference", sr.Name)
		}
	}
}

func TestEmptyAndEdgeCases(t *testing.T) {
	ws := NewWorkspace(0, 0)
	y := sparse.NewSpVec(0, 0)

	// Empty x.
	a := paperMatrix(t)
	x := sparse.NewSpVec(8, 0)
	Multiply(a, x, y, semiring.Arithmetic, ws, Options{})
	if y.NNZ() != 0 || y.N != 8 {
		t.Errorf("empty x: got nnz=%d n=%d", y.NNZ(), y.N)
	}

	// x selecting only empty columns of a matrix with empty columns.
	tr := sparse.NewTriples(4, 4, 1)
	tr.Append(2, 1, 5)
	sparseA, err := sparse.NewCSCFromTriples(tr)
	if err != nil {
		t.Fatal(err)
	}
	x = testutil.VectorWithIndices(4, 0, 3)
	Multiply(sparseA, x, y, semiring.Arithmetic, ws, Options{Threads: 8})
	if y.NNZ() != 0 {
		t.Errorf("empty-column selection: got nnz=%d, want 0", y.NNZ())
	}

	// Duplicate indices in x accumulate.
	x = sparse.NewSpVec(8, 2)
	x.Append(2, 1)
	x.Append(2, 2)
	Multiply(a, x, y, semiring.Arithmetic, ws, Options{Threads: 2, SortOutput: true})
	want := baselines.Reference(a, x, semiring.Arithmetic)
	if !y.EqualValues(want, 1e-12) {
		t.Errorf("duplicate x indices: mismatch vs reference")
	}

	// Single row matrix: all entries land in one bucket.
	tr = sparse.NewTriples(1, 5, 5)
	for j := sparse.Index(0); j < 5; j++ {
		tr.Append(0, j, float64(j+1))
	}
	rowA, err := sparse.NewCSCFromTriples(tr)
	if err != nil {
		t.Fatal(err)
	}
	x = testutil.VectorWithIndices(5, 0, 2, 4)
	Multiply(rowA, x, y, semiring.Arithmetic, ws, Options{Threads: 4})
	if y.NNZ() != 1 || y.Ind[0] != 0 || y.Val[0] != 1+3+5 {
		t.Errorf("single-row: got %v %v", y.Ind, y.Val)
	}
}

func TestWorkspaceReuseAcrossMatrices(t *testing.T) {
	withGrain(t, 1)
	rng := rand.New(rand.NewSource(3))
	ws := NewWorkspace(0, 0)
	y := sparse.NewSpVec(0, 0)
	// Reuse one workspace across matrices of different shapes and
	// thread counts; results must stay correct.
	for trial := 0; trial < 20; trial++ {
		m := sparse.Index(rng.Intn(500) + 1)
		n := sparse.Index(rng.Intn(500) + 1)
		a := testutil.RandomCSC(rng, m, n, 3)
		x := testutil.RandomVector(rng, n, rng.Intn(int(n)), false)
		opt := Options{Threads: rng.Intn(8) + 1, SortOutput: true}
		Multiply(a, x, y, semiring.Arithmetic, ws, opt)
		want := baselines.Reference(a, x, semiring.Arithmetic)
		if !y.EqualValues(want, 1e-9) {
			t.Fatalf("trial %d (%dx%d): workspace reuse broke correctness", trial, m, n)
		}
	}
}

func TestWorkspaceReuseWithSkewedSplits(t *testing.T) {
	// Regression test: SplitByWeight can hand some workers an empty x
	// range; those workers' Boffset rows were once left stale from the
	// previous call, leaking garbage bucket entries into the next
	// output. The trigger is a call with large per-worker counts
	// followed by a call whose weight distribution leaves workers idle,
	// so the grain is lowered to run both on 4 threads.
	withGrain(t, 1)
	rng := rand.New(rand.NewSource(77))
	a := testutil.RandomCSC(rng, 2000, 2000, 6)
	ws := NewWorkspace(0, 0)
	y := sparse.NewSpVec(0, 0)
	opt := Options{Threads: 4, SortOutput: true}

	// Call 1: dense frontier fills many buckets with large counts.
	dense := testutil.RandomVector(rng, 2000, 1500, true)
	Multiply(a, dense, y, semiring.Arithmetic, ws, opt)

	// Call 2: tiny, weight-skewed frontier (fewer nonzeros than
	// threads, so ranges are empty for some workers).
	tiny := testutil.VectorWithIndices(2000, 3, 700, 1500)
	Multiply(a, tiny, y, semiring.Arithmetic, ws, opt)
	want := baselines.Reference(a, tiny, semiring.Arithmetic)
	if !y.EqualValues(want, 1e-9) {
		t.Fatal("stale Boffset rows leaked entries from the previous call")
	}

	// And strict determinism across repeated alternation.
	first := y.Clone()
	for i := 0; i < 5; i++ {
		Multiply(a, dense, y, semiring.Arithmetic, ws, opt)
		Multiply(a, tiny, y, semiring.Arithmetic, ws, opt)
		if !y.EqualValues(first, 0) {
			t.Fatalf("iteration %d: reuse not deterministic", i)
		}
	}
}

func TestMaskedMultiply(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := testutil.RandomCSC(rng, 400, 400, 6)
	x := testutil.RandomVector(rng, 400, 80, true)
	// Mask admits even indices.
	maskVec := sparse.NewSpVec(400, 200)
	for i := sparse.Index(0); i < 400; i += 2 {
		maskVec.Append(i, 1)
	}
	mask := sparse.NewBitVec(400)
	mask.SetFrom(maskVec)

	full := baselines.Reference(a, x, semiring.Arithmetic)
	for _, complement := range []bool{false, true} {
		// Post-filtered expectation.
		want := sparse.NewSpVec(400, 0)
		for k, i := range full.Ind {
			keep := i%2 == 0
			if complement {
				keep = !keep
			}
			if keep {
				want.Append(i, full.Val[k])
			}
		}
		ws := NewWorkspace(400, 0)
		y := sparse.NewSpVec(0, 0)
		MultiplyMasked(a, x, y, semiring.Arithmetic, mask, complement, ws, Options{Threads: 4, SortOutput: true})
		if !y.EqualValues(want, 1e-9) {
			t.Errorf("complement=%v: masked multiply != post-filtered multiply", complement)
		}
	}

	// A mask that drops every product leaves y empty, and an empty y is
	// sorted even when the output is unsorted by option — the rule
	// batched slots follow too.
	y := sparse.NewSpVec(0, 0)
	MultiplyMasked(a, x, y, semiring.Arithmetic, sparse.NewBitVec(400), false, NewWorkspace(400, 0), Options{Threads: 4})
	if y.NNZ() != 0 || !y.Sorted {
		t.Errorf("all products masked out: nnz=%d Sorted=%v, want empty and sorted", y.NNZ(), y.Sorted)
	}
}

func TestLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := testutil.RandomCSC(rng, 256, 256, 4)
	ws := NewWorkspace(256, 0)
	opt := Options{Threads: 4, SortOutput: true}

	// A(x + z) == Ax + Az over the arithmetic semiring.
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := testutil.RandomVector(r, 256, r.Intn(256), true)
		z := testutil.RandomVector(r, 256, r.Intn(256), true)

		sum := sparse.NewSpVec(256, x.NNZ()+z.NNZ())
		for k, i := range x.Ind {
			sum.Append(i, x.Val[k])
		}
		for k, i := range z.Ind {
			sum.Append(i, z.Val[k])
		}

		yx := sparse.NewSpVec(0, 0)
		yz := sparse.NewSpVec(0, 0)
		ysum := sparse.NewSpVec(0, 0)
		Multiply(a, x, yx, semiring.Arithmetic, ws, opt)
		Multiply(a, z, yz, semiring.Arithmetic, ws, opt)
		Multiply(a, sum, ysum, semiring.Arithmetic, ws, opt)

		lhs := ysum.ToDense()
		rhs := yx.ToDense()
		for k, i := range yz.Ind {
			rhs[i] += yz.Val[k]
		}
		for i := range lhs {
			if math.Abs(lhs[i]-rhs[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPermutationEquivariance(t *testing.T) {
	// Relabeling rows of A permutes y identically: P·(A x) == (P·A) x.
	rng := rand.New(rand.NewSource(17))
	m, n := sparse.Index(128), sparse.Index(96)
	a := testutil.RandomCSC(rng, m, n, 3)
	perm := rng.Perm(int(m))

	tr := sparse.NewTriples(m, n, int(a.NNZ()))
	for j := sparse.Index(0); j < n; j++ {
		rows, vals := a.Col(j)
		for k, i := range rows {
			tr.Append(sparse.Index(perm[i]), j, vals[k])
		}
	}
	pa, err := sparse.NewCSCFromTriples(tr)
	if err != nil {
		t.Fatal(err)
	}

	x := testutil.RandomVector(rng, n, 30, true)
	ws := NewWorkspace(m, 0)
	y := sparse.NewSpVec(0, 0)
	py := sparse.NewSpVec(0, 0)
	Multiply(a, x, y, semiring.Arithmetic, ws, Options{Threads: 4, SortOutput: true})
	Multiply(pa, x, py, semiring.Arithmetic, ws, Options{Threads: 4, SortOutput: true})

	want := sparse.NewSpVec(m, y.NNZ())
	for k, i := range y.Ind {
		want.Append(sparse.Index(perm[i]), y.Val[k])
	}
	if !py.EqualValues(want, 1e-12) {
		t.Error("permuting matrix rows did not permute the output identically")
	}
}

func TestStepTimesPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := testutil.RandomCSC(rng, 5000, 5000, 8)
	x := testutil.RandomVector(rng, 5000, 2000, true)
	ws := NewWorkspace(5000, 0)
	y := sparse.NewSpVec(0, 0)
	Multiply(a, x, y, semiring.Arithmetic, ws, Options{Threads: 2, SortOutput: true})
	if ws.Steps.Total() <= 0 {
		t.Errorf("step times not recorded: %+v", ws.Steps)
	}
	if ws.Steps.Estimate <= 0 || ws.Steps.Merge <= 0 {
		t.Errorf("individual steps not recorded: %+v", ws.Steps)
	}
}

func TestCountersWorkEfficiency(t *testing.T) {
	// The defining property of the paper: total work of the bucket
	// algorithm is independent of thread count (within rounding), while
	// the input-scan work of CombBLAS-SPA grows linearly with t. The
	// grain is lowered so each t is the one the call runs on.
	withGrain(t, 1)
	rng := rand.New(rand.NewSource(29))
	a := testutil.RandomCSC(rng, 20000, 20000, 8)
	x := testutil.RandomVector(rng, 20000, 500, true)

	work := make(map[int]int64)
	for _, threads := range []int{1, 2, 4, 8} {
		ws := NewWorkspace(0, 0)
		y := sparse.NewSpVec(0, 0)
		Multiply(a, x, y, semiring.Arithmetic, ws, Options{Threads: threads})
		c := ws.TotalCounters()
		work[threads] = c.XScanned + c.MatrixTouched + c.SPAInit + c.SPAUpdates + c.BucketWrites
	}
	base := work[1]
	for threads, w := range work {
		// Allow 5% slack for bucket-count-dependent rounding.
		if float64(w) > 1.05*float64(base) {
			t.Errorf("t=%d: total work %d exceeds 1.05× single-thread work %d — not work-efficient",
				threads, w, base)
		}
	}
}
