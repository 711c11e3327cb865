package spmspv_test

import (
	"bytes"
	"math"
	"testing"

	spmspv "spmspv"
)

func exampleMatrix(t *testing.T) *spmspv.Matrix {
	t.Helper()
	tr := spmspv.NewTriples(4, 4, 5)
	tr.Append(1, 0, 2)
	tr.Append(2, 0, 3)
	tr.Append(0, 1, 4)
	tr.Append(3, 2, 5)
	tr.Append(3, 3, 6)
	a, err := spmspv.NewMatrix(tr)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// newMult builds a multiplier running alg with opt, failing the test
// on a construction error.
func newMult(tb testing.TB, a *spmspv.Matrix, alg spmspv.Algorithm, opt spmspv.Options) *spmspv.Multiplier {
	tb.Helper()
	mu, err := spmspv.NewMultiplier(a, spmspv.WithAlgorithm(alg), spmspv.WithEngineOptions(opt))
	if err != nil {
		tb.Fatal(err)
	}
	return mu
}

// mult runs one Mult on a list vector and returns the product's list.
func mult(mu *spmspv.Multiplier, x *spmspv.Vector, sr spmspv.Semiring, d spmspv.Desc) *spmspv.Vector {
	y := spmspv.NewOutputFrontier(0)
	mu.Mult(spmspv.NewFrontier(x), y, sr, d)
	return y.List()
}

func TestPublicAPIQuickstart(t *testing.T) {
	a := exampleMatrix(t)
	x := spmspv.NewVector(4, 2)
	x.Append(0, 10)
	x.Append(2, 1)

	mu, err := spmspv.NewMultiplier(a, spmspv.WithSortOutput(true))
	if err != nil {
		t.Fatal(err)
	}
	y := mult(mu, x, spmspv.Arithmetic, spmspv.Desc{})
	// y = 10·col0 + 1·col2 = {1: 20, 2: 30, 3: 5}.
	if y.NNZ() != 3 {
		t.Fatalf("nnz(y) = %d, want 3", y.NNZ())
	}
	want := map[spmspv.Index]float64{1: 20, 2: 30, 3: 5}
	for k, i := range y.Ind {
		if y.Val[k] != want[i] {
			t.Errorf("y[%d] = %g, want %g", i, y.Val[k], want[i])
		}
	}
}

func TestAllAlgorithmsAgreeViaFacade(t *testing.T) {
	a := spmspv.RMAT(spmspv.DefaultRMAT(9), 5)
	x := spmspv.NewVector(a.NumCols, 10)
	for i := spmspv.Index(0); i < 10; i++ {
		x.Append(i*40, float64(i+1))
	}
	algos := []spmspv.Algorithm{
		spmspv.Bucket, spmspv.CombBLASSPA, spmspv.CombBLASHeap,
		spmspv.GraphMat, spmspv.SortBased,
	}
	ref := mult(newMult(t, a, spmspv.Bucket, spmspv.Options{Threads: 1, SortOutput: true}),
		x, spmspv.Arithmetic, spmspv.Desc{})
	for _, alg := range algos {
		mu := newMult(t, a, alg, spmspv.Options{Threads: 4, SortOutput: true})
		if got := mu.Algorithm(); got != alg {
			t.Errorf("Algorithm() = %v, want %v", got, alg)
		}
		y := mult(mu, x, spmspv.Arithmetic, spmspv.Desc{})
		if !y.EqualValues(ref, 1e-9) {
			t.Errorf("%v disagrees with reference", alg)
		}
		if mu.Counters().Work() == 0 {
			t.Errorf("%v reported no work", alg)
		}
		mu.ResetCounters()
		if mu.Counters().Work() != 0 {
			t.Errorf("%v: ResetCounters did not zero", alg)
		}
	}
}

func TestFacadeMultiplyInto(t *testing.T) {
	a := exampleMatrix(t)
	mu := newMult(t, a, spmspv.Bucket, spmspv.Options{SortOutput: true})
	x := spmspv.NewVector(4, 1)
	x.Append(1, 2)
	// A frontier wrapping y makes the product land in y's storage.
	y := spmspv.NewVector(0, 0)
	mu.Mult(spmspv.NewFrontier(x), spmspv.NewFrontier(y), spmspv.Arithmetic, spmspv.Desc{Output: spmspv.OutputList})
	if y.NNZ() != 1 || y.Ind[0] != 0 || y.Val[0] != 8 {
		t.Errorf("y = %v %v", y.Ind, y.Val)
	}
	if mu.Matrix() != a {
		t.Error("Matrix() did not return the bound matrix")
	}
}

func TestFacadeMaskedMultiply(t *testing.T) {
	a := exampleMatrix(t)
	x := spmspv.NewVector(4, 1)
	x.Append(0, 1) // y would be {1:2, 2:3}
	mask := spmspv.NewBitVector(4)
	mv := spmspv.NewVector(4, 1)
	mv.Append(1, 1)
	mask.SetFrom(mv)

	for _, alg := range []spmspv.Algorithm{spmspv.Bucket, spmspv.GraphMat} {
		mu := newMult(t, a, alg, spmspv.Options{SortOutput: true})
		y := mult(mu, x, spmspv.Arithmetic, spmspv.Desc{Mask: mask})
		if y.NNZ() != 1 || y.Ind[0] != 1 {
			t.Errorf("%v: masked result %v %v, want {1:2}", alg, y.Ind, y.Val)
		}
		y = mult(mu, x, spmspv.Arithmetic, spmspv.Desc{Mask: mask, Complement: true})
		if y.NNZ() != 1 || y.Ind[0] != 2 {
			t.Errorf("%v: complement-masked result %v %v, want {2:3}", alg, y.Ind, y.Val)
		}
	}
}

func TestFacadeGraphAlgorithms(t *testing.T) {
	g := spmspv.TriangularMesh(16, 16, 3)
	mu := newMult(t, g, spmspv.Bucket, spmspv.Options{SortOutput: true})

	res := spmspv.BFS(mu, 0)
	if res.Levels[0] != 0 || res.Parents[0] != 0 {
		t.Error("BFS source bookkeeping wrong")
	}
	reached := 0
	for _, l := range res.Levels {
		if l >= 0 {
			reached++
		}
	}
	if reached != int(g.NumCols) {
		t.Errorf("BFS reached %d of %d on a connected mesh", reached, g.NumCols)
	}

	labels := spmspv.ConnectedComponents(mu)
	for _, l := range labels {
		if l != 0 {
			t.Fatal("connected mesh should have a single component rooted at 0")
		}
	}

	mis := spmspv.MaximalIndependentSet(mu, 1)
	if len(mis) != int(g.NumCols) {
		t.Fatal("MIS result wrong length")
	}

	dist := spmspv.SSSP(mu, 0)
	if dist[0] != 0 || math.IsInf(dist[len(dist)-1], 1) {
		t.Error("SSSP distances wrong on connected mesh")
	}

	norm := spmspv.NormalizeColumns(g)
	pr := spmspv.PageRank(newMult(t, norm, spmspv.Bucket, spmspv.Options{}), spmspv.PageRankOptions{})
	var sum float64
	for _, r := range pr.Ranks {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("PageRank does not sum to 1: %g", sum)
	}
}

func TestFacadeIO(t *testing.T) {
	a := exampleMatrix(t)
	var buf bytes.Buffer
	if err := spmspv.WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := spmspv.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(a) {
		t.Error("matrix I/O round trip failed")
	}

	v := spmspv.NewVector(9, 2)
	v.Append(4, 1.25)
	v.Append(8, -3)
	buf.Reset()
	if err := spmspv.WriteVector(&buf, v); err != nil {
		t.Fatal(err)
	}
	vback, err := spmspv.ReadVector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !vback.EqualValues(v, 0) {
		t.Error("vector I/O round trip failed")
	}
}

func TestFacadeGenerators(t *testing.T) {
	if g := spmspv.ErdosRenyi(256, 4, 1); g.NumCols != 256 {
		t.Error("ErdosRenyi dimension")
	}
	if g := spmspv.Grid2D(8, 8); g.NNZ() == 0 {
		t.Error("Grid2D empty")
	}
	if g := spmspv.RGG(256, 0.15, 2); g.NNZ() == 0 {
		t.Error("RGG empty")
	}
	s := spmspv.ComputeStats("grid", spmspv.Grid2D(8, 8), 0)
	if s.PseudoDiameter != 14 {
		t.Errorf("8x8 grid pseudo-diameter = %d, want 14", s.PseudoDiameter)
	}
}

func TestMultiplyLeft(t *testing.T) {
	a := exampleMatrix(t)
	mu := newMult(t, a, spmspv.Bucket, spmspv.Options{SortOutput: true})
	// xᵀ·A with x = e_3 picks out row 3 of A: entries at cols 2 and 3.
	x := spmspv.NewVector(4, 1)
	x.Append(3, 1)
	y := mult(mu, x, spmspv.Arithmetic, spmspv.Desc{Transpose: true})
	if y.NNZ() != 2 || y.Ind[0] != 2 || y.Val[0] != 5 || y.Ind[1] != 3 || y.Val[1] != 6 {
		t.Errorf("left product = %v %v", y.Ind, y.Val)
	}
	// Second call reuses the cached transpose engine.
	y2 := mult(mu, x, spmspv.Arithmetic, spmspv.Desc{Transpose: true})
	if !y2.EqualValues(y, 0) {
		t.Error("cached left engine gave a different result")
	}
}

func TestMultiplyAccum(t *testing.T) {
	a := exampleMatrix(t)
	mu := newMult(t, a, spmspv.Bucket, spmspv.Options{SortOutput: true})
	x := spmspv.NewVector(4, 1)
	x.Append(0, 1) // A·x = {1:2, 2:3}
	accum := spmspv.NewVector(4, 2)
	accum.Append(1, 10)
	accum.Append(3, 7)
	// The output frontier's prior contents are the accumulator.
	yf := spmspv.NewFrontier(accum)
	mu.Mult(spmspv.NewFrontier(x), yf, spmspv.Arithmetic, spmspv.Desc{Accum: true})
	want := spmspv.NewVector(4, 3)
	want.Append(1, 12)
	want.Append(2, 3)
	want.Append(3, 7)
	if y := yf.List(); !y.EqualValues(want, 0) {
		t.Errorf("accum product = %v %v", y.Ind, y.Val)
	}
}

func TestFacadePermutations(t *testing.T) {
	a := exampleMatrix(t)
	perm := []spmspv.Index{3, 2, 1, 0}
	pa, err := spmspv.PermuteRows(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	if pa.At(2, 0) != 2 { // (1,0)=2 moves to row perm[1]... no: (2,0)=3? check (1,0)=2→row 2
		t.Errorf("permuted entry: %g", pa.At(2, 0))
	}
	if _, err := spmspv.PermuteCols(a, perm); err != nil {
		t.Fatal(err)
	}
	if _, err := spmspv.PermuteSymmetric(a, perm); err != nil {
		t.Fatal(err)
	}
	sub, err := spmspv.ExtractColumns(a, []spmspv.Index{1})
	if err != nil || sub.NumCols != 1 {
		t.Fatalf("extract: %v", err)
	}
	if _, err := spmspv.ExtractSubmatrix(a, 0, 2, 0, 2); err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[spmspv.Algorithm]string{
		spmspv.Bucket:       "SpMSpV-bucket",
		spmspv.CombBLASSPA:  "CombBLAS-SPA",
		spmspv.CombBLASHeap: "CombBLAS-heap",
		spmspv.GraphMat:     "GraphMat",
		spmspv.SortBased:    "SpMSpV-sort",
	}
	for alg, want := range names {
		if alg.String() != want {
			t.Errorf("%d.String() = %q, want %q", alg, alg.String(), want)
		}
	}
	if spmspv.Algorithm(99).String() != "unknown" {
		t.Error("unknown algorithm name")
	}
}
