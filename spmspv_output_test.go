package spmspv_test

import (
	"math/rand"
	"testing"

	spmspv "spmspv"
	"spmspv/internal/baselines"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

// engineOptions builds construction options that pin the hybrid
// switch at a density threshold, so the property tests' small inputs
// reach both of its sides.
func engineOptions(threads int) spmspv.Options {
	return spmspv.Options{Threads: threads, SortOutput: true, HybridThreshold: 0.25}
}

// maskedOracle computes ⟨A·x, mask⟩ through the sequential reference.
func maskedOracle(a *spmspv.Matrix, x *spmspv.Vector, sr spmspv.Semiring, mask *spmspv.BitVector, complement bool) *spmspv.Vector {
	want := baselines.Reference(a, x, sr)
	sparse.FilterMaskInPlace(want, mask, complement)
	return want
}

func randomMask(rng *rand.Rand, m spmspv.Index, density float64) *spmspv.BitVector {
	sel := spmspv.NewVector(m, 0)
	for i := spmspv.Index(0); i < m; i++ {
		if rng.Float64() < density {
			sel.Append(i, 1)
		}
	}
	mask := spmspv.NewBitVector(m)
	mask.SetFrom(sel)
	return mask
}

// checkBitmapMirrorsList fails the test when a frontier claiming a
// materialized bitmap does not mirror its list exactly.
func checkBitmapMirrorsList(t *testing.T, f *spmspv.Frontier, label string) {
	t.Helper()
	if !f.HasBits() {
		return
	}
	bits := f.Bits()
	if bits.Count() != f.NNZ() {
		t.Fatalf("%s: bitmap count %d != list nnz %d", label, bits.Count(), f.NNZ())
	}
	l := f.List()
	for k, i := range l.Ind {
		v, ok := bits.Get(i)
		if !ok || v != l.Val[k] {
			t.Fatalf("%s: bitmap[%d] = (%v,%v), list has %g", label, i, v, ok, l.Val[k])
		}
	}
}

// TestMultiplyFrontierMatchesMultiply pins the tentpole property:
// frontier-output multiplication is the same function as plain
// multiplication, for every registered engine, and any natively
// emitted bitmap mirrors the list exactly.
func TestMultiplyFrontierMatchesMultiply(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	semirings := []spmspv.Semiring{spmspv.Arithmetic, spmspv.MinSelect2nd, spmspv.MinPlus}
	for trial := 0; trial < 6; trial++ {
		m := spmspv.Index(rng.Intn(900) + 60)
		n := spmspv.Index(rng.Intn(900) + 60)
		a := testutil.RandomCSC(rng, m, n, float64(rng.Intn(8))+1)
		// Sweep input density across the hybrid switch point.
		f := rng.Intn(int(n)) + 1
		x := testutil.RandomVector(rng, n, f, trial%2 == 0)
		sr := semirings[trial%len(semirings)]
		want := baselines.Reference(a, x, sr)

		for _, alg := range spmspv.Algorithms() {
			mu := newMult(t, a, alg, engineOptions(1+trial%4))
			plain := mult(mu, x, sr, spmspv.Desc{Output: spmspv.OutputList})
			if !plain.EqualValues(want, 1e-9) {
				t.Fatalf("trial %d %v: list-output Mult diverged from oracle", trial, alg)
			}
			xf := spmspv.NewFrontier(x)
			yf := spmspv.NewOutputFrontier(m)
			mu.Mult(xf, yf, sr, spmspv.Desc{})
			if !yf.List().EqualValues(want, 1e-9) {
				t.Fatalf("trial %d %v: frontier-output Mult diverged from list output", trial, alg)
			}
			checkBitmapMirrorsList(t, yf, alg.String())
			// Reuse the same output frontier (the pipeline pattern).
			mu.Mult(xf, yf, sr, spmspv.Desc{})
			if !yf.List().EqualValues(want, 1e-9) {
				t.Fatalf("trial %d %v: reused output frontier diverged", trial, alg)
			}
			checkBitmapMirrorsList(t, yf, alg.String()+" (reused)")
		}
	}
}

// TestMultiplyMaskedMatchesOracle pins every registered engine's
// masked multiply — including the four baselines' new mask pushdown —
// against the sequential oracle with the mask applied after the fact,
// for both mask polarities, through the list and the frontier-output
// paths.
func TestMultiplyMaskedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	semirings := []spmspv.Semiring{spmspv.Arithmetic, spmspv.MinSelect2nd}
	for trial := 0; trial < 6; trial++ {
		m := spmspv.Index(rng.Intn(700) + 50)
		n := spmspv.Index(rng.Intn(700) + 50)
		a := testutil.RandomCSC(rng, m, n, float64(rng.Intn(6))+1)
		x := testutil.RandomVector(rng, n, rng.Intn(int(n))+1, trial%2 == 0)
		sr := semirings[trial%len(semirings)]
		mask := randomMask(rng, m, 0.4)
		complement := trial%2 == 1
		want := maskedOracle(a, x, sr, mask, complement)

		for _, alg := range spmspv.Algorithms() {
			mu := newMult(t, a, alg, engineOptions(1+trial%4))
			y := mult(mu, x, sr, spmspv.Desc{Mask: mask, Complement: complement, Output: spmspv.OutputList})
			if !y.EqualValues(want, 1e-9) {
				t.Fatalf("trial %d %v: list-output masked Mult diverged from oracle (complement=%v)",
					trial, alg, complement)
			}
			xf := spmspv.NewFrontier(x)
			yf := spmspv.NewOutputFrontier(m)
			mu.Mult(xf, yf, sr, spmspv.Desc{Mask: mask, Complement: complement})
			if !yf.List().EqualValues(want, 1e-9) {
				t.Fatalf("trial %d %v: frontier-output masked Mult diverged from oracle", trial, alg)
			}
			checkBitmapMirrorsList(t, yf, alg.String()+" (masked)")
		}
	}
}

// TestMaskedBFSAllEngines is the acceptance check that masked BFS runs
// on all registered engines (bucket, the four baselines, hybrid) and
// produces the same search as plain BFS.
func TestMaskedBFSAllEngines(t *testing.T) {
	a := spmspv.RMAT(spmspv.DefaultRMAT(10), 42)
	algos := spmspv.Algorithms()
	if len(algos) < 6 {
		t.Fatalf("expected ≥ 6 registered engines, have %d", len(algos))
	}
	ref := spmspv.BFS(newMult(t, a, spmspv.Bucket, engineOptions(1)), 0)
	for _, alg := range algos {
		mu := newMult(t, a, alg, engineOptions(2))
		got := spmspv.BFSMasked(mu, 0)
		for v := range ref.Levels {
			if got.Levels[v] != ref.Levels[v] {
				t.Fatalf("%v: masked BFS level[%d] = %d, plain = %d",
					alg, v, got.Levels[v], ref.Levels[v])
			}
		}
		for v, p := range got.Parents {
			if ref.Levels[v] > 0 {
				if p < 0 || got.Levels[p] != got.Levels[v]-1 || a.At(spmspv.Index(v), p) == 0 {
					t.Fatalf("%v: bad masked BFS parent %d for vertex %d", alg, p, v)
				}
			}
		}
	}
}

// TestBFSPipelineZeroOutputConversions is the acceptance criterion for
// the output layer: a scale-14 R-MAT BFS driven through the masked
// frontier pipeline on the direction-switching hybrid engine performs
// ZERO list→bitmap output conversions — every dense level's
// matrix-driven input bitmap was emitted natively by the previous
// level's output pass.
func TestBFSPipelineZeroOutputConversions(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-14 graph in -short mode")
	}
	a := spmspv.RMAT(spmspv.DefaultRMAT(14), 3)
	// A low fixed threshold guarantees the dense middle levels take the
	// matrix-driven side (no calibration probes, no cache I/O).
	opt := spmspv.Options{SortOutput: true, HybridThreshold: 0.02}
	mu := newMult(t, a, spmspv.Hybrid, opt)

	ref := spmspv.BFS(newMult(t, a, spmspv.Bucket, engineOptions(1)), 0)

	spmspv.ResetFrontierStats()
	mu.ResetCounters()
	got := spmspv.BFSMasked(mu, 0)
	c := mu.Counters()

	if c.DirectionSwitches == 0 {
		t.Fatal("no level took the matrix-driven side; the test exercises nothing")
	}
	if c.OutputConversions != 0 {
		t.Fatalf("frontier pipeline performed %d output conversions, want 0", c.OutputConversions)
	}
	outConv, native := spmspv.FrontierOutputStats()
	if outConv != 0 {
		t.Fatalf("process-wide output conversions = %d, want 0", outConv)
	}
	if native == 0 {
		t.Fatal("no native output bitmaps emitted")
	}
	for v := range ref.Levels {
		if got.Levels[v] != ref.Levels[v] {
			t.Fatalf("pipeline BFS level[%d] = %d, plain = %d", v, got.Levels[v], ref.Levels[v])
		}
	}

	// The multi-source batch path: MultiBFSMasked expands all searches
	// through batched masked multiplies, and the batched Step 3 (bucket
	// side) plus GraphMat's per-piece copy (matrix-driven slots) emit
	// every slot's output bitmap natively — the whole k-wide
	// direction-optimized pipeline performs zero output conversions too.
	sources := spmspv.SpreadSources(a.NumCols, 0, 4)
	spmspv.ResetFrontierStats()
	mu.ResetCounters()
	multi := spmspv.MultiBFSMasked(mu, sources)
	c = mu.Counters()
	if c.DirectionSwitches == 0 {
		t.Fatal("no batch slot took the matrix-driven side; the multi-source test exercises nothing")
	}
	if c.OutputConversions != 0 {
		t.Fatalf("multi-source pipeline performed %d output conversions, want 0", c.OutputConversions)
	}
	if outConv, native = spmspv.FrontierOutputStats(); outConv != 0 {
		t.Fatalf("multi-source process-wide output conversions = %d, want 0", outConv)
	} else if native == 0 {
		t.Fatal("multi-source run emitted no native output bitmaps")
	}
	for s, src := range sources {
		srcRef := spmspv.BFS(newMult(t, a, spmspv.Bucket, engineOptions(1)), src)
		for v := range srcRef.Levels {
			if multi.Levels[s][v] != srcRef.Levels[v] {
				t.Fatalf("multi-source pipeline source %d: level[%d] = %d, plain = %d",
					src, v, multi.Levels[s][v], srcRef.Levels[v])
			}
		}
	}
}

// TestMultiBFSMaskedAllEngines checks the masked multi-source BFS —
// batched per-slot masks through MultBatch — against plain BFS on
// every registered engine (engines without a native batch path run
// the shared loop helper).
func TestMultiBFSMaskedAllEngines(t *testing.T) {
	a := spmspv.RMAT(spmspv.DefaultRMAT(10), 13)
	sources := []spmspv.Index{0, 5, a.NumCols / 2}
	refs := make([]*spmspv.BFSResult, len(sources))
	for s, src := range sources {
		refs[s] = spmspv.BFS(newMult(t, a, spmspv.Bucket, engineOptions(1)), src)
	}
	for _, alg := range spmspv.Algorithms() {
		mu := newMult(t, a, alg, engineOptions(2))
		got := spmspv.MultiBFSMasked(mu, sources)
		for s := range sources {
			for v := range refs[s].Levels {
				if got.Levels[s][v] != refs[s].Levels[v] {
					t.Fatalf("%v source %d: level[%d] = %d, want %d",
						alg, sources[s], v, got.Levels[s][v], refs[s].Levels[v])
				}
			}
		}
	}
}

// TestConcurrentMultiplyFrontier hammers the frontier-output path of
// every registered engine from multiple goroutines sharing one
// multiplier (run under -race in CI).
func TestConcurrentMultiplyFrontier(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := testutil.RandomCSC(rng, 400, 400, 4)
	x := testutil.RandomVector(rng, 400, 120, false)
	want := baselines.Reference(a, x, spmspv.Arithmetic)
	mask := randomMask(rng, 400, 0.5)
	wantMasked := maskedOracle(a, x, spmspv.Arithmetic, mask, true)

	for _, alg := range spmspv.Algorithms() {
		mu := newMult(t, a, alg, engineOptions(2))
		done := make(chan error, 8)
		for g := 0; g < 8; g++ {
			g := g
			go func() {
				for it := 0; it < 10; it++ {
					xf := spmspv.NewFrontier(x)
					yf := spmspv.NewOutputFrontier(400)
					if (g+it)%2 == 0 {
						mu.Mult(xf, yf, spmspv.Arithmetic, spmspv.Desc{})
						if !yf.List().EqualValues(want, 1e-9) {
							done <- errMismatch
							return
						}
					} else {
						mu.Mult(xf, yf, spmspv.Arithmetic, spmspv.Desc{Mask: mask, Complement: true})
						if !yf.List().EqualValues(wantMasked, 1e-9) {
							done <- errMismatch
							return
						}
					}
				}
				done <- nil
			}()
		}
		for g := 0; g < 8; g++ {
			if err := <-done; err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
		}
	}
}

// TestEngineNamesCoverRegistry pins the derived CLI help source: every
// name EngineNames returns parses, and every registered engine is
// reachable by at least one returned name.
func TestEngineNamesCoverRegistry(t *testing.T) {
	names := spmspv.EngineNames()
	reachable := map[spmspv.Algorithm]bool{}
	for _, name := range names {
		alg, ok := spmspv.ParseAlgorithm(name)
		if !ok {
			t.Fatalf("EngineNames lists %q but ParseAlgorithm rejects it", name)
		}
		reachable[alg] = true
	}
	for _, alg := range spmspv.Algorithms() {
		if !reachable[alg] {
			t.Fatalf("registered engine %v unreachable from EngineNames %v", alg, names)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent frontier multiply diverged" }
