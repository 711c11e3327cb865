package spmspv_test

import (
	"math/rand"
	"sync"
	"testing"

	spmspv "spmspv"
	"spmspv/internal/baselines"
	"spmspv/internal/engine"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

// TestConcurrentMultiplySharedMultiplier hammers ONE shared Multiplier
// from many goroutines — plain, masked and left multiplies interleaved
// — and checks every result against the sequential reference. Run
// under -race this is the concurrency contract of the engine layer:
// per-call workspaces are pooled, counters aggregate race-free, and
// the lazily-built transpose engine is constructed exactly once.
func TestConcurrentMultiplySharedMultiplier(t *testing.T) {
	const (
		n          = 600
		goroutines = 12
		iters      = 30
	)
	rng := rand.New(rand.NewSource(42))
	a := testutil.RandomCSC(rng, n, n, 6)
	at := a.Transpose()

	for _, alg := range spmspv.Algorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			// Parallel subtests must not share the outer rng: give each
			// its own deterministically seeded source.
			rng := rand.New(rand.NewSource(42 + int64(alg)))
			mu := newMult(t, a, alg, spmspv.Options{Threads: 2, SortOutput: true})

			// Pre-build inputs and expected outputs serially so the
			// parallel phase races only the multiplier.
			type testCase struct {
				x          *spmspv.Vector
				mask       *spmspv.BitVector
				want       *spmspv.Vector // plain product
				wantMasked *spmspv.Vector // mask-filtered product
				wantLeft   *spmspv.Vector // transpose product
			}
			cases := make([]testCase, 8)
			for i := range cases {
				x := testutil.RandomVector(rng, n, 20+i*40, true)
				maskSrc := spmspv.NewVector(n, n/3)
				for v := spmspv.Index(0); v < n; v += 3 {
					maskSrc.Append(v, 1)
				}
				mask := sparse.NewBitVec(n)
				mask.SetFrom(maskSrc)
				want := baselines.Reference(a, x, spmspv.Arithmetic)
				cases[i] = testCase{
					x:          x,
					mask:       mask,
					want:       want,
					wantMasked: sparse.Filter(want, func(j spmspv.Index, _ float64) bool { return mask.Test(j) }),
					wantLeft:   baselines.Reference(at, x, spmspv.Arithmetic),
				}
			}

			var wg sync.WaitGroup
			errs := make(chan string, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					y := spmspv.NewVector(0, 0)
					yf := spmspv.NewFrontier(y)
					for it := 0; it < iters; it++ {
						tc := &cases[(g+it)%len(cases)]
						xf := spmspv.NewFrontier(tc.x)
						switch it % 3 {
						case 0:
							mu.Mult(xf, yf, spmspv.Arithmetic, spmspv.Desc{Output: spmspv.OutputList})
							if !y.EqualValues(tc.want, 1e-9) {
								errs <- "plain multiply diverged from reference under concurrency"
								return
							}
						case 1:
							mu.Mult(xf, yf, spmspv.Arithmetic, spmspv.Desc{Mask: tc.mask, Output: spmspv.OutputList})
							if !y.EqualValues(tc.wantMasked, 1e-9) {
								errs <- "masked multiply diverged from reference under concurrency"
								return
							}
						case 2:
							yl := mult(mu, tc.x, spmspv.Arithmetic, spmspv.Desc{Transpose: true})
							if !yl.EqualValues(tc.wantLeft, 1e-9) {
								errs <- "left multiply diverged from reference under concurrency"
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
			if mu.Counters().Work() == 0 {
				t.Error("no work aggregated across concurrent calls")
			}
		})
	}
}

// TestAllAlgorithmsConstructThroughRegistry checks the acceptance
// criterion of the engine-registry refactor: every Algorithm constant
// is registered with internal/engine and constructs a working engine
// bound to the registered Table I name.
func TestAllAlgorithmsConstructThroughRegistry(t *testing.T) {
	regs := engine.Registered()
	if len(regs) != 6 {
		t.Fatalf("registry holds %d algorithms, want 6", len(regs))
	}
	rng := rand.New(rand.NewSource(7))
	a := testutil.RandomCSC(rng, 200, 200, 4)
	x := testutil.RandomVector(rng, 200, 40, true)
	want := baselines.Reference(a, x, spmspv.Arithmetic)
	names := map[spmspv.Algorithm]string{
		spmspv.Bucket:       "SpMSpV-bucket",
		spmspv.CombBLASSPA:  "CombBLAS-SPA",
		spmspv.CombBLASHeap: "CombBLAS-heap",
		spmspv.GraphMat:     "GraphMat",
		spmspv.SortBased:    "SpMSpV-sort",
		spmspv.Hybrid:       "Hybrid",
	}
	for _, alg := range regs {
		eng, err := engine.New(a, alg, engine.Options{Threads: 2, SortOutput: true})
		if err != nil {
			t.Fatalf("engine.New(%v): %v", alg, err)
		}
		if eng.Name() != names[alg] {
			t.Errorf("registry name for %v = %q, want %q", alg, eng.Name(), names[alg])
		}
		y := spmspv.NewVector(0, 0)
		testutil.Multiply(eng, x, y, spmspv.Arithmetic)
		if !y.EqualValues(want, 1e-9) {
			t.Errorf("%v: registry-constructed engine mismatch vs reference", alg)
		}
	}
}

// TestMultiplyAccumInto exercises the accumulate through Mult across
// trials of growing inputs: accumulating into a frontier that holds a
// copy of accum must give the oracle union accum ⊕ A·x.
func TestMultiplyAccumInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := testutil.RandomCSC(rng, 300, 300, 5)
	mu := newMult(t, a, spmspv.Bucket, spmspv.Options{Threads: 2, SortOutput: true})

	accum := testutil.RandomVector(rng, 300, 50, true)
	for trial := 0; trial < 10; trial++ {
		x := testutil.RandomVector(rng, 300, 30+trial*20, true)
		want := spmspv.EwiseAdd(baselines.Reference(a, x, spmspv.Arithmetic), accum, spmspv.Arithmetic.Add)
		yf := spmspv.NewFrontier(accum.Clone())
		mu.Mult(spmspv.NewFrontier(x), yf, spmspv.Arithmetic, spmspv.Desc{Accum: true})
		if !yf.List().EqualValues(want, 1e-12) {
			t.Fatalf("trial %d: accumulated Mult differs from accum ⊕ A·x", trial)
		}
		if err := yf.List().Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
