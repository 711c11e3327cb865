// Tests for the frontier/batch surface of the facade and the
// ParseAlgorithm contract.
package spmspv_test

import (
	"math/rand"
	"sync"
	"testing"

	spmspv "spmspv"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

func TestParseAlgorithmAliasesAndUnknown(t *testing.T) {
	cases := []struct {
		name string
		want spmspv.Algorithm
		ok   bool
	}{
		{"bucket", spmspv.Bucket, true},
		{"sort", spmspv.SortBased, true},
		{"hybrid", spmspv.Hybrid, true},
		{"Hybrid", spmspv.Hybrid, true},
		{"HYBRID", spmspv.Hybrid, true},
		{"graphmat", spmspv.GraphMat, true},
		{"CombBLAS-SPA", spmspv.CombBLASSPA, true},
		{"SpMSpV-bucket", spmspv.Bucket, true},
		{"nonsense", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, ok := spmspv.ParseAlgorithm(c.name)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ParseAlgorithm(%q) = (%v, %v), want (%v, %v)", c.name, got, ok, c.want, c.ok)
		}
		if !ok && got != 0 {
			t.Errorf("ParseAlgorithm(%q) must return the zero Algorithm on failure, got %v", c.name, got)
		}
	}
	// Every registered algorithm's own name parses back to itself.
	for _, alg := range spmspv.Algorithms() {
		got, ok := spmspv.ParseAlgorithm(alg.String())
		if !ok || got != alg {
			t.Errorf("ParseAlgorithm(%q) = (%v, %v), want (%v, true)", alg.String(), got, ok, alg)
		}
	}
}

// TestMultiplyBatchEquivalentToLoopEveryEngine is the batch-layer
// property test: for EVERY registered engine, MultBatch must equal a
// loop of Mult calls across batch shapes, semirings and input
// densities (empty frontiers included).
func TestMultiplyBatchEquivalentToLoopEveryEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := testutil.RandomCSC(rng, 400, 400, 5)
	srs := []spmspv.Semiring{spmspv.Arithmetic, spmspv.MinSelect2nd, spmspv.MinPlus}

	for _, alg := range spmspv.Algorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			// A fixed threshold keeps the hybrid deterministic (both its
			// directions are covered by the density spread below).
			mu := newMult(t, a, alg,
				spmspv.Options{Threads: 2, SortOutput: true, HybridThreshold: 0.1})
			for _, k := range []int{1, 2, 5, 9} {
				xs := make([]*spmspv.Frontier, k)
				ys := make([]*spmspv.Frontier, k)
				for q := 0; q < k; q++ {
					f := (q * 97) % 300 // spreads 0 … dense across the batch
					xs[q] = spmspv.NewFrontier(testutil.RandomVector(rng, 400, f, true))
					ys[q] = mu.NewOutputFrontier()
				}
				for _, sr := range srs {
					mu.MultBatch(xs, ys, sr, spmspv.Desc{})
					for q := 0; q < k; q++ {
						want := mult(mu, xs[q].List(), sr, spmspv.Desc{})
						if !ys[q].List().EqualValues(want, 1e-9) {
							t.Fatalf("k=%d sr=%s frontier %d: batch ≠ loop", k, sr.Name, q)
						}
					}
				}
			}
		})
	}
}

// TestMultiplyBatchConcurrentShared hammers ONE shared Multiplier with
// concurrent MultBatch calls (meaningful under -race): the batch path
// borrows pooled workspaces exactly like single multiplies.
func TestMultiplyBatchConcurrentShared(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := testutil.RandomCSC(rng, 500, 500, 5)

	for _, alg := range []spmspv.Algorithm{spmspv.Bucket, spmspv.Hybrid} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			// Parallel subtests must not share the outer rng.
			rng := rand.New(rand.NewSource(23 + int64(alg)))
			mu := newMult(t, a, alg,
				spmspv.Options{Threads: 2, SortOutput: true, HybridThreshold: 0.1})
			const k = 4
			xs := make([]*spmspv.Vector, k)
			want := make([]*spmspv.Vector, k)
			for q := 0; q < k; q++ {
				xs[q] = testutil.RandomVector(rng, 500, 10+q*60, true)
				want[q] = mult(mu, xs[q], spmspv.Arithmetic, spmspv.Desc{})
			}
			var wg sync.WaitGroup
			errs := make([]string, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					xfs := testutil.Frontiers(xs)
					ys := make([]*spmspv.Frontier, k)
					for q := range ys {
						ys[q] = mu.NewOutputFrontier()
					}
					for rep := 0; rep < 15; rep++ {
						mu.MultBatch(xfs, ys, spmspv.Arithmetic, spmspv.Desc{})
						for q := range ys {
							if !ys[q].List().EqualValues(want[q], 1e-9) {
								errs[g] = "batch result mismatch under concurrency"
								return
							}
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
		})
	}
}

// TestMultiplyFrontierInto checks the frontier path end to end: one
// frontier fed to a list-preferring and a bitmap-preferring engine
// produces identical results, and the bitmap is built exactly once.
func TestMultiplyFrontierInto(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := testutil.RandomCSC(rng, 300, 300, 4)
	x := testutil.RandomVector(rng, 300, 60, true)
	fr := spmspv.NewFrontier(x)

	bucket := newMult(t, a, spmspv.Bucket, spmspv.Options{Threads: 2, SortOutput: true})
	gm := newMult(t, a, spmspv.GraphMat, spmspv.Options{Threads: 2})
	want := mult(bucket, x, spmspv.Arithmetic, spmspv.Desc{})

	y := spmspv.NewVector(0, 0)
	yf := spmspv.NewFrontier(y)
	list := spmspv.Desc{Output: spmspv.OutputList}
	bucket.Mult(fr, yf, spmspv.Arithmetic, list)
	if !y.EqualValues(want, 1e-9) {
		t.Error("bucket frontier multiply differs")
	}

	sparse.ResetFrontierConversions()
	gm.Mult(fr, yf, spmspv.Arithmetic, list)
	gm.Mult(fr, yf, spmspv.Arithmetic, list) // second call: bitmap shared
	if !y.EqualValues(want, 1e-9) {
		t.Error("GraphMat frontier multiply differs")
	}
	if conv, _ := sparse.FrontierConversions(); conv != 1 {
		t.Errorf("two GraphMat calls on one frontier converted %d times, want 1", conv)
	}
	if c := gm.Counters(); c.FrontierConversions != 1 {
		t.Errorf("engine counters report %d conversions, want 1", c.FrontierConversions)
	}
}

// TestMultiBFSFacade runs the facade's multi-source BFS against
// per-source BFS on every engine with a native batch path.
func TestMultiBFSFacade(t *testing.T) {
	a := spmspv.RMAT(spmspv.DefaultRMAT(9), 6)
	sources := []spmspv.Index{0, 7, a.NumCols / 2}
	for _, alg := range []spmspv.Algorithm{spmspv.Bucket, spmspv.Hybrid} {
		mu := newMult(t, a, alg,
			spmspv.Options{Threads: 2, SortOutput: true, HybridThreshold: 0.1})
		res := spmspv.MultiBFS(mu, sources)
		for s, src := range sources {
			single := spmspv.BFS(mu, src)
			for v := range res.Levels[s] {
				if res.Levels[s][v] != single.Levels[v] {
					t.Fatalf("%v source %d: level[%d] = %d, want %d",
						alg, src, v, res.Levels[s][v], single.Levels[v])
				}
			}
		}
	}
}
