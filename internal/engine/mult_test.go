// Tests for the descriptor-driven multiply: the programming errors Mult
// and MultBatch refuse, and accumulate calls from concurrent callers on
// engines of different output dimensions, which share one scratch pool.
package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"spmspv/internal/baselines"
	_ "spmspv/internal/core"
	"spmspv/internal/engine"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

// TestMultPanics pins the descriptor and argument mismatches Mult and
// MultBatch panic on instead of running: each would hand back a product
// other than the one the caller asked for.
func TestMultPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := testutil.RandomCSC(rng, 30, 20, 3)
	e, err := engine.New(a, engine.Bucket, engine.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	xs := testutil.Frontiers([]*sparse.SpVec{testutil.RandomVector(rng, 20, 5, true), testutil.RandomVector(rng, 20, 5, true)})
	ys := []*sparse.Frontier{sparse.NewOutputFrontier(30), sparse.NewOutputFrontier(30)}
	masks := []*sparse.BitVec{sparse.NewBitVec(30)}
	sr := semiring.Arithmetic
	cases := []struct {
		name, want string
		call       func()
	}{
		{"mult-masks", "Mult with Desc.Masks", func() { engine.Mult(e, xs[0], ys[0], sr, engine.Desc{Masks: masks}) }},
		{"batch-outputs", "2 inputs but 1 outputs", func() { engine.MultBatch(e, xs, ys[:1], sr, engine.Desc{}) }},
		{"batch-width", "2 inputs but Desc.BatchWidth 3", func() { engine.MultBatch(e, xs, ys, sr, engine.Desc{BatchWidth: 3}) }},
		{"batch-masks", "2 inputs but 1 masks", func() { engine.MultBatch(e, xs, ys, sr, engine.Desc{Masks: masks}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Errorf("panic %q, want one naming %q", msg, tc.want)
				}
			}()
			tc.call()
		})
	}
}

// TestMultAccumConcurrent runs accumulate calls, single and batched,
// masked and not, from one goroutine per engine at once, each engine
// over a matrix of its own row count. Every result must equal the
// reference product ⊕ the output's prior contents exactly (min-plus
// adds exactly in any order). Run under -race, it also checks the
// shared accumulate scratch pool.
func TestMultAccumConcurrent(t *testing.T) {
	algs := []engine.Algorithm{engine.Bucket, engine.CombBLASSPA, engine.GraphMat, engine.SortBased}
	rows := []sparse.Index{17, 64, 150, 333}
	const cols, rounds = 50, 30
	sr := semiring.MinPlus
	var wg sync.WaitGroup
	for g, alg := range algs {
		rng := rand.New(rand.NewSource(int64(g)))
		a := testutil.RandomCSC(rng, rows[g], cols, 3)
		e, err := engine.New(a, alg, engine.Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				d := engine.Desc{Accum: true}
				if r%2 == 1 {
					d.Mask = sparse.NewBitVec(a.NumRows)
					d.Mask.SetFrom(testutil.RandomVector(rng, a.NumRows, int(a.NumRows)/2, true))
					d.Complement = r%4 == 3
				}
				xs := []*sparse.SpVec{testutil.RandomVector(rng, cols, 8, true), testutil.RandomVector(rng, cols, 8, true)}
				priors := []*sparse.SpVec{testutil.RandomVector(rng, a.NumRows, 6, true), testutil.RandomVector(rng, a.NumRows, 6, true)}
				ys := []*sparse.Frontier{sparse.NewFrontier(priors[0].Clone()), sparse.NewFrontier(priors[1].Clone())}
				if r%3 == 0 {
					engine.MultBatch(e, testutil.Frontiers(xs), ys, sr, d)
				} else {
					engine.Mult(e, sparse.NewFrontier(xs[0]), ys[0], sr, d)
					engine.Mult(e, sparse.NewFrontier(xs[1]), ys[1], sr, d)
				}
				for q := range xs {
					want := baselines.Reference(a, xs[q], sr)
					if d.Mask != nil {
						sparse.FilterMaskInPlace(want, d.Mask, d.Complement)
					}
					want = sparse.EwiseAdd(want, priors[q], sr.Add)
					if err := sameEntries(ys[q].List(), want); err != nil {
						t.Errorf("%v, %d rows, round %d, slot %d: %v", alg, a.NumRows, r, q, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// sameEntries reports how got differs from want in dimension or in any
// entry's index or value bits, in whatever order each lists them.
func sameEntries(got, want *sparse.SpVec) error {
	if got.N != want.N || got.NNZ() != want.NNZ() {
		return fmt.Errorf("n=%d nnz=%d, want n=%d nnz=%d", got.N, got.NNZ(), want.N, want.NNZ())
	}
	vals := make(map[sparse.Index]uint64, want.NNZ())
	for k, i := range want.Ind {
		vals[i] = math.Float64bits(want.Val[k])
	}
	for k, i := range got.Ind {
		if bits, ok := vals[i]; !ok || bits != math.Float64bits(got.Val[k]) {
			return fmt.Errorf("entry (%d, %v) not in the reference", i, got.Val[k])
		}
		delete(vals, i)
	}
	return nil
}
