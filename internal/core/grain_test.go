package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"spmspv/internal/baselines"
	"spmspv/internal/graphgen"
	"spmspv/internal/perf"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

// withGrain sets the grain for one test and restores it when the test
// ends. A test that calls it must not call t.Parallel.
func withGrain(tb testing.TB, g int64) {
	old := grain
	grain = g
	tb.Cleanup(func() { grain = old })
}

// growX returns a sorted x over the columns of a taken in perm
// order until their nonzeros reach flops.
func growX(a *sparse.CSC, perm []int, flops int64) *sparse.SpVec {
	var ind []sparse.Index
	var w int64
	for _, j := range perm {
		if w >= flops {
			break
		}
		ind = append(ind, sparse.Index(j))
		w += a.ColLen(sparse.Index(j))
	}
	slices.Sort(ind)
	x := sparse.NewSpVec(a.NumCols, len(ind))
	for _, j := range ind {
		x.Append(j, 1)
	}
	return x
}

// BenchmarkGrain is the crossover sweep that sets grain: one sorted
// multiply on ER 16 (d = 8) and rmat-ljournal 16, with x grown over
// random columns until its flops reach 2^7 … 2^17, at 1, 2 and 4
// threads. The sweep lowers the grain to 1, so every t > 1 splits every
// call; the grain belongs at the flops where t=2 starts to win, and the
// t=4 rows show whether each further thread needs the same flops (on a
// host with fewer than 4 CPUs they measure oversubscription instead).
func BenchmarkGrain(b *testing.B) {
	withGrain(b, 1)
	lj, _ := graphgen.FindProblem("rmat-ljournal")
	mats := []struct {
		name string
		a    *sparse.CSC
	}{
		{"er16", graphgen.ErdosRenyi(1<<16, 8, 42)},
		{"rmat-ljournal16", lj.Build(16)},
	}
	for _, mt := range mats {
		a := mt.a
		perm := rand.New(rand.NewSource(1)).Perm(int(a.NumCols))
		ws := NewWorkspace(a.NumRows, 0)
		y := sparse.NewSpVec(0, 0)
		for e := 7; e <= 17; e++ {
			x := growX(a, perm, 1<<e)
			for _, threads := range []int{1, 2, 4} {
				opt := Options{Threads: threads, SortOutput: true}
				b.Run(fmt.Sprintf("%s/flops=%d/t=%d", mt.name, 1<<e, threads), func(b *testing.B) {
					Multiply(a, x, y, semiring.Arithmetic, ws, opt)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						Multiply(a, x, y, semiring.Arithmetic, ws, opt)
					}
				})
			}
		}
	}
}

// wantCounts returns the ChunkClaims+Steals and SyncEvents of one
// bucket call over xs that runs on t threads: the geometry fixes both.
// Estimate and Step 1 run stepChunks chunks each and Step 3 one task
// per bucket; Step 2 adds a task per row range under SchedStealing and,
// once it forks, one claim per row range under SchedDynamic.
func wantCounts(a *sparse.CSC, xs []*sparse.SpVec, opt Options, t int) (claims, sync int64) {
	opt = opt.WithDefaults()
	var f int
	for _, x := range xs {
		f += x.NNZ()
	}
	if f == 0 || a.NumRows == 0 {
		return 0, 0
	}
	nb, _ := bucketGeometry(a.NumRows, opt.BucketsPerThread*t)
	claims = int64(2*stepChunks(t, f) + len(xs)*nb)
	switch opt.MergeSched {
	case SchedStealing:
		claims += int64(nb)
	case SchedDynamic:
		if min(t, nb) > 1 {
			sync = int64(nb)
		}
	}
	return claims, sync
}

// fullThreads is the thread count a call over xs reaches with the grain
// at 1: the requested t, clamped to nnz(x) and to the flops.
func fullThreads(a *sparse.CSC, xs []*sparse.SpVec, opt Options) int {
	var f, flops int64
	for _, x := range xs {
		f += int64(x.NNZ())
		flops += frontierWork(a, x)
	}
	return int(max(1, min(int64(opt.WithDefaults().Threads), f, flops)))
}

// requireCounts fails unless c holds exactly the scheduling counts of
// the given calls, each over one batch of frontiers, at the thread count
// each reaches with the grain at 1.
func requireCounts(tb testing.TB, label string, a *sparse.CSC, opt Options, c perf.Counters, calls ...[]*sparse.SpVec) {
	tb.Helper()
	var claims, sync int64
	for _, xs := range calls {
		cl, sy := wantCounts(a, xs, opt, fullThreads(a, xs, opt))
		claims += cl
		sync += sy
	}
	if got := c.ChunkClaims + c.Steals; got != claims || c.SyncEvents != sync {
		tb.Fatalf("%s: claims+steals %d, sync %d; want %d, %d (the configured t was not reached)",
			label, got, c.SyncEvents, claims, sync)
	}
}

// segmentsOf splits a Multiplier batch into the calls it makes.
func segmentsOf(a *sparse.CSC, xs []*sparse.SpVec) [][]*sparse.SpVec {
	var segs [][]*sparse.SpVec
	forBatchSegments(a, xs, func(lo, hi int) { segs = append(segs, xs[lo:hi]) })
	return segs
}

// grainMatrix is a 4096×8192 matrix with random values whose columns
// 0–7 are empty, column 7+r holds r nonzeros for r = 1…7 and every
// later column holds 8, so xOfFlops can hit any flops count exactly.
func grainMatrix(t *testing.T) *sparse.CSC {
	t.Helper()
	const m, n = 4096, 8192
	rng := rand.New(rand.NewSource(3))
	tr := sparse.NewTriples(m, n, 8*n)
	for j := 8; j < n; j++ {
		start := rng.Intn(m)
		for s := 0; s < min(j-7, 8); s++ {
			tr.Append(sparse.Index((start+s*m/8)%m), sparse.Index(j), rng.Float64()+0.5)
		}
	}
	a, err := sparse.NewCSCFromTriples(tr)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// xOfFlops returns a sorted x on grainMatrix with exactly the given
// flops: full columns from column first on, and one short column for
// the remainder.
func xOfFlops(a *sparse.CSC, rng *rand.Rand, first int, flops int64) *sparse.SpVec {
	x := sparse.NewSpVec(a.NumCols, 0)
	if r := flops % 8; r > 0 {
		x.Append(sparse.Index(7+r), rng.Float64()+0.5)
	}
	for j := 0; j < int(flops/8); j++ {
		x.Append(sparse.Index(first+j), rng.Float64()+0.5)
	}
	return x
}

// TestGrainSetsCallThreads pins the per-call thread count: a call runs
// on min(t, nnz(x), ⌈flops/grain⌉) threads, for single calls at flops
// around the grain and for a batch of 8 frontiers, each below the
// grain, whose total crosses it. At every t the sorted outputs —
// plain, masked and complemented — are bit-identical to t = 1 and
// match the reference.
func TestGrainSetsCallThreads(t *testing.T) {
	a := grainMatrix(t)
	rng := rand.New(rand.NewSource(8))
	g := grain
	every3rd := sparse.NewSpVec(a.NumRows, 0)
	for i := sparse.Index(0); i < a.NumRows; i += 3 {
		every3rd.Append(i, 1)
	}
	mask := sparse.NewBitVec(a.NumRows)
	mask.SetFrom(every3rd)

	type grainCase struct {
		name string
		xs   []*sparse.SpVec
		want map[int]int // requested t → threads the call runs on
	}
	cases := []grainCase{
		{"G-1", []*sparse.SpVec{xOfFlops(a, rng, 16, g-1)}, map[int]int{1: 1, 2: 1, 4: 1, 7: 1}},
		{"G", []*sparse.SpVec{xOfFlops(a, rng, 16, g)}, map[int]int{1: 1, 2: 1, 4: 1, 7: 1}},
		{"G+1", []*sparse.SpVec{xOfFlops(a, rng, 16, g+1)}, map[int]int{1: 1, 2: 2, 4: 2, 7: 2}},
		{"3G", []*sparse.SpVec{xOfFlops(a, rng, 16, 3*g)}, map[int]int{1: 1, 2: 2, 4: 3, 7: 3}},
	}
	batch := grainCase{name: "batch of 8 × 3G/8", want: map[int]int{1: 1, 2: 2, 4: 3, 7: 3}}
	for q := 0; q < 8; q++ {
		batch.xs = append(batch.xs, xOfFlops(a, rng, 16+97*q, 3*g/8))
	}
	cases = append(cases, batch)

	for _, tc := range cases {
		if segs := segmentsOf(a, tc.xs); len(segs) != 1 {
			t.Fatalf("%s: batch splits into %d calls, want 1", tc.name, len(segs))
		}
		for _, mk := range []struct {
			name       string
			mask       *sparse.BitVec
			complement bool
		}{{"plain", nil, false}, {"masked", mask, false}, {"complemented", mask, true}} {
			var masks []*sparse.BitVec
			if mk.mask != nil {
				masks = make([]*sparse.BitVec, len(tc.xs))
				for q := range masks {
					masks[q] = mk.mask
				}
			}
			var ref []*sparse.SpVec
			for _, threads := range []int{1, 2, 4, 7} {
				label := fmt.Sprintf("%s %s t=%d", tc.name, mk.name, threads)
				opt := Options{Threads: threads, SortOutput: true}
				mu := NewMultiplier(a, opt)
				ys := make([]*sparse.SpVec, len(tc.xs))
				for q := range ys {
					ys[q] = sparse.NewSpVec(0, 0)
				}
				if len(tc.xs) == 1 {
					mu.Multiply(sparse.NewFrontier(tc.xs[0]), sparse.NewFrontier(ys[0]), semiring.Arithmetic, mk.mask, mk.complement, false)
				} else {
					mu.multiplyBatchLists(tc.xs, ys, semiring.Arithmetic, masks, mk.complement, nil)
				}
				if len(tc.xs) == 1 {
					if got := mu.CallThreads(tc.xs[0]); got != tc.want[threads] {
						t.Fatalf("%s: CallThreads reports %d, want %d", label, got, tc.want[threads])
					}
				}
				claims, sync := wantCounts(a, tc.xs, opt, tc.want[threads])
				if c := mu.Counters(); c.ChunkClaims+c.Steals != claims || c.SyncEvents != sync {
					t.Fatalf("%s: claims+steals %d, sync %d; want %d, %d (%d threads)",
						label, c.ChunkClaims+c.Steals, c.SyncEvents, claims, sync, tc.want[threads])
				}
				for q, x := range tc.xs {
					want := baselines.Reference(a, x, semiring.Arithmetic)
					if mk.mask != nil {
						sparse.FilterMaskInPlace(want, mk.mask, mk.complement)
					}
					if !ys[q].EqualValues(want, 1e-9) {
						t.Fatalf("%s slot %d: differs from the reference", label, q)
					}
				}
				if threads == 1 {
					ref = ys
					continue
				}
				for q := range ys {
					requireBitIdentical(t, fmt.Sprintf("%s slot %d vs t=1", label, q), ref[q], ys[q])
				}
			}
		}
	}
}

// TestGrainEmptyColumns: an x on empty columns only has nonzeros but no
// flops, so it runs on one thread and gives an empty sorted y at every
// t, with sorted output or without.
func TestGrainEmptyColumns(t *testing.T) {
	a := grainMatrix(t)
	x := testutil.VectorWithIndices(a.NumCols, 0, 1, 2, 3, 4, 5, 6, 7)
	for _, threads := range []int{1, 2, 4, 7} {
		for _, sorted := range []bool{false, true} {
			opt := Options{Threads: threads, SortOutput: sorted}
			ws := NewWorkspace(0, 0)
			y := sparse.NewSpVec(0, 0)
			Multiply(a, x, y, semiring.Arithmetic, ws, opt)
			if y.NNZ() != 0 || !y.Sorted || y.N != a.NumRows {
				t.Fatalf("t=%d sorted=%v: got nnz %d, Sorted %v, N %d; want an empty sorted y of %d rows",
					threads, sorted, y.NNZ(), y.Sorted, y.N, a.NumRows)
			}
			claims, sync := wantCounts(a, []*sparse.SpVec{x}, opt, 1)
			if c := ws.TotalCounters(); c.ChunkClaims+c.Steals != claims || c.SyncEvents != sync {
				t.Fatalf("t=%d: claims+steals %d, sync %d; want the one-thread %d, %d",
					threads, c.ChunkClaims+c.Steals, c.SyncEvents, claims, sync)
			}
		}
	}
}
