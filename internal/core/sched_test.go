package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

// schedVariants are the three Step-2 schedules under comparison.
func schedVariants() []struct {
	name  string
	sched Sched
} {
	return []struct {
		name  string
		sched Sched
	}{
		{"static", SchedStatic},
		{"dynamic", SchedDynamic},
		{"stealing", SchedStealing},
	}
}

// TestSchedulesBitIdentical pins the chunk-identity invariant that makes
// work stealing safe to enable: because the (bucket-major, chunk-minor)
// cursor prefix fixes every entry's slot from the chunk id alone —
// never from which worker executes the chunk — the stealing schedule
// must produce outputs BIT-identical (not merely numerically close) to
// the static and dynamic schedules, for single multiplies, masked
// multiplies and the batched path, across thread counts. The grain is
// lowered so every call runs on its configured t.
func TestSchedulesBitIdentical(t *testing.T) {
	withGrain(t, 1)
	rng := rand.New(rand.NewSource(99))
	a := testutil.RandomCSC(rng, 700, 700, 6)
	mask := sparse.NewBitVec(700)
	maskSrc := sparse.NewSpVec(700, 0)
	for v := sparse.Index(0); v < 700; v += 3 {
		maskSrc.Append(v, 1)
	}
	mask.SetFrom(maskSrc)

	xs := make([]*sparse.SpVec, 4)
	for i := range xs {
		xs[i] = testutil.RandomVector(rng, 700, 10+i*120, true)
	}

	for _, threads := range []int{1, 2, 4, 7} {
		for _, x := range xs {
			var ref, refMasked *sparse.SpVec
			var refBatch []*sparse.SpVec
			for _, sv := range schedVariants() {
				opt := Options{Threads: threads, SortOutput: true, MergeSched: sv.sched}
				ws := NewWorkspace(0, 0)
				y := sparse.NewSpVec(0, 0)
				Multiply(a, x, y, semiring.Arithmetic, ws, opt)
				ym := sparse.NewSpVec(0, 0)
				MultiplyMasked(a, x, ym, semiring.Arithmetic, mask, false, ws, opt)
				mu := NewMultiplier(a, opt)
				ys := make([]*sparse.SpVec, len(xs))
				for q := range ys {
					ys[q] = sparse.NewSpVec(0, 0)
				}
				testutil.MultiplyBatch(mu, xs, ys, semiring.Arithmetic)
				label := fmt.Sprintf("t=%d f=%d %s", threads, x.NNZ(), sv.name)
				requireCounts(t, label, a, opt, ws.TotalCounters(), []*sparse.SpVec{x}, []*sparse.SpVec{x})
				requireCounts(t, label+" (batch)", a, opt, mu.Counters(), segmentsOf(a, xs)...)
				if sv.sched == SchedStatic {
					ref, refMasked, refBatch = y, ym, ys
					continue
				}
				requireBitIdentical(t, fmt.Sprintf("t=%d f=%d %s vs static", threads, x.NNZ(), sv.name), ref, y)
				requireBitIdentical(t, fmt.Sprintf("t=%d f=%d %s vs static (masked)", threads, x.NNZ(), sv.name), refMasked, ym)
				for q := range ys {
					requireBitIdentical(t, fmt.Sprintf("t=%d f=%d %s vs static (batch slot %d)", threads, x.NNZ(), sv.name, q), refBatch[q], ys[q])
				}
			}
		}
	}
}

// requireBitIdentical fails unless got equals want in Sorted, Ind and
// the bits of every value, so +0 and −0 differ and a NaN equals itself.
func requireBitIdentical(t *testing.T, label string, want, got *sparse.SpVec) {
	t.Helper()
	if got.NNZ() != want.NNZ() || got.Sorted != want.Sorted {
		t.Fatalf("%s: nnz %d sorted %v, want nnz %d sorted %v", label, got.NNZ(), got.Sorted, want.NNZ(), want.Sorted)
	}
	for k := range want.Ind {
		if got.Ind[k] != want.Ind[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("%s: entry %d = (%d, %x), want (%d, %x)",
				label, k, got.Ind[k], math.Float64bits(got.Val[k]), want.Ind[k], math.Float64bits(want.Val[k]))
		}
	}
}

// TestWorkCountersDeterministicAtFixedThreads pins that the
// deterministic work counters — everything Work() sums, plus the
// claims+steals total — are identical across repeated runs at a fixed
// thread count under every schedule, even though which worker claims
// which chunk (and hence the claims/steals split and idle time) is
// scheduling-dependent. The grain is lowered so t=4 runs on 4 threads.
func TestWorkCountersDeterministicAtFixedThreads(t *testing.T) {
	withGrain(t, 1)
	rng := rand.New(rand.NewSource(5))
	a := testutil.RandomCSC(rng, 800, 800, 5)
	x := testutil.RandomVector(rng, 800, 150, true)

	for _, sv := range schedVariants() {
		for _, threads := range []int{1, 4} {
			opt := Options{Threads: threads, SortOutput: true, MergeSched: sv.sched}
			type snapshot struct {
				work         int64
				claimsPlus   int64
				xs, mt, bw   int64
				spaI, spaU   int64
				sorted, outW int64
			}
			take := func() snapshot {
				mu := NewMultiplier(a, opt)
				testutil.Multiply(mu, x, sparse.NewSpVec(0, 0), semiring.Arithmetic)
				c := mu.Counters()
				requireCounts(t, fmt.Sprintf("%s t=%d", sv.name, threads), a, opt, c, []*sparse.SpVec{x})
				return snapshot{
					work:       c.Work(),
					claimsPlus: c.ChunkClaims + c.Steals,
					xs:         c.XScanned, mt: c.MatrixTouched, bw: c.BucketWrites,
					spaI: c.SPAInit, spaU: c.SPAUpdates,
					sorted: c.SortedElems, outW: c.OutputWritten,
				}
			}
			first := take()
			for run := 1; run < 4; run++ {
				if got := take(); got != first {
					t.Fatalf("%s t=%d: run %d counters %+v differ from first run %+v",
						sv.name, threads, run, got, first)
				}
			}
		}
	}
}
