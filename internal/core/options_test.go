package core

import (
	"testing"

	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Threads < 1 {
		t.Errorf("default threads %d", o.Threads)
	}
	if o.BucketsPerThread != 4 {
		t.Errorf("default buckets/thread = %d, want 4 (paper §III-A)", o.BucketsPerThread)
	}
	o = Options{Threads: 3, BucketsPerThread: 7}.WithDefaults()
	if o.Threads != 3 || o.BucketsPerThread != 7 {
		t.Error("explicit options overridden")
	}
}

func TestThreadClampToNNZX(t *testing.T) {
	// The paper's analysis assumes t ≤ f; with f=2 and 16 requested
	// threads the multiply must still be correct and the per-worker
	// counters beyond the effective t stay untouched. The grain is
	// lowered so nnz(x) is the clamp that binds.
	withGrain(t, 1)
	rng := newRand(5)
	a := testutil.RandomCSC(rng, 300, 300, 4)
	x := testutil.VectorWithIndices(300, 10, 200)
	ws := NewWorkspace(0, 0)
	y := sparse.NewSpVec(0, 0)
	Multiply(a, x, y, semiring.Arithmetic, ws, Options{Threads: 16, SortOutput: true})
	if err := y.Validate(); err != nil {
		t.Fatal(err)
	}
	// Only workers 0 and 1 can have estimate/bucket work.
	for w := 2; w < len(ws.Counters); w++ {
		if ws.Counters[w].XScanned != 0 {
			t.Errorf("worker %d scanned x despite f=2", w)
		}
	}
}

func TestBucketCountNeverExceedsRequested(t *testing.T) {
	// The shift-rounded bucket count must stay within the requested
	// nb = BucketsPerThread·t (the paper's 4t) for a spread of shapes.
	for _, m := range []sparse.Index{1, 2, 5, 63, 64, 65, 1000, 16384, 100000} {
		for _, nbReq := range []int{1, 4, 16, 64} {
			nb, shift := bucketGeometry(m, nbReq)
			if nb > nbReq && m > sparse.Index(nbReq) {
				t.Errorf("m=%d req=%d: nb=%d exceeds request", m, nbReq, nb)
			}
			// Mapping must cover exactly [0, nb).
			maxBucket := int((m - 1) >> shift)
			if m > 0 && maxBucket != nb-1 {
				t.Errorf("m=%d req=%d: max bucket %d != nb-1=%d", m, nbReq, maxBucket, nb-1)
			}
		}
	}
}

func TestSortedInputUnsortedInputSameResult(t *testing.T) {
	rng := newRand(7)
	a := testutil.RandomCSC(rng, 500, 500, 6)
	xs := testutil.RandomVector(rng, 500, 120, true)
	xu := xs.Clone()
	// Reverse the order of entries.
	for i, j := 0, xu.NNZ()-1; i < j; i, j = i+1, j-1 {
		xu.Ind[i], xu.Ind[j] = xu.Ind[j], xu.Ind[i]
		xu.Val[i], xu.Val[j] = xu.Val[j], xu.Val[i]
	}
	xu.Sorted = false

	ws := NewWorkspace(0, 0)
	ys := sparse.NewSpVec(0, 0)
	yu := sparse.NewSpVec(0, 0)
	Multiply(a, xs, ys, semiring.Arithmetic, ws, Options{Threads: 4, SortOutput: true})
	Multiply(a, xu, yu, semiring.Arithmetic, ws, Options{Threads: 4, SortOutput: true})
	if !ys.EqualValues(yu, 1e-12) {
		t.Error("input order changed the result")
	}
	// With SortOutput both outputs are identical element-wise.
	for k := range ys.Ind {
		if ys.Ind[k] != yu.Ind[k] {
			t.Fatal("sorted outputs differ in order")
		}
	}
}

func TestMultiplierAccessors(t *testing.T) {
	rng := newRand(9)
	a := testutil.RandomCSC(rng, 100, 100, 3)
	mu := NewMultiplier(a, Options{Threads: 2})
	if mu.Name() != "SpMSpV-bucket" {
		t.Error("name")
	}
	x := testutil.VectorWithIndices(100, 5)
	y := sparse.NewSpVec(0, 0)
	testutil.Multiply(mu, x, y, semiring.Arithmetic)
	if mu.Counters().Work() == 0 {
		t.Error("no work accumulated")
	}
	if mu.Steps().Total() < 0 {
		t.Error("negative step times")
	}
	mu.ResetCounters()
	if mu.Counters().Work() != 0 {
		t.Error("reset failed")
	}
}
