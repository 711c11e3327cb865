package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func frontierVec(n Index, inds ...Index) *SpVec {
	v := NewSpVec(n, len(inds))
	for k, i := range inds {
		v.Append(i, float64(k+1))
	}
	return v
}

func TestFrontierLazyBitmap(t *testing.T) {
	x := frontierVec(100, 3, 17, 64)
	f := NewFrontier(x)
	if f.N() != 100 || f.NNZ() != 3 {
		t.Fatalf("dims: n=%d nnz=%d", f.N(), f.NNZ())
	}
	if f.List() != x {
		t.Error("List should return the wrapped vector")
	}
	if f.HasBits() {
		t.Error("bitmap materialized before first demand")
	}

	before, _ := FrontierConversions()
	if !f.Materialize() {
		t.Error("first Materialize should convert")
	}
	if f.Materialize() {
		t.Error("second Materialize should be free")
	}
	after, entries := FrontierConversions()
	if after != before+1 {
		t.Errorf("conversions %d → %d, want one increment", before, after)
	}
	if entries < 3 {
		t.Errorf("converted entries = %d, want ≥ 3", entries)
	}

	bits := f.Bits()
	if bits.Count() != 3 || !bits.Test(17) || bits.Test(16) {
		t.Errorf("bitmap content wrong: count=%d", bits.Count())
	}
	if v, ok := bits.Get(64); !ok || v != 3 {
		t.Errorf("bits[64] = %v,%v want 3,true", v, ok)
	}
}

func TestFrontierSetListInvalidatesBits(t *testing.T) {
	f := NewFrontier(frontierVec(50, 1, 2, 3))
	f.Bits()
	f.SetList(frontierVec(50, 40))
	if f.HasBits() {
		t.Error("SetList should drop the stale bitmap")
	}
	bits := f.Bits()
	if bits.Count() != 1 || !bits.Test(40) || bits.Test(1) {
		t.Error("bitmap not rebuilt for the new list")
	}
}

func TestFrontierPoolReuseAndClearing(t *testing.T) {
	p := NewFrontierPool(64)
	f := p.Wrap(frontierVec(64, 5, 9))
	bits := f.Bits()
	if bits.Count() != 2 {
		t.Fatalf("count = %d", bits.Count())
	}
	f.Release()

	// The recycled frontier must come back with an empty bitmap even
	// though no O(n) wipe ever runs.
	g := p.Wrap(frontierVec(64, 33))
	gb := g.Bits()
	if gb.Test(5) || gb.Test(9) || gb.Count() != 1 || !gb.Test(33) {
		t.Error("recycled bitmap still holds previous frontier's bits")
	}
	g.Release()

	// NewFrontier-built frontiers are pool-less; Release is a no-op.
	h := NewFrontier(frontierVec(64, 1))
	h.Release()
	if h.List() == nil {
		t.Error("Release on an unpooled frontier must not tear it down")
	}

	defer func() {
		if recover() == nil {
			t.Error("Wrap with mismatched dimension should panic")
		}
	}()
	p.Wrap(frontierVec(100, 1))
}

// TestFrontierConcurrentMaterialize shares ONE unmaterialized
// frontier across goroutines (the documented cross-engine sharing
// pattern): exactly one conversion runs and every reader sees the
// complete bitmap. Meaningful under -race.
func TestFrontierConcurrentMaterialize(t *testing.T) {
	x := frontierVec(512, 7, 130, 400)
	f := NewFrontier(x)
	var converted int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if f.Materialize() {
				atomic.AddInt64(&converted, 1)
			}
			bits := f.Bits()
			for _, i := range x.Ind {
				if !bits.Test(i) {
					t.Errorf("bit %d missing after shared materialization", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if converted != 1 {
		t.Errorf("%d goroutines performed the conversion, want exactly 1", converted)
	}
}

func TestFrontierPoolConcurrent(t *testing.T) {
	p := NewFrontierPool(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				x := frontierVec(256, Index(g), Index(g+10), Index((g*37+rep)%256))
				f := p.Wrap(x)
				bits := f.Bits()
				for _, i := range x.Ind {
					if !bits.Test(i) {
						t.Errorf("bit %d missing", i)
						break
					}
				}
				f.Release()
			}
		}(g)
	}
	wg.Wait()
}

// TestFrontierUnionInPlaceMatchesEwiseAdd is the property test of the
// in-place accumulator: on random sorted accumulators, a chain of
// unions with sorted, unsorted, duplicate-laden, colliding and empty
// operands must leave exactly EwiseAdd's result (indices, value bits
// and the Sorted flag), keep the bitmap mirroring the list, and never
// touch the operand.
func TestFrontierUnionInPlaceMatchesEwiseAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// val spans magnitudes so that a wrong addition order changes bits.
	val := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6)) }
	subset := func(n Index, density float64) []Index {
		var ind []Index
		for i := Index(0); i < n; i++ {
			if rng.Float64() < density {
				ind = append(ind, i)
			}
		}
		return ind
	}
	vec := func(n Index, ind []Index) *SpVec {
		v := NewSpVec(n, len(ind))
		for _, i := range ind {
			v.Append(i, val())
		}
		return v
	}
	operands := map[string]func(n Index, acc *SpVec) *SpVec{
		"sorted": func(n Index, _ *SpVec) *SpVec { return vec(n, subset(n, rng.Float64())) },
		"unsorted": func(n Index, _ *SpVec) *SpVec {
			ind := subset(n, rng.Float64())
			rng.Shuffle(len(ind), func(a, b int) { ind[a], ind[b] = ind[b], ind[a] })
			return vec(n, ind)
		},
		"duplicates": func(n Index, _ *SpVec) *SpVec {
			ind := make([]Index, rng.Intn(2*int(n)+1))
			for k := range ind {
				ind[k] = Index(rng.Intn(int(n)))
			}
			return vec(n, ind)
		},
		"colliding": func(n Index, acc *SpVec) *SpVec {
			var ind []Index
			for _, i := range acc.Ind {
				if rng.Intn(3) > 0 {
					ind = append(ind, i)
				}
			}
			if rng.Intn(2) == 0 {
				rng.Shuffle(len(ind), func(a, b int) { ind[a], ind[b] = ind[b], ind[a] })
			}
			return vec(n, ind)
		},
		"empty": func(n Index, _ *SpVec) *SpVec { return NewSpVec(n, 0) },
	}
	for name, operand := range operands {
		for trial := 0; trial < 60; trial++ {
			n := Index(1 + rng.Intn(300))
			want := vec(n, subset(n, rng.Float64()))
			f := NewFrontier(want.Clone())
			if rng.Intn(2) == 0 {
				f.Materialize()
			}
			for step := 0; step < 3; step++ {
				y := operand(n, want)
				y0 := y.Clone()
				want = EwiseAdd(want, y, nil)
				f.UnionInPlace(y)
				got := f.List()
				label := fmt.Sprintf("%s trial %d step %d", name, trial, step)
				if len(got.Ind) != len(want.Ind) || got.Sorted != want.Sorted {
					t.Fatalf("%s: nnz %d sorted %v, want nnz %d sorted %v",
						label, len(got.Ind), got.Sorted, len(want.Ind), want.Sorted)
				}
				for k := range want.Ind {
					if got.Ind[k] != want.Ind[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
						t.Fatalf("%s: entry %d is (%d, %v), want (%d, %v)",
							label, k, got.Ind[k], got.Val[k], want.Ind[k], want.Val[k])
					}
				}
				if !f.HasBits() {
					t.Fatalf("%s: bitmap not kept", label)
				}
				b := f.Bits()
				if b.Count() != got.NNZ() {
					t.Fatalf("%s: bitmap counts %d bits for %d entries", label, b.Count(), got.NNZ())
				}
				for k, i := range got.Ind {
					if !b.Test(i) || math.Float64bits(b.Val[i]) != math.Float64bits(got.Val[k]) {
						t.Fatalf("%s: bitmap entry %d does not mirror the list", label, i)
					}
				}
				if len(y.Ind) != len(y0.Ind) || y.Sorted != y0.Sorted {
					t.Fatalf("%s: operand changed shape", label)
				}
				for k := range y0.Ind {
					if y.Ind[k] != y0.Ind[k] || math.Float64bits(y.Val[k]) != math.Float64bits(y0.Val[k]) {
						t.Fatalf("%s: operand entry %d changed", label, k)
					}
				}
			}
		}
	}
}
