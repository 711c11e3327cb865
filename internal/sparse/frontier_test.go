package sparse

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"math/rand"
	"slices"
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

	// Second pass: chains of 1–8 unions between reads, so every reader and
	// mutator also meets a list that is behind its bitmap. Reseeded, so
	// the pass does not depend on the first pass's map order.
	rng = rand.New(rand.NewSource(43))
	kinds := slices.Sorted(maps.Keys(operands))
	actions := []string{"List", "Bits", "UpdateValues", "Refine", "SetList", "BeginOutput", "Release"}
	seen := map[string]bool{} // actions taken while a queue was pending
	settled := func(label string, f *Frontier, want *SpVec) {
		t.Helper()
		got := f.List()
		sameBits(t, label, got, want)
		if f.HasBits() {
			b := f.Bits()
			if b.Count() != got.NNZ() || setBits(b) != got.NNZ() {
				t.Fatalf("%s: bitmap counts %d (%d set) for %d entries", label, b.Count(), setBits(b), got.NNZ())
			}
			for k, i := range got.Ind {
				if !b.Test(i) || math.Float64bits(b.Val[i]) != math.Float64bits(got.Val[k]) {
					t.Fatalf("%s: bitmap entry %d does not mirror the list", label, i)
				}
			}
		}
	}
	fill := func(f *Frontier, v *SpVec) { // an engine's output pass
		l := f.BeginOutput()
		l.Reset(v.N)
		for k, i := range v.Ind {
			l.Append(i, v.Val[k])
		}
		native := rng.Intn(2) == 0
		if native {
			f.OutputBits(v.N).SetFrom(l)
		}
		f.FinishOutput(native)
	}
	for trial := 0; trial < 150; trial++ {
		n := Index(1 + rng.Intn(300))
		pool := NewFrontierPool(n)
		want := vec(n, subset(n, rng.Float64()))
		f := pool.GetOutput()
		fill(f, want)
		for read := 0; read < 6; read++ {
			for chain := 1 + rng.Intn(8); chain > 0; chain-- {
				y := operands[kinds[rng.Intn(len(kinds))]](n, want)
				want = EwiseAdd(want, y, nil)
				f.UnionInPlace(y)
			}
			label := fmt.Sprintf("trial %d read %d", trial, read)
			before := FrontierSettledEntries()
			if got := f.NNZ(); got != want.NNZ() {
				t.Fatalf("%s: NNZ %d before any List, want %d", label, got, want.NNZ())
			}
			action := actions[rng.Intn(len(actions))]
			label += " " + action
			if len(f.queue) > 0 {
				seen[action] = true
			}
			switch action {
			case "List":
			case "Bits": // the bitmap alone, before the list settles
				if !f.HasBits() {
					t.Fatalf("%s: accumulator lost its bitmap", label)
				}
				b := f.Bits()
				if b.Count() != want.NNZ() || setBits(b) != want.NNZ() {
					t.Fatalf("%s: bitmap counts %d (%d set), want %d", label, b.Count(), setBits(b), want.NNZ())
				}
				for k, i := range want.Ind {
					if !b.Test(i) || math.Float64bits(b.Val[i]) != math.Float64bits(want.Val[k]) {
						t.Fatalf("%s: bitmap entry %d is not the union's", label, i)
					}
				}
				if FrontierSettledEntries() != before {
					t.Fatalf("%s: NNZ or Bits settled the list", label)
				}
			case "UpdateValues":
				fn := func(i Index, v float64) float64 { return v*0.5 - float64(i) }
				f.UpdateValues(fn)
				for k, i := range want.Ind {
					want.Val[k] = fn(i, want.Val[k])
				}
			case "Refine":
				fn := func(i Index, v float64) (float64, bool) { return v + 1, i%3 != 0 }
				f.Refine(fn)
				kept := NewSpVec(n, 0)
				for k, i := range want.Ind {
					if v, keep := fn(i, want.Val[k]); keep {
						kept.Append(i, v)
					}
				}
				want = kept
			case "SetList":
				want = vec(n, subset(n, rng.Float64()))
				f.SetList(want.Clone())
			case "BeginOutput":
				want = vec(n, subset(n, rng.Float64()))
				fill(f, want)
			case "Release": // the pool hands the frontier out again, erased
				f.Release()
				want = vec(n, subset(n, rng.Float64()))
				wrap := rng.Intn(2) == 0
				if wrap {
					f = pool.Wrap(want.Clone())
				} else {
					f = pool.GetOutput()
				}
				if f.bits != nil && setBits(f.bits) != 0 {
					t.Fatalf("%s: recycled frontier keeps %d stale bits", label, setBits(f.bits))
				}
				if !wrap {
					if f.NNZ() != 0 {
						t.Fatalf("%s: recycled output frontier holds %d entries", label, f.NNZ())
					}
					fill(f, want)
				}
			}
			settled(label, f, want)
			if rng.Intn(2) == 0 {
				f.Materialize()
			}
		}
	}
	for _, action := range actions {
		if !seen[action] {
			t.Errorf("second pass never ran %s on a frontier with queued entries", action)
		}
	}
}

// sameBits fails unless got equals want in Ind, the bits of Val and
// Sorted.
func sameBits(t *testing.T, label string, got, want *SpVec) {
	t.Helper()
	if got.Sorted != want.Sorted || !slices.Equal(got.Ind, want.Ind) {
		t.Fatalf("%s: nnz %d sorted %v, want nnz %d sorted %v, or the indices differ",
			label, got.NNZ(), got.Sorted, want.NNZ(), want.Sorted)
	}
	for k, v := range want.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(v) {
			t.Fatalf("%s: entry %d is (%d, %v), want (%d, %v)", label, k, got.Ind[k], got.Val[k], want.Ind[k], v)
		}
	}
}

// setBits counts the bits actually set in b's words, which the cached
// Count only tallies.
func setBits(b *BitVec) int {
	c := 0
	for _, w := range b.Words {
		c += bits.OnesCount64(w)
	}
	return c
}

// TestFrontierConcurrentSettle shares one accumulator with queued union
// entries across goroutines that call List, NNZ and Bits in different
// orders: exactly one settles, and every reader sees the same settled
// list, count and bitmap. Meaningful under -race.
func TestFrontierConcurrentSettle(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const n = 2048
	rvec := func(nnz int, sorted bool) *SpVec {
		v := NewSpVec(n, nnz)
		for range nnz {
			v.Append(Index(rng.Intn(n)), rng.NormFloat64())
		}
		if sorted {
			v = EwiseAdd(NewSpVec(n, 0), v, nil)
		}
		return v
	}
	for round := 0; round < 20; round++ {
		want := rvec(100, true)
		f := NewFrontier(want.Clone())
		for range 4 {
			y := rvec(200, false)
			want = EwiseAdd(want, y, nil)
			f.UnionInPlace(y)
		}
		if len(f.queue) == 0 {
			t.Fatalf("round %d: no union entries queued", round)
		}
		start := make(chan struct{})
		lists := make([]*SpVec, 8)
		var wg sync.WaitGroup
		for g := range lists {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := range 3 {
					switch (g + k) % 3 {
					case 0:
						lists[g] = f.List()
					case 1:
						if got := f.NNZ(); got != want.NNZ() {
							t.Errorf("round %d goroutine %d: NNZ %d, want %d", round, g, got, want.NNZ())
						}
					case 2:
						if b := f.Bits(); b.Count() != want.NNZ() {
							t.Errorf("round %d goroutine %d: bitmap counts %d, want %d", round, g, b.Count(), want.NNZ())
						}
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		for g, l := range lists {
			if l != lists[0] {
				t.Fatalf("round %d: goroutine %d read a different list", round, g)
			}
			sameBits(t, fmt.Sprintf("round %d goroutine %d", round, g), l, want)
		}
	}
}
