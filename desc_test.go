// Tests for the descriptor-driven Mult/MultBatch surface: the full
// Desc combination sweep against the sequential oracle for every
// registered engine, the Desc JSON wire contract, and the compiled
// plan cache.
package spmspv_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	spmspv "spmspv"
	"spmspv/internal/baselines"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

// descOracle computes the expected result of one descriptor-driven
// multiply through the sequential reference: plain product, mask
// filter, then accumulate with the output's prior contents.
func descOracle(a *spmspv.Matrix, x *spmspv.Vector, sr spmspv.Semiring,
	mask *spmspv.BitVector, complement bool, accum *spmspv.Vector) *spmspv.Vector {
	want := baselines.Reference(a, x, sr)
	if mask != nil {
		sparse.FilterMaskInPlace(want, mask, complement)
	}
	if accum != nil {
		want = spmspv.EwiseAdd(want, accum, sr.Add)
	}
	return want
}

// TestMultDescMatrix sweeps every descriptor combination — mask ×
// complement × accumulate × output representation × batch width — over
// every registered engine and checks each against the sequential
// oracle. This is the acceptance property of the API redesign: one
// entry point, every capability, every engine, one oracle.
func TestMultDescMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m, n := spmspv.Index(350), spmspv.Index(300)
	a := testutil.RandomCSC(rng, m, n, 4)
	semirings := []spmspv.Semiring{spmspv.Arithmetic, spmspv.MinSelect2nd, spmspv.MinPlus}

	type combo struct {
		masked, complement, accum bool
		output                    spmspv.OutputMode
		batch                     int
	}
	var combos []combo
	for _, masked := range []bool{false, true} {
		for _, complement := range []bool{false, true} {
			if complement && !masked {
				continue
			}
			for _, accum := range []bool{false, true} {
				for _, output := range []spmspv.OutputMode{spmspv.OutputAuto, spmspv.OutputList, spmspv.OutputBitmap} {
					for _, batch := range []int{1, 3} {
						combos = append(combos, combo{masked, complement, accum, output, batch})
					}
				}
			}
		}
	}

	for _, alg := range spmspv.Algorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			mu, err := spmspv.NewMultiplier(a,
				spmspv.WithAlgorithm(alg),
				spmspv.WithEngineOptions(engineOptions(2)))
			if err != nil {
				t.Fatal(err)
			}
			for ci, c := range combos {
				sr := semirings[ci%len(semirings)]
				label := fmt.Sprintf("combo %d (%+v, %s)", ci, c, sr.Name)

				// Per-slot inputs, masks and accumulators; slot 1 of a
				// batch runs unmasked to exercise mixed mask slots.
				xs := make([]*spmspv.Frontier, c.batch)
				ys := make([]*spmspv.Frontier, c.batch)
				masks := make([]*spmspv.BitVector, c.batch)
				wants := make([]*spmspv.Vector, c.batch)
				for q := 0; q < c.batch; q++ {
					f := 1 + (ci*31+q*97)%int(n)
					x := testutil.RandomVector(rng, n, f, q%2 == 0)
					xs[q] = spmspv.NewFrontier(x)
					var mk *spmspv.BitVector
					if c.masked && !(c.batch > 1 && q == 1) {
						mk = randomMask(rng, m, 0.4)
					}
					masks[q] = mk
					var accum *spmspv.Vector
					if c.accum {
						accum = testutil.RandomVector(rng, m, 1+ci%40, true)
						ys[q] = spmspv.NewFrontier(accum.Clone())
					} else {
						ys[q] = spmspv.NewOutputFrontier(m)
					}
					wants[q] = descOracle(a, x, sr, mk, c.complement, accum)
				}

				d := spmspv.Desc{
					Complement: c.complement,
					Accum:      c.accum,
					Output:     c.output,
				}
				if c.batch == 1 {
					d.Mask = masks[0]
					mu.Mult(xs[0], ys[0], sr, d)
				} else {
					if c.masked {
						d.Masks = masks
					}
					d.BatchWidth = c.batch
					mu.MultBatch(xs, ys, sr, d)
				}

				for q := 0; q < c.batch; q++ {
					if !ys[q].List().EqualValues(wants[q], 1e-9) {
						t.Fatalf("%s slot %d: Mult diverged from oracle", label, q)
					}
					switch c.output {
					case spmspv.OutputBitmap:
						if !ys[q].HasBits() {
							t.Fatalf("%s slot %d: OutputBitmap did not materialize the bitmap", label, q)
						}
					case spmspv.OutputList:
						if ys[q].HasBits() {
							t.Fatalf("%s slot %d: OutputList materialized a bitmap", label, q)
						}
					}
					checkBitmapMirrorsList(t, ys[q], label)
				}
			}
		})
	}
}

// TestMultBatchNativeBitmaps pins native batch outputs: a MultBatch
// through a bitmap-emitting engine — natively batched (bucket, hybrid)
// or run through the shared loop helper (GraphMat) — leaves a NATIVELY
// emitted bitmap on every slot — no slot's bitmap is lazy and no output
// conversion ever runs, masked or not.
func TestMultBatchNativeBitmaps(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	m := spmspv.Index(600)
	a := testutil.RandomCSC(rng, m, m, 5)
	for _, alg := range []spmspv.Algorithm{spmspv.Bucket, spmspv.Hybrid, spmspv.GraphMat} {
		for _, masked := range []bool{false, true} {
			mu, err := spmspv.NewMultiplier(a,
				spmspv.WithAlgorithm(alg), spmspv.WithEngineOptions(engineOptions(2)))
			if err != nil {
				t.Fatal(err)
			}
			const k = 4
			xs := make([]*spmspv.Frontier, k)
			ys := make([]*spmspv.Frontier, k)
			d := spmspv.Desc{}
			if masked {
				d.Masks = make([]*spmspv.BitVector, k)
				d.Complement = true
			}
			for q := 0; q < k; q++ {
				// Densities spread across the hybrid switch point so both
				// directions emit into the same batch.
				xs[q] = spmspv.NewFrontier(testutil.RandomVector(rng, m, 5+q*180, true))
				ys[q] = spmspv.NewOutputFrontier(m)
				if masked {
					d.Masks[q] = randomMask(rng, m, 0.3)
				}
			}
			spmspv.ResetFrontierStats()
			mu.MultBatch(xs, ys, spmspv.MinSelect2nd, d)
			for q := 0; q < k; q++ {
				if !ys[q].HasBits() {
					t.Fatalf("%v masked=%v slot %d: batch output bitmap not emitted natively", alg, masked, q)
				}
				checkBitmapMirrorsList(t, ys[q], fmt.Sprintf("%v masked=%v slot %d", alg, masked, q))
			}
			outConv, native := spmspv.FrontierOutputStats()
			if outConv != 0 {
				t.Fatalf("%v masked=%v: %d output conversions, want 0", alg, masked, outConv)
			}
			if native < k {
				t.Fatalf("%v masked=%v: only %d native outputs for a %d-slot batch", alg, masked, native, k)
			}
		}
	}
}

// TestMultTranspose pins Desc.Transpose as the §II-A left
// multiplication: identical to multiplying the explicit transpose.
func TestMultTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := testutil.RandomCSC(rng, 200, 320, 4)
	x := testutil.RandomVector(rng, 200, 60, true)
	mu, err := spmspv.NewMultiplier(a, spmspv.WithEngineOptions(engineOptions(2)))
	if err != nil {
		t.Fatal(err)
	}
	want := baselines.Reference(a.Transpose(), x, spmspv.Arithmetic)

	yf := spmspv.NewOutputFrontier(a.NumCols)
	mu.Mult(spmspv.NewFrontier(x), yf, spmspv.Arithmetic, spmspv.Desc{Transpose: true})
	if !yf.List().EqualValues(want, 1e-9) {
		t.Fatal("Mult with Transpose diverged from explicit-transpose oracle")
	}
}

// TestMultSemiringByName pins the wire rule: a zero semiring argument
// resolves Desc.Semiring by name; an explicit argument wins over a
// conflicting name.
func TestMultSemiringByName(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := testutil.RandomCSC(rng, 150, 150, 3)
	x := testutil.RandomVector(rng, 150, 40, true)
	mu, err := spmspv.NewMultiplier(a, spmspv.WithSortOutput(true))
	if err != nil {
		t.Fatal(err)
	}
	want := baselines.Reference(a, x, spmspv.MinPlus)

	yf := spmspv.NewOutputFrontier(150)
	mu.Mult(spmspv.NewFrontier(x), yf, spmspv.Semiring{}, spmspv.Desc{Semiring: "minplus"})
	if !yf.List().EqualValues(want, 1e-9) {
		t.Fatal("named semiring diverged from MinPlus oracle")
	}
	// Explicit argument wins over the (different) name.
	mu.Mult(spmspv.NewFrontier(x), yf, spmspv.MinPlus, spmspv.Desc{Semiring: "arithmetic"})
	if !yf.List().EqualValues(want, 1e-9) {
		t.Fatal("explicit semiring argument did not win over Desc.Semiring")
	}
}

// TestNewMultiplierErrors pins the constructor contract: an
// unregistered algorithm or a nil matrix is an error, never a silent
// fallback to another engine.
func TestNewMultiplierErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	a := testutil.RandomCSC(rng, 50, 50, 3)
	if _, err := spmspv.NewMultiplier(nil); err == nil {
		t.Fatal("NewMultiplier(nil) did not error")
	}
	if _, err := spmspv.NewMultiplier(a, spmspv.WithAlgorithm(spmspv.Algorithm(999))); err == nil {
		t.Fatal("NewMultiplier with unregistered algorithm did not error")
	}
	mu, err := spmspv.NewMultiplier(a, spmspv.WithAlgorithm(spmspv.Hybrid),
		spmspv.WithThreads(2), spmspv.WithSortOutput(true), spmspv.WithHybridThreshold(0.25))
	if err != nil {
		t.Fatal(err)
	}
	if mu.Algorithm() != spmspv.Hybrid {
		t.Fatalf("constructed %v, want Hybrid", mu.Algorithm())
	}
}

// TestDescJSONRoundTrip pins the wire contract on representative
// descriptors: marshal → unmarshal preserves the descriptor, including
// the mask's support and values.
func TestDescJSONRoundTrip(t *testing.T) {
	mask := spmspv.NewBitVector(40)
	sel := spmspv.NewVector(40, 0)
	sel.Append(3, 1.5)
	sel.Append(17, -2)
	mask.SetFrom(sel)
	descs := []spmspv.Desc{
		{},
		{Complement: true, Mask: mask},
		{Accum: true, Transpose: true, Output: spmspv.OutputBitmap, BatchWidth: 4, Semiring: "bfs"},
		{Masks: []*spmspv.BitVector{mask, nil, mask}, Complement: true, Output: spmspv.OutputList},
	}
	for i, d := range descs {
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("desc %d: marshal: %v", i, err)
		}
		var got spmspv.Desc
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("desc %d: unmarshal: %v", i, err)
		}
		if got.Shape() != d.Shape() {
			t.Fatalf("desc %d: shape changed across JSON: %+v → %+v", i, d.Shape(), got.Shape())
		}
		data2, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("desc %d: re-marshal: %v", i, err)
		}
		if string(data) != string(data2) {
			t.Fatalf("desc %d: JSON not stable across round trip:\n%s\n%s", i, data, data2)
		}
		if d.Mask != nil {
			if got.Mask == nil || got.Mask.Count() != d.Mask.Count() {
				t.Fatalf("desc %d: mask lost in round trip", i)
			}
			if v, ok := got.Mask.Get(3); !ok || v != 1.5 {
				t.Fatalf("desc %d: mask value lost in round trip", i)
			}
		}
	}
}

// FuzzDescJSON round-trips fuzz-constructed descriptors through JSON:
// whatever the fields, marshal → unmarshal → marshal must be stable
// and shape-preserving.
func FuzzDescJSON(f *testing.F) {
	f.Add(false, false, false, 0, 0, "arithmetic", uint16(8), uint64(5))
	f.Add(true, true, true, 2, 7, "bfs", uint16(64), uint64(0xdeadbeef))
	f.Add(true, false, false, 1, 3, "", uint16(0), uint64(0))
	f.Fuzz(func(t *testing.T, complement, accum, transpose bool, output, batchWidth int, srName string, maskN uint16, maskBits uint64) {
		d := spmspv.Desc{
			Complement: complement,
			Accum:      accum,
			Transpose:  transpose,
			Output:     spmspv.OutputMode(((output % 3) + 3) % 3),
			BatchWidth: batchWidth,
			Semiring:   srName,
		}
		if maskN > 0 {
			mask := spmspv.NewBitVector(spmspv.Index(maskN))
			sel := spmspv.NewVector(spmspv.Index(maskN), 0)
			for i := 0; i < 64 && i < int(maskN); i++ {
				if maskBits&(1<<i) != 0 {
					sel.Append(spmspv.Index(i), float64(i))
				}
			}
			mask.SetFrom(sel)
			d.Mask = mask
		}
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var got spmspv.Desc
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal of own output: %v\n%s", err, data)
		}
		if got.Shape() != d.Shape() {
			t.Fatalf("shape changed across JSON: %+v → %+v", d.Shape(), got.Shape())
		}
		// The encoding is stable from the first round trip on (the
		// first marshal may canonicalize, e.g. invalid UTF-8 in the
		// semiring name becomes U+FFFD).
		data2, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		var got2 spmspv.Desc
		if err := json.Unmarshal(data2, &got2); err != nil {
			t.Fatalf("unmarshal of round-tripped output: %v\n%s", err, data2)
		}
		if got2.Shape() != got.Shape() {
			t.Fatalf("shape changed on second round trip: %+v → %+v", got.Shape(), got2.Shape())
		}
		data3, err := json.Marshal(got2)
		if err != nil {
			t.Fatalf("marshal after round trip: %v", err)
		}
		if !reflect.DeepEqual(data2, data3) {
			t.Fatalf("JSON not stable after first round trip:\n%s\n%s", data2, data3)
		}
	})
}
