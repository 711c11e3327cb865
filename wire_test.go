// Tests for the wire-ready Request/Response contract: JSON round
// trips, validation, and in-process execution through Multiplier.Do.
package spmspv_test

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	spmspv "spmspv"
	"spmspv/internal/testutil"
)

func wireMultiplier(t *testing.T) (*spmspv.Multiplier, *spmspv.Matrix, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	a := testutil.RandomCSC(rng, 220, 180, 4)
	mu, err := spmspv.NewMultiplier(a, spmspv.WithEngineOptions(engineOptions(2)))
	if err != nil {
		t.Fatal(err)
	}
	return mu, a, rng
}

// TestRequestDoSingle executes a JSON-decoded single request and
// checks the result against Mult with the same descriptor.
func TestRequestDoSingle(t *testing.T) {
	mu, a, rng := wireMultiplier(t)
	x := testutil.RandomVector(rng, a.NumCols, 50, true)
	mask := randomMask(rng, a.NumRows, 0.5)

	req := &spmspv.Request{
		Matrix: "test-matrix",
		X:      x,
		Desc:   spmspv.Desc{Mask: mask, Complement: true, Semiring: "arithmetic"},
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := spmspv.DecodeRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := mu.Do(decoded)
	if err != nil {
		t.Fatal(err)
	}
	want := maskedOracle(a, x, spmspv.Arithmetic, mask, true)
	if resp.Y == nil || !resp.Y.EqualValues(want, 1e-9) {
		t.Fatal("wire request result diverged from oracle")
	}
	if resp.OutputRep == "" {
		t.Fatal("response missing output representation")
	}
	// The response itself round-trips.
	rdata, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var resp2 spmspv.Response
	if err := json.Unmarshal(rdata, &resp2); err != nil {
		t.Fatal(err)
	}
	if !resp2.Y.EqualValues(want, 1e-9) {
		t.Fatal("response lost precision across JSON")
	}
}

// TestRequestDoBatch executes a batch request with per-slot masks.
func TestRequestDoBatch(t *testing.T) {
	mu, a, rng := wireMultiplier(t)
	const k = 3
	xs := make([]*spmspv.Vector, k)
	masks := make([]*spmspv.BitVector, k)
	for q := range xs {
		xs[q] = testutil.RandomVector(rng, a.NumCols, 10+q*40, true)
		if q != 1 { // slot 1 unmasked: mixed batches are legal
			masks[q] = randomMask(rng, a.NumRows, 0.4)
		}
	}
	req := &spmspv.Request{
		Xs:   xs,
		Desc: spmspv.Desc{Masks: masks, Complement: true, BatchWidth: k, Semiring: "bfs"},
	}
	resp, err := mu.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Ys) != k {
		t.Fatalf("batch response has %d outputs, want %d", len(resp.Ys), k)
	}
	for q := range xs {
		want := baselinesReference(a, xs[q], spmspv.MinSelect2nd, masks[q], true)
		if !resp.Ys[q].EqualValues(want, 1e-9) {
			t.Fatalf("batch slot %d diverged from oracle", q)
		}
	}
}

// baselinesReference is descOracle without an accumulator, tolerating a
// nil mask.
func baselinesReference(a *spmspv.Matrix, x *spmspv.Vector, sr spmspv.Semiring, mask *spmspv.BitVector, complement bool) *spmspv.Vector {
	return descOracle(a, x, sr, mask, complement, nil)
}

// TestRequestDoTranspose runs a transposed (left-multiplication)
// request; the input dimension flips to the row count.
func TestRequestDoTranspose(t *testing.T) {
	mu, a, rng := wireMultiplier(t)
	x := testutil.RandomVector(rng, a.NumRows, 30, true)
	resp, err := mu.Do(&spmspv.Request{
		X:    x,
		Desc: spmspv.Desc{Transpose: true, Semiring: "arithmetic"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := descOracle(a.Transpose(), x, spmspv.Arithmetic, nil, false, nil)
	if !resp.Y.EqualValues(want, 1e-9) {
		t.Fatal("transposed wire request diverged from the explicit-transpose oracle")
	}
}

// TestRequestValidation pins the error contract: every malformed
// request comes back as an error naming the problem, never a panic.
// TestRequestDoPoolsInputBitmaps pins that Do wraps request vectors in
// the multiplier's pooled input frontiers. GraphMat reads every input
// through its O(n) bitmap, so repeated batched requests must reuse
// pooled bitmaps rather than allocate one per slot per request, in
// both directions. The bound is half that per-slot cost, which leaves
// room for the pooled frontiers sync.Pool drops.
func TestRequestDoPoolsInputBitmaps(t *testing.T) {
	const n, slots, reps = 1 << 14, 8, 16
	rng := rand.New(rand.NewSource(67))
	a := testutil.RandomCSC(rng, n, n, 2)
	mu, err := spmspv.NewMultiplier(a, spmspv.WithAlgorithm(spmspv.GraphMat), spmspv.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, transpose := range []bool{false, true} {
		req := &spmspv.Request{
			Xs:   make([]*spmspv.Vector, slots),
			Desc: spmspv.Desc{Semiring: "arithmetic", Transpose: transpose},
		}
		for q := range req.Xs {
			req.Xs[q] = testutil.RandomVector(rng, n, 4, true)
		}
		do := func() {
			if _, err := mu.Do(req); err != nil {
				t.Fatal(err)
			}
		}
		do() // fills the pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < reps; r++ {
			do()
		}
		runtime.ReadMemStats(&after)
		perReq := (after.TotalAlloc - before.TotalAlloc) / reps
		if bound := uint64(slots / 2 * 8 * n); perReq > bound {
			t.Errorf("transpose=%v: %d bytes allocated per %d-slot request, want ≤ %d (input bitmaps not pooled)",
				transpose, perReq, slots, bound)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	mu, a, rng := wireMultiplier(t)
	good := testutil.RandomVector(rng, a.NumCols, 10, true)
	cases := []struct {
		name string
		req  *spmspv.Request
		want string
	}{
		{"nil", nil, "nil request"},
		{"neither x nor xs", &spmspv.Request{Desc: spmspv.Desc{Semiring: "arithmetic"}}, "exactly one"},
		{"both x and xs", &spmspv.Request{X: good, Xs: []*spmspv.Vector{good}, Desc: spmspv.Desc{Semiring: "arithmetic"}}, "exactly one"},
		{"no semiring", &spmspv.Request{X: good}, "semiring"},
		{"unknown semiring", &spmspv.Request{X: good, Desc: spmspv.Desc{Semiring: "nope"}}, "unknown semiring"},
		{"dimension mismatch", &spmspv.Request{X: testutil.RandomVector(rng, 7, 3, true), Desc: spmspv.Desc{Semiring: "arithmetic"}}, "dimension"},
		{"complement without mask", &spmspv.Request{X: good, Desc: spmspv.Desc{Complement: true, Semiring: "arithmetic"}}, "Complement"},
		{"short mask", &spmspv.Request{X: good, Desc: spmspv.Desc{Mask: spmspv.NewBitVector(3), Semiring: "arithmetic"}}, "mask"},
		{"batch width mismatch", &spmspv.Request{Xs: []*spmspv.Vector{good}, Desc: spmspv.Desc{BatchWidth: 5, Semiring: "arithmetic"}}, "batch_width"},
		{"single with per-slot masks", &spmspv.Request{X: good, Desc: spmspv.Desc{Masks: []*spmspv.BitVector{spmspv.NewBitVector(a.NumRows)}, Semiring: "arithmetic"}}, "per-slot masks"},
	}
	for _, c := range cases {
		_, err := mu.Do(c.req)
		if err == nil {
			t.Fatalf("%s: Do accepted a malformed request", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestRequestValidateRejectsBatchAccum is the regression test for the
// missing validation rule: a batch request combining desc.accumulate
// with xs has no native engine path and no way to ship the
// accumulator state, so Validate must reject it — as an error, before
// anything executes.
func TestRequestValidateRejectsBatchAccum(t *testing.T) {
	mu, a, rng := wireMultiplier(t)
	req := &spmspv.Request{
		Xs: []*spmspv.Vector{
			testutil.RandomVector(rng, a.NumCols, 10, true),
			testutil.RandomVector(rng, a.NumCols, 10, true),
		},
		Desc: spmspv.Desc{Accum: true, Semiring: "arithmetic"},
	}
	if err := req.Validate(a.NumRows, a.NumCols); err == nil {
		t.Fatal("Validate accepted accumulate + xs")
	} else if !strings.Contains(err.Error(), "accumulate") {
		t.Fatalf("error %q does not name the accumulate rule", err)
	}
	if _, err := mu.Do(req); err == nil {
		t.Fatal("Do accepted accumulate + xs")
	}
	// Single accumulate requests remain legal (the wire accumulator is
	// the empty output, i.e. a plain multiply — still well-defined).
	single := &spmspv.Request{
		X:    testutil.RandomVector(rng, a.NumCols, 10, true),
		Desc: spmspv.Desc{Accum: true, Semiring: "arithmetic"},
	}
	if _, err := mu.Do(single); err != nil {
		t.Fatalf("single accumulate request rejected: %v", err)
	}
}

// TestRequestValidateBatchLabels pins that Validate names a failing
// batch slot, and that a batch that passes costs no allocation per
// slot: the labels are formatted only for an error.
func TestRequestValidateBatchLabels(t *testing.T) {
	_, a, rng := wireMultiplier(t)
	const slots = 8
	req := &spmspv.Request{
		Xs:   make([]*spmspv.Vector, slots),
		Desc: spmspv.Desc{Semiring: "arithmetic", Masks: make([]*spmspv.BitVector, slots)},
	}
	for q := range req.Xs {
		req.Xs[q] = testutil.RandomVector(rng, a.NumCols, 10, true)
		req.Desc.Masks[q] = spmspv.NewBitVector(a.NumRows)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := req.Validate(a.NumRows, a.NumCols); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("validating a %d-slot batch allocated %v times, want 0", slots, allocs)
	}

	x3, mask5 := req.Xs[3], req.Desc.Masks[5]
	req.Xs[3] = nil
	if err := req.Validate(a.NumRows, a.NumCols); err == nil || !strings.Contains(err.Error(), "nil xs[3]") {
		t.Errorf("nil slot 3: %v, want an error naming xs[3]", err)
	}
	req.Xs[3] = testutil.RandomVector(rng, a.NumCols+1, 10, true)
	if err := req.Validate(a.NumRows, a.NumCols); err == nil || !strings.Contains(err.Error(), "xs[3] has dimension") {
		t.Errorf("slot 3 of the wrong dimension: %v, want an error naming xs[3]", err)
	}
	req.Xs[3] = x3
	req.Desc.Masks[5] = spmspv.NewBitVector(3)
	if err := req.Validate(a.NumRows, a.NumCols); err == nil || !strings.Contains(err.Error(), "masks[5] has dimension") {
		t.Errorf("short mask 5: %v, want an error naming masks[5]", err)
	}
	req.Desc.Masks[5] = mask5
	if err := req.Validate(a.NumRows, a.NumCols); err != nil {
		t.Errorf("restored batch: %v", err)
	}
}

// TestRequestDoBitmapResponse pins the bitmap wire form: a request
// whose descriptor asks for OutputBitmap is answered with YBits (the
// sparse ind/val BitVector encoding), OutputRep "bitmap", and the
// payload round-trips through JSON carrying exactly the list-form
// result's support and values.
func TestRequestDoBitmapResponse(t *testing.T) {
	mu, a, rng := wireMultiplier(t)
	x := testutil.RandomVector(rng, a.NumCols, 40, true)

	listResp, err := mu.Do(&spmspv.Request{X: x, Desc: spmspv.Desc{Semiring: "arithmetic"}})
	if err != nil {
		t.Fatal(err)
	}
	bitResp, err := mu.Do(&spmspv.Request{
		X:    x,
		Desc: spmspv.Desc{Semiring: "arithmetic", Output: spmspv.OutputBitmap},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bitResp.OutputRep != "bitmap" || bitResp.YBits == nil || bitResp.Y != nil {
		t.Fatalf("bitmap response: rep %q, y_bits %v, y %v",
			bitResp.OutputRep, bitResp.YBits != nil, bitResp.Y != nil)
	}

	data, err := json.Marshal(bitResp)
	if err != nil {
		t.Fatal(err)
	}
	var decoded spmspv.Response
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.YBits.Count() != listResp.Y.NNZ() {
		t.Fatalf("bitmap support %d, list support %d", decoded.YBits.Count(), listResp.Y.NNZ())
	}
	for k, i := range listResp.Y.Ind {
		v, ok := decoded.YBits.Get(i)
		if !ok || v != listResp.Y.Val[k] {
			t.Fatalf("bitmap[%d] = (%g,%v), list has %g", i, v, ok, listResp.Y.Val[k])
		}
	}

	// Batch form: per-slot bitmaps.
	batchResp, err := mu.Do(&spmspv.Request{
		Xs:   []*spmspv.Vector{x, x},
		Desc: spmspv.Desc{Semiring: "arithmetic", Output: spmspv.OutputBitmap},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batchResp.YsBits) != 2 || batchResp.Ys != nil {
		t.Fatalf("batch bitmap response: ys_bits %d, ys %v", len(batchResp.YsBits), batchResp.Ys != nil)
	}
	for q, bits := range batchResp.YsBits {
		if bits.Count() != listResp.Y.NNZ() {
			t.Fatalf("slot %d bitmap support %d, want %d", q, bits.Count(), listResp.Y.NNZ())
		}
	}
}

// TestWireErrorRoundTrip pins the structured wire error form.
func TestWireErrorRoundTrip(t *testing.T) {
	resp := &spmspv.Response{Err: &spmspv.WireError{Code: spmspv.CodeUnknownMatrix, Message: "matrix \"g\" is not registered"}}
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var decoded spmspv.Response
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Err == nil || decoded.Err.Code != spmspv.CodeUnknownMatrix {
		t.Fatalf("decoded error %+v", decoded.Err)
	}
	if !strings.Contains(decoded.Err.Error(), "unknown_matrix") {
		t.Errorf("Error() = %q, want the code in it", decoded.Err.Error())
	}
}
