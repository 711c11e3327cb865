// Tests for the HTTP serving surface: the end-to-end BFS through
// Client against an httptest server on every registered engine, the
// request-coalescing batcher's correctness and counters, matrix
// upload/management round trips, and the wire error paths.
package spmspv_test

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	spmspv "spmspv"
	"spmspv/internal/baselines"
	"spmspv/internal/testutil"
)

// serveClient boots an httptest server over a fresh store and returns
// a Client pointed at it plus the server's base URL.
func serveClient(t *testing.T, st *spmspv.Store, opts ...spmspv.ServerOption) (*spmspv.Client, string) {
	t.Helper()
	ts := httptest.NewServer(spmspv.NewServer(st, opts...))
	t.Cleanup(ts.Close)
	return spmspv.NewClient(ts.URL, spmspv.WithHTTPClient(ts.Client())), ts.URL
}

// TestServeBFSEndToEnd uploads a matrix through the Client, runs a
// whole multi-level BFS as ONE program round trip, and compares with
// the in-process BFS — on every registered engine.
func TestServeBFSEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	a := testutil.RandomCSC(rng, 200, 200, 3)
	for _, alg := range spmspv.Algorithms() {
		st := spmspv.NewStore(spmspv.WithAlgorithm(alg), spmspv.WithEngineOptions(engineOptions(2)))
		c, _ := serveClient(t, st)

		stat, err := c.PutMatrix("g", a)
		if err != nil {
			t.Fatalf("%v: PutMatrix: %v", alg, err)
		}
		if stat.Rows != a.NumRows || stat.NNZ != a.NNZ() {
			t.Fatalf("%v: uploaded stat %+v", alg, stat)
		}

		mu, err := st.Load("g")
		if err != nil {
			t.Fatal(err)
		}
		want := spmspv.BFS(mu, 5)
		got, err := c.BFS("g", 5)
		if err != nil {
			t.Fatalf("%v: client BFS: %v", alg, err)
		}
		compareBFS(t, alg.String(), got, want)
	}
}

// TestServeMatrixManagement covers upload, list, get, delete and their
// error envelopes over HTTP.
func TestServeMatrixManagement(t *testing.T) {
	st, a, _ := storeWithMatrix(t, "seed")
	c, _ := serveClient(t, st)

	if _, err := c.PutMatrix("extra", a); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Matrices()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 || stats[0].Name != "extra" || stats[1].Name != "seed" {
		t.Fatalf("Matrices = %+v", stats)
	}
	if _, err := c.Matrix("seed"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteMatrix("extra"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteMatrix("extra"); err == nil {
		t.Error("second delete succeeded")
	} else if we := spmspv.AsWireError(err); we.Code != spmspv.CodeUnknownMatrix {
		t.Errorf("second delete: code %q", we.Code)
	}
	if _, err := c.Matrix("gone"); err == nil {
		t.Error("Matrix on unknown name succeeded")
	}
}

// TestServeMultAndErrors covers the single-multiply endpoint: results
// match the in-process Do, and each failure class carries its wire
// code end to end.
func TestServeMultAndErrors(t *testing.T) {
	st, a, rng := storeWithMatrix(t, "g")
	c, baseURL := serveClient(t, st)
	x := testutil.RandomVector(rng, a.NumCols, 30, true)

	req := &spmspv.Request{Matrix: "g", X: x, Desc: spmspv.Desc{Semiring: "arithmetic"}}
	got, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	want := baselines.Reference(a, x, spmspv.Arithmetic)
	if !got.Y.EqualValues(want, 1e-9) {
		t.Error("served multiply differs from reference")
	}
	if got.OutputRep != "list" {
		t.Errorf("OutputRep = %q, want list", got.OutputRep)
	}

	cases := map[string]struct {
		req  *spmspv.Request
		code string
	}{
		"unknownMatrix": {&spmspv.Request{Matrix: "nope", X: x, Desc: spmspv.Desc{Semiring: "arithmetic"}}, spmspv.CodeUnknownMatrix},
		"noMatrix":      {&spmspv.Request{X: x, Desc: spmspv.Desc{Semiring: "arithmetic"}}, spmspv.CodeInvalidRequest},
		"badDims":       {&spmspv.Request{Matrix: "g", X: testutil.RandomVector(rng, a.NumCols+3, 5, true), Desc: spmspv.Desc{Semiring: "arithmetic"}}, spmspv.CodeInvalidRequest},
		"noSemiring":    {&spmspv.Request{Matrix: "g", X: x}, spmspv.CodeInvalidRequest},
	}
	for name, tc := range cases {
		_, err := c.Do(tc.req)
		if err == nil {
			t.Errorf("%s: succeeded", name)
			continue
		}
		if we := spmspv.AsWireError(err); we.Code != tc.code {
			t.Errorf("%s: code %q, want %q", name, we.Code, tc.code)
		}
	}

	// Malformed JSON comes back as bad_request, not a hung connection
	// or an HTML error page.
	resp, err := http.Post(baseURL+"/v1/mult", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: HTTP %d", resp.StatusCode)
	}
}

// TestServeCoalescing fires single-vector requests at a server while a
// flush is held in flight, so the requests behind it must coalesce, and
// checks that (a) every response equals the sequential reference for
// its own input — slots are not mixed up — and (b) the batcher actually
// coalesced.
func TestServeCoalescing(t *testing.T) {
	st, a, rng := storeWithMatrix(t, "g")
	rig := newCoalesceRig(t, st, 4)
	if _, err := st.Load("g"); err != nil {
		t.Fatal(err)
	}

	const requests = 16
	xs := make([]*spmspv.Vector, requests)
	masks := make([]*spmspv.BitVector, requests)
	for i := range xs {
		xs[i] = testutil.RandomVector(rng, a.NumCols, 20, true)
		if i%3 == 0 {
			masks[i] = randomMask(rng, a.NumRows, 0.4)
		}
	}

	reqs := make([]*spmspv.Request, requests)
	for i := range reqs {
		reqs[i] = &spmspv.Request{
			Matrix: "g",
			X:      xs[i],
			Desc:   spmspv.Desc{Semiring: "arithmetic", Mask: masks[i]},
		}
	}
	got, errs := rig.run(t, reqs, nil)

	for i := 0; i < requests; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want := baselines.Reference(a, xs[i], spmspv.Arithmetic)
		if masks[i] != nil {
			want = maskedOracle(a, xs[i], spmspv.Arithmetic, masks[i], false)
		}
		if !got[i].Y.EqualValues(want, 1e-9) {
			t.Errorf("request %d: coalesced result differs from its own reference", i)
		}
	}

	coalesced, batches := rig.srv.BatcherStats()
	if coalesced == 0 || batches == 0 {
		t.Errorf("no coalescing happened across %d concurrent requests (coalesced=%d batches=%d)",
			requests, coalesced, batches)
	}
	t.Logf("coalesced %d of %d requests into %d batches", coalesced, requests, batches)
}

// TestServeCoalescingBypass pins that non-coalescable requests (batch,
// accumulate, bitmap output) still execute correctly through the
// direct path on a coalescing server.
func TestServeCoalescingBypass(t *testing.T) {
	st, a, rng := storeWithMatrix(t, "g")
	c, _ := serveClient(t, st, spmspv.WithBatchWindow(5e6), spmspv.WithBatchSize(4))

	x := testutil.RandomVector(rng, a.NumCols, 20, true)
	want := baselines.Reference(a, x, spmspv.Arithmetic)

	// Batch request.
	resp, err := c.Do(&spmspv.Request{
		Matrix: "g",
		Xs:     []*spmspv.Vector{x, x},
		Desc:   spmspv.Desc{Semiring: "arithmetic"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Ys) != 2 || !resp.Ys[0].EqualValues(want, 1e-9) || !resp.Ys[1].EqualValues(want, 1e-9) {
		t.Error("batch request through coalescing server wrong")
	}

	// Bitmap-output request.
	resp, err = c.Do(&spmspv.Request{
		Matrix: "g",
		X:      x,
		Desc:   spmspv.Desc{Semiring: "arithmetic", Output: spmspv.OutputBitmap},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OutputRep != "bitmap" || resp.YBits == nil {
		t.Fatalf("bitmap request: rep %q, bits %v", resp.OutputRep, resp.YBits != nil)
	}
	if resp.YBits.Count() != want.NNZ() {
		t.Errorf("bitmap support %d, want %d", resp.YBits.Count(), want.NNZ())
	}
}

// TestServeProgramHTTP runs a program through the HTTP endpoint and
// checks Store/Client symmetry: the same program against the same
// store gives byte-identical results either way.
func TestServeProgramHTTP(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	sq := testutil.RandomCSC(rng, 90, 90, 4)
	st := spmspv.NewStore(spmspv.WithEngineOptions(engineOptions(2)))
	if err := st.Put("sq", sq); err != nil {
		t.Fatal(err)
	}
	c, _ := serveClient(t, st)

	prog := &spmspv.Program{
		Matrix: "sq",
		Ops: []spmspv.ProgramOp{
			{Op: "input", X: testutil.RandomVector(rng, sq.NumCols, 12, true)},
			{XRef: "$0", Desc: spmspv.Desc{Semiring: "minplus"}, Emit: true},
			{Op: "indices", XRef: "$1"},
			{XRef: "$2", MaskRef: "$1", Desc: spmspv.Desc{Complement: true, Semiring: "minplus"}, Emit: true},
		},
	}
	local, err := st.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := c.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if local.Steps != remote.Steps || len(local.Results) != len(remote.Results) {
		t.Fatalf("local %d/%d vs remote %d/%d", local.Steps, len(local.Results), remote.Steps, len(remote.Results))
	}
	for k := range local.Results {
		if !local.Results[k].Y.EqualValues(remote.Results[k].Y, 0) {
			t.Errorf("result %d differs between Store.Run and Client.Run", k)
		}
	}
}
