// Tests for the binary wire envelopes and the serving surface's
// content negotiation: envelope round trips for all four message
// types, the {JSON, binary} request × {JSON, binary} reply matrix over
// httptest for /v1/mult, /v1/program and invoke, the 406 path, the
// server default wire knob, and the client against a JSON-only server.
package spmspv_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	spmspv "spmspv"
	"spmspv/internal/baselines"
	"spmspv/internal/testutil"
)

// TestWireEnvelopeRoundTrips pins that every message type survives the
// binary envelope byte-exactly: vectors, bitmap payloads, nil mask
// slots, error envelopes, and program refs.
func TestWireEnvelopeRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := testutil.RandomVector(rng, 120, 15, true)
	x2 := testutil.RandomVector(rng, 120, 9, true)
	mask := randomMask(rng, 140, 0.3)

	t.Run("request", func(t *testing.T) {
		reqs := map[string]*spmspv.Request{
			"single": {Matrix: "g", X: x, Desc: spmspv.Desc{Semiring: "arithmetic", Mask: mask}},
			"batchWithNilMaskSlot": {
				Matrix: "g",
				Xs:     []*spmspv.Vector{x, x2},
				// One real mask, one nil slot: Validate requires
				// len(Masks) == len(Xs), so nil slots must survive.
				Desc: spmspv.Desc{Semiring: "boolean", Masks: []*spmspv.BitVector{mask, nil}, Complement: true},
			},
			"noVectors": {Matrix: "g", Desc: spmspv.Desc{Semiring: "arithmetic"}},
		}
		for name, req := range reqs {
			var buf bytes.Buffer
			if err := spmspv.EncodeRequestBinary(&buf, req); err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			got, err := spmspv.DecodeRequestBinary(&buf)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if !reflect.DeepEqual(got, req) {
				t.Errorf("%s: round trip mismatch\n got %+v\nwant %+v", name, got, req)
			}
		}
	})

	t.Run("response", func(t *testing.T) {
		resps := map[string]*spmspv.Response{
			"list":    {Y: x, OutputRep: "list"},
			"batch":   {Ys: []*spmspv.Vector{x, x2}, OutputRep: "list"},
			"bitmap":  {YBits: mask, OutputRep: "bitmap"},
			"bitmaps": {YsBits: []*spmspv.BitVector{mask, nil}, OutputRep: "bitmap"},
			"error":   {Err: &spmspv.WireError{Code: spmspv.CodeUnknownMatrix, Message: "nope"}},
		}
		for name, resp := range resps {
			var buf bytes.Buffer
			if err := spmspv.EncodeResponseBinary(&buf, resp); err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			got, err := spmspv.DecodeResponseBinary(&buf)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if !reflect.DeepEqual(got, resp) {
				t.Errorf("%s: round trip mismatch\n got %+v\nwant %+v", name, got, resp)
			}
		}
	})

	t.Run("program", func(t *testing.T) {
		p := &spmspv.Program{
			Matrix:      "g",
			StopOnEmpty: true,
			Ops: []spmspv.ProgramOp{
				{Op: "input", X: x},
				{XRef: "$0", Desc: spmspv.Desc{Semiring: "bfs", Mask: mask, Complement: true}, Emit: true},
				{Op: "union", XRef: "$0", YRef: "$1"},
			},
		}
		var buf bytes.Buffer
		if err := spmspv.EncodeProgramBinary(&buf, p); err != nil {
			t.Fatal(err)
		}
		got, err := spmspv.DecodeProgramBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("program round trip mismatch\n got %+v\nwant %+v", got, p)
		}
		// Encoding must not mutate the caller's program: the op list is
		// copied before its vector fields are stripped into sections.
		if p.Ops[0].X == nil || p.Ops[1].Desc.Mask == nil {
			t.Error("EncodeProgramBinary stripped the caller's op payloads")
		}
	})

	t.Run("programResponse", func(t *testing.T) {
		resps := map[string]*spmspv.ProgramResponse{
			"results": {Results: []spmspv.ProgramResult{{Op: 1, Y: x}, {Op: 4, Y: x2}}, Steps: 5},
			"error":   {Err: &spmspv.WireError{Code: spmspv.CodeInvalidRequest, Message: "op 2: bad ref"}},
		}
		for name, resp := range resps {
			var buf bytes.Buffer
			if err := spmspv.EncodeProgramResponseBinary(&buf, resp); err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			got, err := spmspv.DecodeProgramResponseBinary(&buf)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if !reflect.DeepEqual(got, resp) {
				t.Errorf("%s: round trip mismatch\n got %+v\nwant %+v", name, got, resp)
			}
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		var buf bytes.Buffer
		if err := spmspv.EncodeRequestBinary(&buf, &spmspv.Request{Matrix: "g", X: x, Desc: spmspv.Desc{Semiring: "arithmetic"}}); err != nil {
			t.Fatal(err)
		}
		whole := buf.Bytes()
		if _, err := spmspv.DecodeResponseBinary(bytes.NewReader(whole)); err == nil {
			t.Error("decoding a request as a response succeeded")
		}
		if _, err := spmspv.DecodeRequestBinary(bytes.NewReader(whole[:len(whole)/2])); err == nil {
			t.Error("decoding a truncated envelope succeeded")
		}
		if _, err := spmspv.DecodeRequestBinary(bytes.NewReader(nil)); err == nil {
			t.Error("decoding an empty stream succeeded")
		}
	})
}

// postRaw POSTs body with explicit Content-Type/Accept headers and
// returns the raw reply.
func postRaw(t *testing.T, url, contentType, accept string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestServeWireNegotiationMatrix exercises {JSON, binary} request
// encodings × {JSON, binary, wildcard} Accept headers against the
// negotiating endpoints, including the mixed case where a binary
// request asks for a JSON response.
func TestServeWireNegotiationMatrix(t *testing.T) {
	st, a, rng := storeWithMatrix(t, "g")
	ts := httptest.NewServer(spmspv.NewServer(st))
	t.Cleanup(ts.Close)
	x := testutil.RandomVector(rng, a.NumCols, 25, true)
	want := baselines.Reference(a, x, spmspv.Arithmetic)
	req := &spmspv.Request{Matrix: "g", X: x, Desc: spmspv.Desc{Semiring: "arithmetic"}}

	jsonBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var binBuf bytes.Buffer
	if err := spmspv.EncodeRequestBinary(&binBuf, req); err != nil {
		t.Fatal(err)
	}
	binBody := binBuf.Bytes()

	cases := []struct {
		name        string
		body        []byte
		contentType string
		accept      string
		wantCT      string
	}{
		{"jsonToJSON", jsonBody, spmspv.ContentTypeJSON, spmspv.ContentTypeJSON, spmspv.ContentTypeJSON},
		{"jsonToBinary", jsonBody, spmspv.ContentTypeJSON, spmspv.ContentTypeBinary, spmspv.ContentTypeBinary},
		{"binaryToBinary", binBody, spmspv.ContentTypeBinary, spmspv.ContentTypeBinary, spmspv.ContentTypeBinary},
		// The mixed case: a binary request explicitly asking for JSON.
		{"binaryToJSON", binBody, spmspv.ContentTypeBinary, spmspv.ContentTypeJSON, spmspv.ContentTypeJSON},
		// No Accept at all → server default (JSON).
		{"jsonDefault", jsonBody, spmspv.ContentTypeJSON, "", spmspv.ContentTypeJSON},
		{"binaryDefault", binBody, spmspv.ContentTypeBinary, "", spmspv.ContentTypeJSON},
		// Wildcard → server default; q-params must not confuse parsing.
		{"wildcard", binBody, spmspv.ContentTypeBinary, "*/*", spmspv.ContentTypeJSON},
		{"qParams", binBody, spmspv.ContentTypeBinary, spmspv.ContentTypeBinary + ";q=0.9, */*;q=0.1", spmspv.ContentTypeBinary},
		// q=0 means "not acceptable" (RFC 9110): a type refused that way
		// is excluded even when listed first…
		{"qZeroJSON", binBody, spmspv.ContentTypeBinary, spmspv.ContentTypeJSON + ";q=0, " + spmspv.ContentTypeBinary, spmspv.ContentTypeBinary},
		// …and a wildcard may not resurrect it: the server default
		// (JSON) is refused here, so the wildcard yields binary.
		{"qZeroWildcard", binBody, spmspv.ContentTypeBinary, spmspv.ContentTypeJSON + ";q=0, */*", spmspv.ContentTypeBinary},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postRaw(t, ts.URL+"/v1/mult", tc.contentType, tc.accept, tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, tc.wantCT) {
				t.Fatalf("Content-Type %q, want %q", ct, tc.wantCT)
			}
			var out *spmspv.Response
			if tc.wantCT == spmspv.ContentTypeBinary {
				out, err = spmspv.DecodeResponseBinary(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
			} else {
				out = &spmspv.Response{}
				if err := json.Unmarshal(data, out); err != nil {
					t.Fatal(err)
				}
			}
			if out.Err != nil {
				t.Fatalf("wire error: %v", out.Err)
			}
			if !out.Y.EqualValues(want, 1e-9) {
				t.Error("negotiated result differs from reference")
			}
		})
	}

	// Unsatisfiable Accept → 406 with the structured code; refusing
	// every producible type with q=0 is just as unsatisfiable.
	t.Run("notAcceptable", func(t *testing.T) {
		for _, accept := range []string{
			"text/html",
			spmspv.ContentTypeJSON + ";q=0",
			spmspv.ContentTypeJSON + ";q=0, " + spmspv.ContentTypeBinary + ";q=0.0, */*",
		} {
			resp, _ := postRaw(t, ts.URL+"/v1/mult", spmspv.ContentTypeJSON, accept, jsonBody)
			if resp.StatusCode != http.StatusNotAcceptable {
				t.Fatalf("Accept %q: HTTP %d, want 406", accept, resp.StatusCode)
			}
		}
		resp, data := postRaw(t, ts.URL+"/v1/mult", spmspv.ContentTypeJSON, "text/html", jsonBody)
		if resp.StatusCode != http.StatusNotAcceptable {
			t.Fatalf("HTTP %d, want 406", resp.StatusCode)
		}
		var out spmspv.Response
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.Err == nil || out.Err.Code != spmspv.CodeNotAcceptable {
			t.Fatalf("error envelope %+v, want code %q", out.Err, spmspv.CodeNotAcceptable)
		}
	})

	// A ~40-byte binary request whose mask section claims a huge bitmap
	// dimension must come back 400 immediately — the decoder rejects the
	// dimension before materializing O(n) storage from it, so a hostile
	// header cannot force a multi-GiB allocation server-side.
	t.Run("hostileMaskDim", func(t *testing.T) {
		var buf bytes.Buffer
		header := []byte(`{"matrix":"g","desc":{"semiring":"arithmetic"}}` + "\n")
		buf.WriteString("SPRQ")
		le := func(n uint32) {
			var w [4]byte
			w[0], w[1], w[2], w[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
			buf.Write(w[:])
		}
		le(1) // envelope version
		le(uint32(len(header)))
		buf.Write(header)
		le(1)                   // one section
		buf.Write([]byte{2})    // role 2: desc.mask (bitmap-typed)
		le(0)                   // idx
		buf.Write([]byte{1})    // present
		buf.WriteString("SPVB") // hostile SPVB bitmap frame follows
		le(1)                   // vector version
		buf.Write([]byte{2})    // kind 2: bitmap
		var w8 [8]byte
		for i, n := 0, uint64(1)<<30; i < 8; i++ {
			w8[i] = byte(n >> (8 * i))
		}
		buf.Write(w8[:])           // n = 2^30, far past the decode limit
		buf.Write(make([]byte, 8)) // nset = 0
		buf.Write([]byte{0})       // no values — and no words delivered
		resp, data := postRaw(t, ts.URL+"/v1/mult", spmspv.ContentTypeBinary, spmspv.ContentTypeJSON, buf.Bytes())
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
		}
		var out spmspv.Response
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.Err == nil || out.Err.Code != spmspv.CodeBadRequest || !strings.Contains(out.Err.Message, "decode limit") {
			t.Fatalf("error envelope %+v, want bad_request mentioning the decode limit", out.Err)
		}
	})

	// A corrupt binary envelope is a 400 bad_request, answered in the
	// negotiated (binary) form, and must not hang or panic the server.
	t.Run("corruptBinary", func(t *testing.T) {
		resp, data := postRaw(t, ts.URL+"/v1/mult", spmspv.ContentTypeBinary, spmspv.ContentTypeBinary, binBody[:len(binBody)-5])
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d, want 400", resp.StatusCode)
		}
		out, err := spmspv.DecodeResponseBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if out.Err == nil || out.Err.Code != spmspv.CodeBadRequest {
			t.Fatalf("error envelope %+v, want code %q", out.Err, spmspv.CodeBadRequest)
		}
	})

	// The program endpoint negotiates identically; run the BFS program
	// both ways and compare.
	t.Run("program", func(t *testing.T) {
		prog := &spmspv.Program{
			Matrix: "g",
			Ops: []spmspv.ProgramOp{
				{Op: "input", X: x},
				{XRef: "$0", Desc: spmspv.Desc{Semiring: "arithmetic"}, Emit: true},
			},
		}
		progJSON, err := json.Marshal(prog)
		if err != nil {
			t.Fatal(err)
		}
		var progBin bytes.Buffer
		if err := spmspv.EncodeProgramBinary(&progBin, prog); err != nil {
			t.Fatal(err)
		}

		resp, data := postRaw(t, ts.URL+"/v1/program", spmspv.ContentTypeBinary, spmspv.ContentTypeBinary, progBin.Bytes())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("binary program: HTTP %d: %s", resp.StatusCode, data)
		}
		binOut, err := spmspv.DecodeProgramResponseBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}

		resp, data = postRaw(t, ts.URL+"/v1/program", spmspv.ContentTypeJSON, spmspv.ContentTypeJSON, progJSON)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("json program: HTTP %d: %s", resp.StatusCode, data)
		}
		var jsonOut spmspv.ProgramResponse
		if err := json.Unmarshal(data, &jsonOut); err != nil {
			t.Fatal(err)
		}

		if len(binOut.Results) != 1 || len(jsonOut.Results) != 1 {
			t.Fatalf("results: binary %d, json %d", len(binOut.Results), len(jsonOut.Results))
		}
		if !binOut.Results[0].Y.EqualValues(jsonOut.Results[0].Y, 0) {
			t.Error("binary and JSON program results differ")
		}
		if !binOut.Results[0].Y.EqualValues(want, 1e-9) {
			t.Error("program result differs from reference")
		}
	})

	// Invoke negotiates like the other two: an SPIV body answered in
	// JSON, a JSON body answered in binary, and its failures — a refused
	// Accept, a truncated SPIV body — in a ProgramResponse envelope.
	t.Run("invoke", func(t *testing.T) {
		if _, err := st.PutProgram("mult", &spmspv.Program{
			Matrix: "g",
			Ops: []spmspv.ProgramOp{
				{Op: "input", Param: "x"},
				{XRef: "$0", Desc: spmspv.Desc{Semiring: "arithmetic"}, Emit: true},
			},
		}); err != nil {
			t.Fatal(err)
		}
		url := ts.URL + "/v1/programs/mult/invoke"
		inv := &spmspv.InvokeRequest{Args: map[string]*spmspv.Vector{"x": x}}
		invJSON, err := json.Marshal(inv)
		if err != nil {
			t.Fatal(err)
		}
		var invBuf bytes.Buffer
		if err := spmspv.EncodeInvokeRequestBinary(&invBuf, inv); err != nil {
			t.Fatal(err)
		}
		invBin := invBuf.Bytes()

		resp, data := postRaw(t, url, spmspv.ContentTypeBinary, spmspv.ContentTypeJSON, invBin)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("binary invoke: HTTP %d: %s", resp.StatusCode, data)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, spmspv.ContentTypeJSON) {
			t.Fatalf("binary invoke, JSON Accept: Content-Type %q", ct)
		}
		var jsonOut spmspv.ProgramResponse
		if err := json.Unmarshal(data, &jsonOut); err != nil {
			t.Fatal(err)
		}

		resp, data = postRaw(t, url, spmspv.ContentTypeJSON, spmspv.ContentTypeBinary, invJSON)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("json invoke: HTTP %d: %s", resp.StatusCode, data)
		}
		if ct := resp.Header.Get("Content-Type"); ct != spmspv.ContentTypeBinary {
			t.Fatalf("json invoke, binary Accept: Content-Type %q", ct)
		}
		binOut, err := spmspv.DecodeProgramResponseBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}

		for form, out := range map[string]*spmspv.ProgramResponse{"json": &jsonOut, "binary": binOut} {
			if out.Err != nil || len(out.Results) != 1 {
				t.Fatalf("%s reply: err %v, %d results", form, out.Err, len(out.Results))
			}
			if !out.Results[0].Y.EqualValues(want, 1e-9) {
				t.Errorf("%s reply: invoke result differs from reference", form)
			}
		}

		resp, data = postRaw(t, url, spmspv.ContentTypeJSON, "text/html", invJSON)
		if resp.StatusCode != http.StatusNotAcceptable {
			t.Fatalf("Accept text/html: HTTP %d, want 406", resp.StatusCode)
		}
		var refused spmspv.ProgramResponse
		if err := json.Unmarshal(data, &refused); err != nil {
			t.Fatal(err)
		}
		if refused.Err == nil || refused.Err.Code != spmspv.CodeNotAcceptable {
			t.Fatalf("error envelope %+v, want code %q", refused.Err, spmspv.CodeNotAcceptable)
		}

		resp, data = postRaw(t, url, spmspv.ContentTypeBinary, spmspv.ContentTypeBinary, invBin[:len(invBin)-5])
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("truncated SPIV: HTTP %d, want 400", resp.StatusCode)
		}
		corrupt, err := spmspv.DecodeProgramResponseBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if corrupt.Err == nil || corrupt.Err.Code != spmspv.CodeBadRequest {
			t.Fatalf("error envelope %+v, want code %q", corrupt.Err, spmspv.CodeBadRequest)
		}
	})
}

// TestServeDefaultWireBinary pins WithDefaultWire: a preference-free
// request gets a binary response, while an explicit JSON Accept still
// overrides the default.
func TestServeDefaultWireBinary(t *testing.T) {
	st, a, rng := storeWithMatrix(t, "g")
	ts := httptest.NewServer(spmspv.NewServer(st, spmspv.WithDefaultWire(spmspv.ContentTypeBinary)))
	t.Cleanup(ts.Close)
	x := testutil.RandomVector(rng, a.NumCols, 10, true)
	body, err := json.Marshal(&spmspv.Request{Matrix: "g", X: x, Desc: spmspv.Desc{Semiring: "arithmetic"}})
	if err != nil {
		t.Fatal(err)
	}

	resp, data := postRaw(t, ts.URL+"/v1/mult", spmspv.ContentTypeJSON, "", body)
	if ct := resp.Header.Get("Content-Type"); ct != spmspv.ContentTypeBinary {
		t.Fatalf("default wire Content-Type %q, want binary", ct)
	}
	if _, err := spmspv.DecodeResponseBinary(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}

	resp, _ = postRaw(t, ts.URL+"/v1/mult", spmspv.ContentTypeJSON, spmspv.ContentTypeJSON, body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, spmspv.ContentTypeJSON) {
		t.Fatalf("explicit JSON Accept got Content-Type %q", ct)
	}
}

// TestClientJSONOnlyServer runs the client against a server that
// speaks only JSON — it 400s anything it cannot JSON-decode, like the
// handler from before the binary wire. A client pinned to JSON gets the
// right result and never sends binary; a default client sends binary
// exactly once and gets the server's bad_request back, with no retry.
func TestClientJSONOnlyServer(t *testing.T) {
	st, a, rng := storeWithMatrix(t, "g")
	x := testutil.RandomVector(rng, a.NumCols, 12, true)
	want := baselines.Reference(a, x, spmspv.Arithmetic)

	var requests, binaryAttempts atomic.Int64
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		body, _ := io.ReadAll(r.Body)
		if r.Header.Get("Content-Type") == spmspv.ContentTypeBinary {
			binaryAttempts.Add(1)
		}
		req, err := spmspv.DecodeRequest(body)
		if err != nil {
			w.Header().Set("Content-Type", spmspv.ContentTypeJSON)
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(&spmspv.Response{Err: &spmspv.WireError{
				Code: spmspv.CodeBadRequest, Message: err.Error()}})
			return
		}
		resp, err := st.Do(req)
		if err != nil {
			w.Header().Set("Content-Type", spmspv.ContentTypeJSON)
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(&spmspv.Response{Err: spmspv.AsWireError(err)})
			return
		}
		w.Header().Set("Content-Type", spmspv.ContentTypeJSON)
		json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(old.Close)
	req := &spmspv.Request{Matrix: "g", X: x, Desc: spmspv.Desc{Semiring: "arithmetic"}}

	cj := spmspv.NewClient(old.URL, spmspv.WithWire(spmspv.ContentTypeJSON))
	for i := 0; i < 3; i++ {
		got, err := cj.Do(req)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !got.Y.EqualValues(want, 1e-9) {
			t.Fatalf("call %d: wrong result over JSON", i)
		}
	}
	if n := binaryAttempts.Load(); n != 0 {
		t.Errorf("JSON-pinned client attempted binary %d times", n)
	}

	requests.Store(0)
	_, err := spmspv.NewClient(old.URL).Do(req)
	if err == nil {
		t.Fatalf("default client succeeded; want the server's %s", spmspv.CodeBadRequest)
	}
	if we := spmspv.AsWireError(err); we.Code != spmspv.CodeBadRequest {
		t.Fatalf("default client: err %v, want the server's %s", err, spmspv.CodeBadRequest)
	}
	if n, b := requests.Load(), binaryAttempts.Load(); n != 1 || b != 1 {
		t.Errorf("default client sent %d requests, %d binary; want exactly one binary attempt", n, b)
	}
}

// TestClientBinaryEndToEnd runs the full Client↔Server BFS with the
// binary wire active and checks errors still carry their codes.
func TestClientBinaryEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := testutil.RandomCSC(rng, 150, 150, 4)
	st := spmspv.NewStore(spmspv.WithEngineOptions(engineOptions(2)))
	if err := st.Put("g", a); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(spmspv.NewServer(st))
	t.Cleanup(ts.Close)
	c := spmspv.NewClient(ts.URL, spmspv.WithWire(spmspv.ContentTypeBinary))

	got, err := c.BFS("g", 3)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := st.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	compareBFS(t, "binary wire", got, spmspv.BFS(mu, 3))

	x := testutil.RandomVector(rng, a.NumCols, 8, true)
	_, err = c.Do(&spmspv.Request{Matrix: "missing", X: x, Desc: spmspv.Desc{Semiring: "arithmetic"}})
	if we := spmspv.AsWireError(err); err == nil || we.Code != spmspv.CodeUnknownMatrix {
		t.Fatalf("binary error round trip: %v", err)
	}
}

// TestServeNonFiniteReply pins how a reply holding ±Inf travels: JSON
// has no spelling for it, so a JSON client gets a not_acceptable
// *WireError naming the binary form, and a binary client gets the value
// — on /v1/mult, /v1/program, invoke and a stored program's GET.
func TestServeNonFiniteReply(t *testing.T) {
	tr := spmspv.NewTriples(2, 2, 2)
	tr.Append(0, 0, 1e308)
	tr.Append(1, 1, 1)
	a, err := spmspv.NewMatrix(tr)
	if err != nil {
		t.Fatal(err)
	}
	st := spmspv.NewStore(spmspv.WithEngineOptions(engineOptions(2)))
	if err := st.Put("big", a); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(spmspv.NewServer(st))
	t.Cleanup(ts.Close)
	jsonC := spmspv.NewClient(ts.URL, spmspv.WithHTTPClient(ts.Client()), spmspv.WithWire(spmspv.ContentTypeJSON))
	binC := spmspv.NewClient(ts.URL, spmspv.WithHTTPClient(ts.Client()))

	// 1e308 · 1e10 overflows to +Inf.
	x := &spmspv.Vector{N: 2, Ind: []spmspv.Index{0}, Val: []float64{1e10}, Sorted: true}
	arith := spmspv.Desc{Semiring: "arithmetic"}
	if _, err := binC.PutProgram("overflow", &spmspv.Program{Matrix: "big", Ops: []spmspv.ProgramOp{
		{Op: "input", Param: "x"},
		{XRef: "$0", Desc: arith, Emit: true},
	}}); err != nil {
		t.Fatal(err)
	}
	inf := &spmspv.Vector{N: 2, Ind: []spmspv.Index{1}, Val: []float64{math.Inf(1)}, Sorted: true}
	if _, err := binC.PutProgram("literal", &spmspv.Program{Ops: []spmspv.ProgramOp{
		{Op: "input", X: inf, Emit: true},
	}}); err != nil {
		t.Fatal(err)
	}

	endpoints := []struct {
		name string
		call func(c *spmspv.Client) (*spmspv.Vector, error)
	}{
		{"mult", func(c *spmspv.Client) (*spmspv.Vector, error) {
			resp, err := c.Do(&spmspv.Request{Matrix: "big", X: x, Desc: arith})
			if err != nil {
				return nil, err
			}
			return resp.Y, nil
		}},
		{"program", func(c *spmspv.Client) (*spmspv.Vector, error) {
			resp, err := c.Run(&spmspv.Program{Matrix: "big", Ops: []spmspv.ProgramOp{{X: x, Desc: arith, Emit: true}}})
			if err != nil {
				return nil, err
			}
			return resp.Results[0].Y, nil
		}},
		{"invoke", func(c *spmspv.Client) (*spmspv.Vector, error) {
			resp, err := c.Invoke("overflow", &spmspv.InvokeRequest{Args: map[string]*spmspv.Vector{"x": x}})
			if err != nil {
				return nil, err
			}
			return resp.Results[0].Y, nil
		}},
	}
	for _, ep := range endpoints {
		_, err := ep.call(jsonC)
		we, ok := err.(*spmspv.WireError)
		if !ok || we.Code != spmspv.CodeNotAcceptable || !strings.Contains(we.Message, spmspv.ContentTypeBinary) {
			t.Errorf("%s over JSON: %v, want a not_acceptable *WireError naming %s", ep.name, err, spmspv.ContentTypeBinary)
		}
		y, err := ep.call(binC)
		if err != nil {
			t.Fatalf("%s over binary: %v", ep.name, err)
		}
		if len(y.Val) != 1 || !math.IsInf(y.Val[0], 1) {
			t.Errorf("%s over binary: y = %v, want [+Inf]", ep.name, y)
		}
	}

	_, err = jsonC.GetProgram("literal")
	if we, ok := err.(*spmspv.WireError); !ok || we.Code != spmspv.CodeNotAcceptable {
		t.Errorf("GET program over JSON: %v, want a not_acceptable *WireError", err)
	}
	p, err := binC.GetProgram("literal")
	if err != nil {
		t.Fatalf("GET program over binary: %v", err)
	}
	if y := p.Ops[0].X; len(y.Val) != 1 || !math.IsInf(y.Val[0], 1) {
		t.Errorf("GET program over binary: literal = %v, want [+Inf]", y)
	}
}
