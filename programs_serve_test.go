// Serving-surface tests for stored procedures: the /v1/programs
// endpoints through the Client in both wire forms, the SPIV invoke
// envelope round trip, and fuzzers pinning that hostile program and
// invoke bytes error instead of panicking.
package spmspv_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	spmspv "spmspv"
	"spmspv/internal/testutil"
)

// TestServeStoredPrograms drives the whole registry lifecycle over
// HTTP — register, list, fetch, invoke, delete — through the Client in
// both the binary and JSON wire forms, comparing the invoked BFS
// against the in-process algorithm.
func TestServeStoredPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := testutil.RandomCSC(rng, 80, 80, 4)
	for _, wire := range []string{spmspv.ContentTypeBinary, spmspv.ContentTypeJSON} {
		t.Run(wire, func(t *testing.T) {
			st := spmspv.NewStore(spmspv.WithEngineOptions(engineOptions(2)))
			if err := st.Put("g", a); err != nil {
				t.Fatal(err)
			}
			_, url := serveClient(t, st)
			cw := spmspv.NewClient(url, spmspv.WithWire(wire))

			stat, err := cw.PutProgram("bfs", spmspv.BFSProgram("g", int(a.NumCols), nil))
			if err != nil {
				t.Fatal(err)
			}
			if stat.Name != "bfs" || stat.Ops != 2 {
				t.Fatalf("put stat = %+v", stat)
			}
			if _, err := cw.PutProgram("broken", &spmspv.Program{}); err == nil {
				t.Error("server accepted an invalid program")
			}

			list, err := cw.Programs()
			if err != nil {
				t.Fatal(err)
			}
			if len(list) != 1 || list[0].Name != "bfs" {
				t.Fatalf("Programs() = %+v", list)
			}
			back, err := cw.GetProgram("bfs")
			if err != nil {
				t.Fatal(err)
			}
			if len(back.Ops) != 2 {
				t.Fatalf("fetched program has %d ops, want 2", len(back.Ops))
			}
			if err := back.Validate(); err != nil {
				t.Fatalf("fetched program no longer validates: %v", err)
			}

			mu, err := st.Load("g")
			if err != nil {
				t.Fatal(err)
			}
			want := spmspv.BFS(mu, 5)
			seed := spmspv.NewVector(a.NumCols, 1)
			seed.Append(5, 5)
			resp, err := cw.Invoke("bfs", &spmspv.InvokeRequest{Args: map[string]*spmspv.Vector{"seed": seed}})
			if err != nil {
				t.Fatal(err)
			}
			got, err := spmspv.DecodeBFSProgramResponse(resp, a.NumCols, 5, int(a.NumCols))
			if err != nil {
				t.Fatal(err)
			}
			compareBFS(t, wire, got, want)

			if _, err := cw.Invoke("nope", nil); err == nil {
				t.Error("invoking an unknown program succeeded")
			} else if !strings.Contains(err.Error(), "unknown program") {
				t.Errorf("unknown-program error = %v", err)
			}

			if err := cw.DeleteProgram("bfs"); err != nil {
				t.Fatal(err)
			}
			if err := cw.DeleteProgram("bfs"); err == nil {
				t.Error("second delete succeeded")
			}
			if _, err := cw.GetProgram("bfs"); err == nil {
				t.Error("fetched a deleted program")
			}
		})
	}
}

// TestInvokeWireRoundTrip pins the SPIV envelope: args keyed by sorted
// name, scalar bindings and the matrix override all survive the binary
// round trip.
func TestInvokeWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	inv := &spmspv.InvokeRequest{
		Matrix: "override",
		Args: map[string]*spmspv.Vector{
			"seed":  testutil.RandomVector(rng, 50, 8, true),
			"bias":  testutil.RandomVector(rng, 50, 3, true),
			"zeros": spmspv.NewVector(50, 0),
		},
		Scalars: map[string]float64{"damping": 0.85, "tol": 1e-9},
	}
	var buf bytes.Buffer
	if err := spmspv.EncodeInvokeRequestBinary(&buf, inv); err != nil {
		t.Fatal(err)
	}
	got, err := spmspv.DecodeInvokeRequestBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Matrix != inv.Matrix {
		t.Errorf("matrix = %q, want %q", got.Matrix, inv.Matrix)
	}
	if len(got.Args) != len(inv.Args) {
		t.Fatalf("args = %d, want %d", len(got.Args), len(inv.Args))
	}
	for name, x := range inv.Args {
		if !got.Args[name].EqualValues(x, 0) {
			t.Errorf("arg %q did not round-trip", name)
		}
	}
	if len(got.Scalars) != 2 || got.Scalars["damping"] != 0.85 || got.Scalars["tol"] != 1e-9 {
		t.Errorf("scalars = %v", got.Scalars)
	}

	// The empty request is legal (a stored program with no params).
	buf.Reset()
	if err := spmspv.EncodeInvokeRequestBinary(&buf, &spmspv.InvokeRequest{}); err != nil {
		t.Fatal(err)
	}
	if got, err = spmspv.DecodeInvokeRequestBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if len(got.Args) != 0 || len(got.Scalars) != 0 || got.Matrix != "" {
		t.Errorf("empty invoke round-tripped as %+v", got)
	}
}

// FuzzProgramValidate pins that arbitrary JSON programs — loops, refs,
// scalar ops included — either decode+validate or error; never panic,
// never compile something unexecutable.
func FuzzProgramValidate(f *testing.F) {
	for _, seed := range []string{
		`{"ops":[{"op":"input","x":{"n":4,"ind":[1],"val":[1]}},{"x_ref":"$0","desc":{"semiring":"bfs"}}]}`,
		`{"ops":[{"op":"input","param":"seed"},{"op":"loop","carry":["$0"],"max_iters":3,"update":["$0"],"until_empty":"$0","body":[{"op":"scale","x_ref":"^0","alpha":0.5}]}]}`,
		`{"ops":[{"op":"input","x":{"n":2,"ind":[0],"val":[1]}},{"op":"reduce","reduce":"sum","x_ref":"$0","emit":true}]}`,
		`{"ops":[{"op":"loop","carry":["^9"],"max_iters":99999999,"body":[]}]}`,
		`{"ops":[{"op":"axpy","x_ref":"$8","y_ref":"$-1","alpha_ref":"$0"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := spmspv.DecodeProgram(data)
		if err != nil {
			return
		}
		_ = p.Validate() // must not panic
	})
}

// FuzzDecodeProgramBinary pins the SPPG decoder against hostile bytes:
// error or a program, never a panic or unbounded allocation.
func FuzzDecodeProgramBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := spmspv.EncodeProgramBinary(&buf, spmspv.BFSProgram("g", 8, spmspv.NewVector(8, 0))); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("SPPG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := spmspv.DecodeProgramBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = p.Validate()
	})
}

// FuzzDecodeInvokeRequestBinary pins the SPIV decoder the same way:
// section indices out of the declared arg range, truncated frames and
// garbage headers must all error cleanly.
func FuzzDecodeInvokeRequestBinary(f *testing.F) {
	var buf bytes.Buffer
	inv := &spmspv.InvokeRequest{
		Args:    map[string]*spmspv.Vector{"seed": spmspv.NewVector(4, 0)},
		Scalars: map[string]float64{"tol": 1e-9},
	}
	if err := spmspv.EncodeInvokeRequestBinary(&buf, inv); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("SPIV"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := spmspv.DecodeInvokeRequestBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = got.Validate()
	})
}

// TestProgramNonFiniteScalar pins the non-finite scalar rule. Neither
// wire form can carry NaN or ±Inf, so a program that emits one (reduce
// max of an empty vector is -Inf) fails with invalid_request (HTTP 400)
// naming the op: in-process, and over both wire forms, for /v1/program
// and invoke alike. A non-finite scalar that is not emitted (a loop
// exit, an alpha_ref operand) runs normally.
func TestProgramNonFiniteScalar(t *testing.T) {
	empty := spmspv.NewVector(10, 0)
	maxOf := func(input spmspv.ProgramOp) *spmspv.Program {
		return &spmspv.Program{Ops: []spmspv.ProgramOp{
			input,
			{Op: "reduce", Reduce: "max", XRef: "$0", Emit: true},
		}}
	}
	adhoc := maxOf(spmspv.ProgramOp{Op: "input", X: empty})
	stored := maxOf(spmspv.ProgramOp{Op: "input", Param: "x"})
	inv := &spmspv.InvokeRequest{Args: map[string]*spmspv.Vector{"x": empty}}
	unemitted := &spmspv.Program{Ops: []spmspv.ProgramOp{
		{Op: "input", X: empty},
		{Op: "reduce", Reduce: "max", XRef: "$0"},             // $1: -Inf
		{Op: "scale", XRef: "$0", AlphaRef: "$1", Emit: true}, // $2: -Inf·∅ = ∅
		{Op: "loop", Emit: true, Carry: []string{"$0"}, MaxIters: 5, // exits on -Inf < 0
			Update: []string{"$0"}, UntilBelow: "$1", Threshold: 0,
			Body: []spmspv.ProgramOp{
				{Op: "scale", XRef: "^0", Alpha: fptr(2)},
				{Op: "reduce", Reduce: "max", XRef: "$0"},
			}},
	}}

	st := spmspv.NewStore(spmspv.WithEngineOptions(engineOptions(2)))
	if _, err := st.PutProgram("max", stored); err != nil {
		t.Fatal(err)
	}
	_, url := serveClient(t, st)
	executors := map[string]interface {
		Run(*spmspv.Program) (*spmspv.ProgramResponse, error)
		Invoke(string, *spmspv.InvokeRequest) (*spmspv.ProgramResponse, error)
	}{
		"in-process": st,
		"binary":     spmspv.NewClient(url, spmspv.WithWire(spmspv.ContentTypeBinary)),
		"json":       spmspv.NewClient(url, spmspv.WithWire(spmspv.ContentTypeJSON)),
	}
	for label, ex := range executors {
		wantRejected := func(what string, resp *spmspv.ProgramResponse, err error) {
			t.Helper()
			if err == nil {
				t.Fatalf("%s %s: emitted -Inf accepted: %+v", label, what, resp)
			}
			we := spmspv.AsWireError(err)
			if we.Code != spmspv.CodeInvalidRequest || !strings.Contains(we.Message, "op 1") ||
				!strings.Contains(we.Message, "non-finite") {
				t.Fatalf("%s %s: error %v, want invalid_request naming op 1", label, what, err)
			}
		}
		resp, err := ex.Run(adhoc)
		wantRejected("program", resp, err)
		resp, err = ex.Invoke("max", inv)
		wantRejected("invoke", resp, err)

		resp, err = ex.Run(unemitted)
		if err != nil {
			t.Fatalf("%s: unemitted -Inf scalars: %v", label, err)
		}
		if len(resp.Results) != 2 || resp.Results[0].Y.NNZ() != 0 || resp.Results[1].Y.NNZ() != 0 {
			t.Fatalf("%s: unemitted -Inf scalars gave %+v", label, resp.Results)
		}
	}

	// The status line says so too, whichever form the client accepts.
	body, err := json.Marshal(adhoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, accept := range []string{spmspv.ContentTypeBinary, spmspv.ContentTypeJSON} {
		req, err := http.NewRequest(http.MethodPost, url+"/v1/program", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", spmspv.ContentTypeJSON)
		req.Header.Set("Accept", accept)
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("Accept %s: HTTP %d, want 400", accept, res.StatusCode)
		}
	}
}
