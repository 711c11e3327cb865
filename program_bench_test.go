// BenchmarkProgramServe compares the three ways a client can run a
// whole iterative computation (a multi-level BFS) against the server:
//
//   - invoke: the program is registered once; every call POSTs only the
//     seed in an SPIV invoke envelope and the server loops.
//   - program: every call POSTs the full loop program (SPPG) to
//     /v1/program — one round trip, but the op list rides every time
//     and the server recompiles per call.
//   - client-loop: the classic chatty form — one /v1/mult round trip
//     per BFS level, with the client doing frontier bookkeeping.
//
// Each op is one complete BFS. Beyond ns/op the benchmark reports
// wirebytes/op (request+response body bytes) and recompiles/op (the
// dataflow compilation counter delta), which together pin the stored-
// procedure contract: warm invokes ship less wire than resending and
// compile nothing. CI uploads BENCH_program.json and cmd/benchcmp
// gates regressions.
package spmspv_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	spmspv "spmspv"
	"spmspv/internal/dataflow"
	"spmspv/internal/graphgen"
	"spmspv/internal/sparse"
)

func BenchmarkProgramServe(b *testing.B) {
	a := spmspv.ErdosRenyi(1<<13, 8, 99)
	n := a.NumCols
	st := spmspv.NewStore(spmspv.WithEngineOptions(engineOptions(4)))
	if err := st.Put("g", a); err != nil {
		b.Fatal(err)
	}
	if _, err := st.Load("g"); err != nil {
		b.Fatal(err)
	}
	srv := spmspv.NewServer(st, spmspv.WithBatchWindow(0))

	seed := spmspv.NewVector(n, 1)
	seed.Append(0, 0)
	const maxLevels = 64

	post := func(b *testing.B, path string, body []byte) ([]byte, int) {
		b.Helper()
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		r.Header.Set("Accept", spmspv.ContentTypeBinary)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("HTTP %d on %s: %s", w.Code, path, w.Body.String())
		}
		resp := w.Body.Bytes()
		return resp, len(body) + len(resp)
	}

	// Pre-encoded request bodies: the seed-only invoke and the full
	// program with the seed compiled in.
	var invokeBody, programBody bytes.Buffer
	err := spmspv.EncodeInvokeRequestBinary(&invokeBody, &spmspv.InvokeRequest{
		Args: map[string]*spmspv.Vector{"seed": seed},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := spmspv.EncodeProgramBinary(&programBody, spmspv.BFSProgram("g", maxLevels, seed)); err != nil {
		b.Fatal(err)
	}

	report := func(b *testing.B, wire, trips, compiles int64) {
		b.ReportMetric(float64(wire)/float64(b.N), "wirebytes/op")
		b.ReportMetric(float64(trips)/float64(b.N), "roundtrips/op")
		b.ReportMetric(float64(compiles)/float64(b.N), "recompiles/op")
	}

	b.Run("mode=invoke", func(b *testing.B) {
		if _, err := st.PutProgram("bfs", spmspv.BFSProgram("g", maxLevels, nil)); err != nil {
			b.Fatal(err)
		}
		defer st.DeleteProgram("bfs")
		base := dataflow.Compilations()
		var wire, trips int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, nb := post(b, "/v1/programs/bfs/invoke", invokeBody.Bytes())
			wire += int64(nb)
			trips++
		}
		b.StopTimer()
		if d := dataflow.Compilations() - base; d != 0 {
			b.Fatalf("warm invokes compiled %d programs, want 0", d)
		}
		report(b, wire, trips, dataflow.Compilations()-base)
	})

	b.Run("mode=program", func(b *testing.B) {
		base := dataflow.Compilations()
		var wire, trips int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, nb := post(b, "/v1/program", programBody.Bytes())
			wire += int64(nb)
			trips++
		}
		b.StopTimer()
		if d := dataflow.Compilations() - base; d != int64(b.N) {
			b.Fatalf("resent programs compiled %d times over %d calls", d, b.N)
		}
		report(b, wire, trips, dataflow.Compilations()-base)
	})

	b.Run("mode=client-loop", func(b *testing.B) {
		visited := make([]bool, n)
		var wire, trips int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range visited {
				visited[j] = false
			}
			visited[0] = true
			frontier := seed.Clone()
			for level := 0; level < maxLevels && frontier.NNZ() > 0; level++ {
				var body bytes.Buffer
				err := spmspv.EncodeRequestBinary(&body, &spmspv.Request{
					Matrix: "g",
					X:      frontier,
					Desc:   spmspv.Desc{Semiring: "bfs"},
				})
				if err != nil {
					b.Fatal(err)
				}
				respBytes, nb := post(b, "/v1/mult", body.Bytes())
				wire += int64(nb)
				trips++
				resp, err := spmspv.DecodeResponseBinary(bytes.NewReader(respBytes))
				if err != nil {
					b.Fatal(err)
				}
				next := spmspv.NewVector(n, resp.Y.NNZ())
				for k, idx := range resp.Y.Ind {
					if !visited[idx] {
						visited[idx] = true
						next.Append(idx, resp.Y.Val[k])
					}
				}
				frontier = next
			}
		}
		b.StopTimer()
		report(b, wire, trips, 0)
	})
}

// BenchmarkProgramBFSMesh pairs a served stored BFS with the in-process
// masked BFS on the high-diameter mesh (grid5-g3circuit, scale 13): a
// BFS from vertex 0 runs a few hundred levels of a few dozen vertices
// each, so any O(n) work per level in the dataflow layer dominates.
// mode=invoke is Store.Invoke of a registered BFSProgram; mode=lib is
// BFSMasked on the store's own multiplier. Both run with sorted and
// with unsorted engine output. Each op is one whole BFS; conv/op counts
// list→bitmap conversions per BFS (sparse.FrontierConversions), which
// must stay a constant per op, not one per level.
func BenchmarkProgramBFSMesh(b *testing.B) {
	p, _ := graphgen.FindProblem("grid5-g3circuit")
	a := p.Build(13)
	n := a.NumCols
	seed := spmspv.NewVector(n, 1)
	seed.Append(0, 0)
	inv := &spmspv.InvokeRequest{Args: map[string]*spmspv.Vector{"seed": seed}}
	for _, sorted := range []bool{true, false} {
		st := spmspv.NewStore(spmspv.WithSortOutput(sorted))
		if err := st.Put("mesh", a); err != nil {
			b.Fatal(err)
		}
		mu, err := st.Load("mesh")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.PutProgram("bfs", spmspv.BFSProgram("mesh", int(n), nil)); err != nil {
			b.Fatal(err)
		}
		want := spmspv.BFSMasked(mu, 0)
		invoke := func() {
			resp, err := st.Invoke("bfs", inv)
			if err != nil {
				b.Fatal(err)
			}
			got, err := spmspv.DecodeBFSProgramResponse(resp, n, 0, int(n))
			if err != nil {
				b.Fatal(err)
			}
			if len(got.FrontierSizes) != len(want.FrontierSizes) {
				b.Fatalf("served BFS ran %d levels, in-process %d", len(got.FrontierSizes), len(want.FrontierSizes))
			}
		}
		modes := []struct {
			name string
			op   func()
		}{
			{"invoke", invoke},
			{"lib", func() { spmspv.BFSMasked(mu, 0) }},
		}
		for _, m := range modes {
			b.Run(fmt.Sprintf("sort=%v/mode=%s", sorted, m.name), func(b *testing.B) {
				m.op() // warm the output pools
				b.ReportAllocs()
				spmspv.ResetFrontierStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.op()
				}
				b.StopTimer()
				conv, _ := sparse.FrontierConversions()
				b.ReportMetric(float64(conv)/float64(b.N), "conv/op")
			})
		}
	}
}
