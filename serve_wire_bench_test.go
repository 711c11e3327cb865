// BenchmarkServeWire measures the serving path in each wire format
// (JSON vs the SPVB-section binary envelope). Each request runs the
// direct, uncoalesced handler path so the numbers attribute to
// encode/decode, not batching; allocs/op is reported so buffer-reuse
// regressions are visible even where ns/op is noise-bound.
// EXPERIMENTS.md records the grid; CI uploads BENCH_wire.json and
// cmd/benchcmp gates regressions.
package spmspv_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	spmspv "spmspv"
	"spmspv/internal/testutil"
)

func BenchmarkServeWire(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	a := spmspv.ErdosRenyi(1<<14, 8, 99)
	st := spmspv.NewStore(spmspv.WithEngineOptions(engineOptions(4)))
	if err := st.Put("g", a); err != nil {
		b.Fatal(err)
	}
	if _, err := st.Load("g"); err != nil {
		b.Fatal(err)
	}
	// Window 0 disables coalescing: every request takes the direct
	// path, so ns/op and allocs/op attribute to the wire codecs.
	srv := spmspv.NewServer(st, spmspv.WithBatchWindow(0))

	const nBodies = 64
	jsonBodies := make([][]byte, nBodies)
	binBodies := make([][]byte, nBodies)
	for i := range jsonBodies {
		req := &spmspv.Request{
			Matrix: "g",
			X:      testutil.RandomVector(rng, a.NumCols, 16, true),
			Desc:   spmspv.Desc{Semiring: "arithmetic"},
		}
		data, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		jsonBodies[i] = data
		var buf bytes.Buffer
		if err := spmspv.EncodeRequestBinary(&buf, req); err != nil {
			b.Fatal(err)
		}
		binBodies[i] = buf.Bytes()
	}

	for _, wire := range []struct {
		name   string
		bodies [][]byte
		accept string
	}{
		{"json", jsonBodies, spmspv.ContentTypeJSON},
		{"binary", binBodies, spmspv.ContentTypeBinary},
	} {
		b.Run("wire="+wire.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := httptest.NewRequest(http.MethodPost, "/v1/mult",
					bytes.NewReader(wire.bodies[i%nBodies]))
				r.Header.Set("Accept", wire.accept)
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					b.Fatalf("HTTP %d: %s", w.Code, w.Body.String())
				}
			}
		})
	}
}

// BenchmarkVectorWireEncode pins the codec-only cost of one response
// vector in each wire form — the per-section price everything above is
// built from. ~128-nnz outputs match the serving benchmarks' regime.
func BenchmarkVectorWireEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	y := testutil.RandomVector(rng, 1<<14, 128, true)
	var buf bytes.Buffer
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := spmspv.EncodeVectorBinary(&buf, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}
