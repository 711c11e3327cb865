// BenchmarkServeCoalesce measures the serving path's request
// coalescing: concurrent single-vector mult requests against one
// matrix, pushed through the full HTTP handler (decode, validate,
// batcher, encode) at batch sizes of 1, 4 and 8 requests. Size 1
// disables coalescing — every request executes alone — so the sweep
// isolates what the shared MultBatch (one bucket Estimate/sizing pass
// per batch instead of per request) buys at the service level.
// EXPERIMENTS.md records the trajectory; CI uploads the JSON so
// cmd/benchcmp gates serving-path regressions like the multiply path.
package spmspv_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	spmspv "spmspv"
	"spmspv/internal/testutil"
)

func BenchmarkServeCoalesce(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := spmspv.ErdosRenyi(1<<14, 8, 99)

	// Pre-marshaled request bodies with distinct frontiers, so the
	// benchmark measures serving, not JSON construction — in both wire
	// forms, so the json-vs-binary split is measured on the identical
	// request stream.
	const nBodies = 64
	bodies := make([][]byte, nBodies)
	binBodies := make([][]byte, nBodies)
	// Sparse frontiers (the BFS-round regime): per-call engine setup —
	// the bucket Estimate/sizing pass, workspace checkout — is the
	// dominant cost there, which is exactly what coalescing amortizes.
	for i := range bodies {
		req := &spmspv.Request{
			Matrix: "g",
			X:      testutil.RandomVector(rng, a.NumCols, 16, true),
			Desc:   spmspv.Desc{Semiring: "arithmetic"},
		}
		data, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = data
		var buf bytes.Buffer
		if err := spmspv.EncodeRequestBinary(&buf, req); err != nil {
			b.Fatal(err)
		}
		binBodies[i] = buf.Bytes()
	}

	type dim struct {
		name   string
		batch  int
		bodies [][]byte
		accept string
	}
	var dims []dim
	for _, batch := range []int{1, 4, 8} {
		// The original names stay JSON, so the CI artifact series is
		// continuous; the -binary twins measure the negotiated wire on
		// the same batch sweep.
		dims = append(dims,
			dim{fmt.Sprintf("batch%d", batch), batch, bodies, spmspv.ContentTypeJSON},
			dim{fmt.Sprintf("batch%d-binary", batch), batch, binBodies, spmspv.ContentTypeBinary},
		)
	}

	for _, d := range dims {
		batch, reqBodies, accept := d.batch, d.bodies, d.accept
		b.Run(d.name, func(b *testing.B) {
			// A multi-threaded engine, as a serving host would run: the
			// per-call parallel-section spawn/join is then the dominant
			// per-request setup, and it is paid once per coalesced batch
			// instead of once per request.
			st := spmspv.NewStore(spmspv.WithEngineOptions(engineOptions(4)))
			if err := st.Put("g", a); err != nil {
				b.Fatal(err)
			}
			if _, err := st.Load("g"); err != nil {
				b.Fatal(err)
			}
			// Group commit: requests that arrive while a flush runs
			// share the next one. A short window: a request queued
			// behind a flush still running after 100µs flushes without
			// it.
			srv := spmspv.NewServer(st,
				spmspv.WithBatchSize(batch),
				spmspv.WithBatchWindow(100*time.Microsecond),
			)

			// 8-way concurrent callers regardless of GOMAXPROCS: request
			// concurrency is what fills batches, and a serving
			// host is I/O-concurrent even when compute-serial.
			b.SetParallelism(8)
			b.ReportAllocs()
			var worker atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(worker.Add(1)) * 7919
				for pb.Next() {
					i++
					r := httptest.NewRequest(http.MethodPost, "/v1/mult",
						bytes.NewReader(reqBodies[i%nBodies]))
					r.Header.Set("Accept", accept)
					w := httptest.NewRecorder()
					srv.ServeHTTP(w, r)
					if w.Code != http.StatusOK {
						b.Errorf("HTTP %d: %s", w.Code, w.Body.String())
						return
					}
				}
			})
			b.StopTimer()

			coalesced, batches := srv.BatcherStats()
			if n := int64(b.N); n > 0 {
				b.ReportMetric(float64(coalesced)/float64(n), "coalesced/op")
				_ = batches
			}
		})
	}
}
