// TestSharedExecutorHammer is the -race contract of the persistent
// work-stealing executor: many Multipliers (bucket and hybrid, all on
// the stealing schedule) share the process-wide worker pool from
// separate goroutines while a coalescing server pushes batched
// multiplies through the same pool — the worst-case mix of nested
// fork-joins, concurrent Run barriers and slot-pinned workspace
// churn. Every result is checked against the sequential reference, so
// a lost task, double-executed chunk or cross-job stat write shows up
// as a wrong answer even when the race detector is off.
package spmspv_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	spmspv "spmspv"
	"spmspv/internal/baselines"
	"spmspv/internal/testutil"
)

func TestSharedExecutorHammer(t *testing.T) {
	const (
		n          = 500
		engines    = 3
		goroutines = 4
		iters      = 25
	)
	rng := rand.New(rand.NewSource(123))
	a := testutil.RandomCSC(rng, n, n, 6)

	opt := engineOptions(4)
	opt.MergeSched = spmspv.SchedStealing

	type testCase struct {
		x    *spmspv.Vector
		want *spmspv.Vector
	}
	cases := make([]testCase, 6)
	for i := range cases {
		x := testutil.RandomVector(rng, n, 15+i*60, true)
		cases[i] = testCase{x: x, want: baselines.Reference(a, x, spmspv.Arithmetic)}
	}

	// The server side: a coalescing batcher over the same matrix, whose
	// batched multiplies run on the same shared executor.
	st := spmspv.NewStore(spmspv.WithEngineOptions(opt))
	if err := st.Put("g", a); err != nil {
		t.Fatal(err)
	}
	srv := spmspv.NewServer(st,
		spmspv.WithBatchSize(4),
		spmspv.WithBatchWindow(100*time.Microsecond),
	)
	bodies := make([][]byte, len(cases))
	for i, tc := range cases {
		data, err := json.Marshal(&spmspv.Request{
			Matrix: "g",
			X:      tc.x,
			Desc:   spmspv.Desc{Semiring: "arithmetic"},
		})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = data
	}

	var wg sync.WaitGroup
	errs := make(chan string, engines*goroutines+goroutines)

	// Direct engine callers: `engines` independent Multipliers, each
	// hammered by `goroutines` goroutines, all sharing the default pool.
	for e := 0; e < engines; e++ {
		alg := spmspv.Bucket
		if e%2 == 1 {
			alg = spmspv.Hybrid
		}
		mu := newMult(t, a, alg, opt)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				y := spmspv.NewVector(0, 0)
				yf := spmspv.NewFrontier(y)
				for it := 0; it < iters; it++ {
					tc := &cases[(seed+it)%len(cases)]
					mu.Mult(spmspv.NewFrontier(tc.x), yf, spmspv.Arithmetic, spmspv.Desc{Output: spmspv.OutputList})
					if !y.EqualValues(tc.want, 1e-9) {
						errs <- "direct multiply diverged from reference under shared executor"
						return
					}
				}
			}(e*goroutines + g)
		}
	}

	// Server callers: concurrent requests that the batcher coalesces
	// into MultBatch calls on the same executor.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (seed + it) % len(cases)
				r := httptest.NewRequest(http.MethodPost, "/v1/mult", bytes.NewReader(bodies[i]))
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					errs <- "server multiply failed under shared executor: " + w.Body.String()
					return
				}
				var resp spmspv.Response
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					errs <- "bad server response: " + err.Error()
					return
				}
				if !resp.Y.EqualValues(cases[i].want, 1e-9) {
					errs <- "coalesced server multiply diverged from reference"
					return
				}
			}
		}(g)
	}

	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
