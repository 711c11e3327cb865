// TestSharedExecutorHammer is the -race contract of the persistent
// work-stealing executor: many Multipliers (bucket and hybrid, all on
// the stealing schedule) share the process-wide worker pool from
// separate goroutines while a coalescing server pushes batched
// multiplies through the same pool — the worst-case mix of nested
// fork-joins, concurrent Run barriers and slot-pinned workspace
// churn. Every result is checked against the sequential reference, so
// a lost task, double-executed chunk or cross-job stat write shows up
// as a wrong answer even when the race detector is off. Every input
// has more than three grains of flops (57k–81k against 3·2^14), so each
// bucket call runs on all 4 configured threads; the bucket
// multipliers' chunk counts prove it. Four of the six inputs reach the
// Hybrid threshold, so the hybrid multipliers run GraphMat's
// matrix-driven jobs on the same pool too; their direction-switch
// counts prove that.
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
		n          = 8192
		engines    = 3
		goroutines = 4
		iters      = 25
		// A bucket call on 4 threads over n = 8192 rows has 16 row
		// ranges and 32 Step-1 chunks: Estimate and Step 1 run 32 tasks
		// each, and the stealing merge and Step 3 one per row range.
		tasksPerCall = 32 + 32 + 16 + 16
	)
	rng := rand.New(rand.NewSource(123))
	a := testutil.RandomCSC(rng, n, n, 32)

	opt := engineOptions(4)
	opt.MergeSched = spmspv.SchedStealing

	type testCase struct {
		x    *spmspv.Vector
		want *spmspv.Vector
	}
	cases := make([]testCase, 6)
	for i := range cases {
		// 1800–2550 nonzeros over ~32 per column: 57k–81k flops. The
		// first two stay below engineOptions' Hybrid threshold of
		// 0.25·n = 2048 nonzeros, so Hybrid runs them on its bucket
		// side and the other four on GraphMat.
		x := testutil.RandomVector(rng, n, 1800+i*150, true)
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
	var buckets []*spmspv.Multiplier
	type hybridCheck struct {
		mu           *spmspv.Multiplier
		matrixDriven int64 // calls whose x reaches the Hybrid threshold
	}
	var hybrids []hybridCheck
	for e := 0; e < engines; e++ {
		alg := spmspv.Bucket
		if e%2 == 1 {
			alg = spmspv.Hybrid
		}
		mu := newMult(t, a, alg, opt)
		if alg == spmspv.Bucket {
			buckets = append(buckets, mu)
		} else {
			hc := hybridCheck{mu: mu}
			for seed := e * goroutines; seed < (e+1)*goroutines; seed++ {
				for it := 0; it < iters; it++ {
					if float64(cases[(seed+it)%len(cases)].x.NNZ()) >= opt.HybridThreshold*n {
						hc.matrixDriven++
					}
				}
			}
			hybrids = append(hybrids, hc)
		}
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
	for _, mu := range buckets {
		c := mu.Counters()
		if got, want := c.ChunkClaims+c.Steals, int64(goroutines*iters*tasksPerCall); got != want {
			t.Fatalf("bucket multiplier ran %d tasks, want %d: its calls did not all run on 4 threads", got, want)
		}
	}
	for _, hc := range hybrids {
		if got := hc.mu.Counters().DirectionSwitches; got != hc.matrixDriven || got == 0 {
			t.Fatalf("hybrid multiplier sent %d calls to GraphMat, want %d (> 0)", got, hc.matrixDriven)
		}
	}
}
