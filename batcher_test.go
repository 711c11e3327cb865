// Tests for the request-coalescing batcher's group commit. Each test
// holds a flush in flight behind a GatedStore, so the requests that
// queue behind it, and therefore the flushes that follow, are fixed by
// the batch size and the window rather than by timing.
package spmspv_test

import (
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	spmspv "spmspv"
	"spmspv/internal/testutil"
)

// coalesceRig serves a backend behind a GatedStore over HTTP, to a
// client on the default (binary) wire. Its window outlasts any test, so
// requests queued behind a held flush stay queued until Release.
type coalesceRig struct {
	gate *spmspv.GatedStore
	srv  *spmspv.Server
	c    *spmspv.Client
}

func newCoalesceRig(t *testing.T, backend spmspv.ServingStore, batch int) *coalesceRig {
	t.Helper()
	gate := spmspv.NewGatedStore(backend)
	srv := spmspv.NewServer(gate, spmspv.WithBatchSize(batch), spmspv.WithBatchWindow(time.Hour))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	// Registered after Close, so it runs first: a test that fails with
	// flushes held must not leave Close waiting on them.
	t.Cleanup(gate.Release)
	return &coalesceRig{gate: gate, srv: srv, c: spmspv.NewClient(ts.URL, spmspv.WithHTTPClient(ts.Client()))}
}

// run sends reqs[0] and waits until its flush is held at the gate, then
// sends the rest and waits until every one of them is queued behind it.
// It then calls beforeRelease, if set, releases the gate and collects
// every reply.
func (r *coalesceRig) run(t *testing.T, reqs []*spmspv.Request, beforeRelease func()) ([]*spmspv.Response, []error) {
	t.Helper()
	resps := make([]*spmspv.Response, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	send := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = r.c.Do(reqs[i])
		}()
	}
	send(0)
	r.waitHeldOrQueued(t, 1)
	for i := 1; i < len(reqs); i++ {
		send(i)
	}
	r.waitHeldOrQueued(t, len(reqs))
	if beforeRelease != nil {
		beforeRelease()
	}
	r.gate.Release()
	wg.Wait()
	return resps, errs
}

// waitHeldOrQueued polls until n requests are held at the gate or
// queued in a batcher. The gate's count only grows while it is closed
// and a request reaches it only after leaving the queue, so reading the
// gate first never counts a request twice.
func (r *coalesceRig) waitHeldOrQueued(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, held := r.gate.Flushes()
		queued := r.srv.QueuedMults()
		if held+queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests held and %d queued, want %d in all", held, queued, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// sameBits fails unless got is want bit for bit: dimension, sortedness,
// indices and the bits of every value.
func sameBits(t *testing.T, label string, got, want *spmspv.Vector) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil vector (got %v, want %v)", label, got, want)
	}
	if got.N != want.N || got.Sorted != want.Sorted || len(got.Ind) != len(want.Ind) || len(got.Val) != len(want.Val) {
		t.Fatalf("%s: (n=%d, sorted=%v, nnz=%d), want (n=%d, sorted=%v, nnz=%d)",
			label, got.N, got.Sorted, len(got.Ind), want.N, want.Sorted, len(want.Ind))
	}
	for k := range want.Ind {
		if got.Ind[k] != want.Ind[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("%s: entry %d = (%d, %v), want (%d, %v)", label, k, got.Ind[k], got.Val[k], want.Ind[k], want.Val[k])
		}
	}
}

// coalesceBackend names a constructor of one of the two ServingStores
// a Server fronts.
type coalesceBackend struct {
	name string
	new  func() spmspv.ServingStore
}

// coalesceBackends returns a Store and a 2-band ShardedStore, each
// holding a as "g".
func coalesceBackends(t *testing.T, a *spmspv.Matrix) []coalesceBackend {
	opts := []spmspv.Option{spmspv.WithEngineOptions(engineOptions(2))}
	put := func(st spmspv.ServingStore) spmspv.ServingStore {
		if err := st.Put("g", a); err != nil {
			t.Fatal(err)
		}
		return st
	}
	return []coalesceBackend{
		{"store", func() spmspv.ServingStore { return put(spmspv.NewStore(opts...)) }},
		{"sharded2", func() spmspv.ServingStore { return put(newLocalSharded(t, 2, opts...)) }},
	}
}

// TestCoalescingLoneRequestDoesNotWait pins group commit's first rule:
// a request that finds no flush in flight runs at once, however long
// the configured window.
func TestCoalescingLoneRequestDoesNotWait(t *testing.T) {
	st, a, rng := storeWithMatrix(t, "g")
	if _, err := st.Load("g"); err != nil {
		t.Fatal(err)
	}
	const window = 5 * time.Second
	gate := spmspv.NewGatedStore(st)
	gate.Release()
	ts := httptest.NewServer(spmspv.NewServer(gate, spmspv.WithBatchWindow(window)))
	t.Cleanup(ts.Close)
	c := spmspv.NewClient(ts.URL, spmspv.WithHTTPClient(ts.Client()))

	req := &spmspv.Request{Matrix: "g", X: testutil.RandomVector(rng, a.NumCols, 20, true),
		Desc: spmspv.Desc{Semiring: "arithmetic"}}
	start := time.Now()
	got, err := c.Do(req)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > window/10 {
		t.Errorf("a lone request took %v under a %v window", elapsed, window)
	}
	if flushes, slots := gate.Flushes(); flushes != 1 || slots != 1 {
		t.Errorf("lone request ran as %d flushes carrying %d requests, want 1 and 1", flushes, slots)
	}
	want, err := st.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "lone request", got.Y, want.Y)
}

// TestCoalescingWaitBoundedBehindSlowFlush pins the window's job: a
// request queued behind a flush that does not end waits the window,
// then flushes on its own and is answered while that flush is still
// held — on a Store and on a 2-band ShardedStore.
func TestCoalescingWaitBoundedBehindSlowFlush(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a := testutil.RandomCSC(rng, 120, 100, 4)
	const window = 20 * time.Millisecond
	for _, bk := range coalesceBackends(t, a) {
		t.Run(bk.name, func(t *testing.T) {
			backend := bk.new()
			gate := spmspv.NewGatedStore(backend)
			gate.HoldFirst = 1
			ts := httptest.NewServer(spmspv.NewServer(gate, spmspv.WithBatchWindow(window)))
			t.Cleanup(ts.Close)
			t.Cleanup(gate.Release)
			c := spmspv.NewClient(ts.URL, spmspv.WithHTTPClient(ts.Client()))
			reqs := make([]*spmspv.Request, 2)
			resps := make([]*spmspv.Response, 2)
			done := make([]chan error, 2)
			for i := range reqs {
				reqs[i] = &spmspv.Request{Matrix: "g", X: testutil.RandomVector(rng, a.NumCols, 12, true),
					Desc: spmspv.Desc{Semiring: "arithmetic"}}
				done[i] = make(chan error, 1)
			}
			send := func(i int) {
				go func() {
					var err error
					resps[i], err = c.Do(reqs[i])
					done[i] <- err
				}()
			}

			send(0)
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				if flushes, _ := gate.Flushes(); flushes == 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the first flush never reached the gate")
				}
			}
			start := time.Now()
			send(1)
			select {
			case err := <-done[1]:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a request queued behind a held flush was not answered")
			}
			if elapsed := time.Since(start); elapsed < window {
				t.Errorf("the queued request was answered after %v, inside the %v window", elapsed, window)
			}
			select {
			case err := <-done[0]:
				t.Fatalf("the held flush answered (%v) before its release", err)
			default:
			}
			if flushes, slots := gate.Flushes(); flushes != 2 || slots != 2 {
				t.Errorf("%d flushes carrying %d requests, want 2 carrying 2", flushes, slots)
			}

			gate.Release()
			if err := <-done[0]; err != nil {
				t.Fatal(err)
			}
			for i, req := range reqs {
				want, err := backend.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("request %d", i), resps[i].Y, want.Y)
			}
		})
	}
}

// TestCoalescedFlushes queues n requests behind a held flush and checks
// that they go out as ⌈n / batch size⌉ flushes, that every slot's reply
// is its own uncoalesced Do bit for bit, and that the counters count
// each request once, and each multi-slot flush and its requests as
// Batches and Coalesced — on a Store and on a 2-band ShardedStore.
func TestCoalescedFlushes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := testutil.RandomCSC(rng, 120, 100, 4)
	const batch = 4
	cases := []struct {
		queued     int
		complement bool
	}{{1, false}, {3, false}, {4, false}, {9, false}, {10, false}, {6, true}}
	for _, bk := range coalesceBackends(t, a) {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/queued%d/complement=%v", bk.name, tc.queued, tc.complement), func(t *testing.T) {
				backend := bk.new()
				rig := newCoalesceRig(t, backend, batch)
				reqs := make([]*spmspv.Request, 1+tc.queued)
				for i := range reqs {
					d := spmspv.Desc{Semiring: "arithmetic", Complement: tc.complement}
					if tc.complement || i%3 == 1 {
						d.Mask = randomMask(rng, a.NumRows, 0.5)
					}
					reqs[i] = &spmspv.Request{Matrix: "g", X: testutil.RandomVector(rng, a.NumCols, 12, true), Desc: d}
				}
				resps, errs := rig.run(t, reqs, nil)
				for i := range reqs {
					if errs[i] != nil {
						t.Fatalf("request %d: %v", i, errs[i])
					}
				}

				n := tc.queued
				flushes, slots := rig.gate.Flushes()
				if want := 1 + (n+batch-1)/batch; flushes != want || slots != len(reqs) {
					t.Errorf("%d flushes carrying %d requests, want %d carrying %d", flushes, slots, want, len(reqs))
				}
				wantCoalesced, wantBatches := int64(n), int64(n/batch)
				switch n % batch {
				case 0:
				case 1: // the last flush carries one request: not a batch
					wantCoalesced--
				default:
					wantBatches++
				}
				stat, err := backend.Stats("g")
				if err != nil {
					t.Fatal(err)
				}
				if s := stat.Serve; s.Requests != int64(len(reqs)) || s.Failures != 0 ||
					s.Coalesced != wantCoalesced || s.Batches != wantBatches {
					t.Errorf("counters %+v, want requests %d, failures 0, coalesced %d, batches %d",
						s, len(reqs), wantCoalesced, wantBatches)
				}

				for i, req := range reqs {
					want, err := backend.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, fmt.Sprintf("slot %d", i), resps[i].Y, want.Y)
				}
			})
		}
	}
}

// TestCoalescedFlushFailures pins how a flush fails: a store error
// fails every slot of every flush with that error, and a panicking
// flush answers every slot internal.
func TestCoalescedFlushFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := testutil.RandomCSC(rng, 120, 100, 4)
	const batch, requests = 4, 6
	newReqs := func() []*spmspv.Request {
		reqs := make([]*spmspv.Request, requests)
		for i := range reqs {
			reqs[i] = &spmspv.Request{Matrix: "g", X: testutil.RandomVector(rng, a.NumCols, 12, true),
				Desc: spmspv.Desc{Semiring: "arithmetic"}}
		}
		return reqs
	}
	for _, bk := range coalesceBackends(t, a) {
		t.Run(bk.name+"/store-error", func(t *testing.T) {
			backend := bk.new()
			rig := newCoalesceRig(t, backend, batch)
			// Deleting behind the server's back leaves its batchers in
			// place, so the held flushes reach the store and fail there.
			_, errs := rig.run(t, newReqs(), func() { backend.Delete("g") })
			for i, err := range errs {
				we, ok := err.(*spmspv.WireError)
				if !ok || we.Code != spmspv.CodeUnknownMatrix || !strings.Contains(we.Message, `"g"`) {
					t.Errorf("request %d: %v, want the store's unknown_matrix error for \"g\"", i, err)
				}
			}
		})
		t.Run(bk.name+"/panic", func(t *testing.T) {
			backend := bk.new()
			rig := newCoalesceRig(t, backend, batch)
			_, errs := rig.run(t, newReqs(), func() { rig.gate.Panic = "injected fault" })
			for i, err := range errs {
				we, ok := err.(*spmspv.WireError)
				if !ok || we.Code != spmspv.CodeInternal || !strings.Contains(we.Message, "injected fault") {
					t.Errorf("request %d: %v, want an internal error naming the panic", i, err)
				}
			}
			stat, err := backend.Stats("g")
			if err != nil {
				t.Fatal(err)
			}
			if s := stat.Serve; s.Requests != requests || s.Failures != requests || s.Coalesced != 0 || s.Batches != 0 {
				t.Errorf("counters %+v, want %d requests all failed and no batches", s, requests)
			}
		})
	}
}

// TestCoalescedFlushReplacedMatrix pins why a flush validates its
// requests again although each was validated when it was submitted: a
// Put that replaces the matrix while requests wait for their flush
// leaves them sized for the old matrix, and every slot must fail
// invalid_request naming the mismatch, not panic in the engine — on a
// Store and on a 2-band ShardedStore.
func TestCoalescedFlushReplacedMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := testutil.RandomCSC(rng, 90, 90, 4)
	small := testutil.RandomCSC(rng, 40, 40, 3)
	for _, bk := range coalesceBackends(t, a) {
		t.Run(bk.name, func(t *testing.T) {
			backend := bk.new()
			rig := newCoalesceRig(t, backend, 4)
			reqs := make([]*spmspv.Request, 4)
			for i := range reqs {
				reqs[i] = &spmspv.Request{Matrix: "g", X: testutil.RandomVector(rng, a.NumCols, 12, true),
					Desc: spmspv.Desc{Semiring: "arithmetic"}}
			}
			_, errs := rig.run(t, reqs, func() {
				if err := backend.Put("g", small); err != nil {
					t.Fatal(err)
				}
			})
			for i, err := range errs {
				we, ok := err.(*spmspv.WireError)
				if !ok || we.Code != spmspv.CodeInvalidRequest || !strings.Contains(we.Message, "dimension 90, want 40") {
					t.Errorf("request %d: %v, want invalid_request naming dimension 90, want 40", i, err)
				}
			}
		})
	}
}
