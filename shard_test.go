package spmspv_test

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	spmspv "spmspv"
	"spmspv/internal/testutil"
)

// randomIntCSC generates a random m×n matrix with small integer
// values. Integer-valued operands make arithmetic-semiring sums exact
// in float64 regardless of accumulation order, so sharded results can
// be compared bit-for-bit even against engines whose merge order is
// not stable under row renumbering (the heap engine's tie order
// depends on its insertion history).
func randomIntCSC(t *testing.T, rng *rand.Rand, m, n spmspv.Index, avgDeg int) *spmspv.Matrix {
	t.Helper()
	tr := spmspv.NewTriples(m, n, int(n)*avgDeg)
	for j := spmspv.Index(0); j < n; j++ {
		for e := 0; e < avgDeg; e++ {
			tr.Append(spmspv.Index(rng.Intn(int(m))), j, float64(rng.Intn(8)+1))
		}
	}
	a, err := spmspv.NewMatrix(tr)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// randomIntVector generates a sorted sparse vector with small integer
// values (see randomIntCSC).
func randomIntVector(rng *rand.Rand, n spmspv.Index, f int) *spmspv.Vector {
	v := testutil.RandomVector(rng, n, f, true)
	for k := range v.Val {
		v.Val[k] = float64(rng.Intn(8) + 1)
	}
	return v
}

// newLocalSharded builds an n-shard in-process coordinator with fast
// test-friendly retry settings.
func newLocalSharded(t *testing.T, n int, opts ...spmspv.Option) *spmspv.ShardedStore {
	t.Helper()
	ss, err := spmspv.NewLocalShardedStore(n, opts,
		spmspv.WithShardBackoff(time.Millisecond),
		spmspv.WithShardTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// sameVector fails unless two list-form vectors are bit-identical:
// dimension, entry order, indices and float values.
func sameVector(t *testing.T, label string, got, want *spmspv.Vector) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil vector (got %v, want %v)", label, got, want)
	}
	if got.N != want.N || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: shape (n=%d,nnz=%d), want (n=%d,nnz=%d)", label, got.N, got.NNZ(), want.N, want.NNZ())
	}
	for k := range want.Ind {
		if got.Ind[k] != want.Ind[k] || got.Val[k] != want.Val[k] {
			t.Fatalf("%s: entry %d = (%d,%g), want (%d,%g)",
				label, k, got.Ind[k], got.Val[k], want.Ind[k], want.Val[k])
		}
	}
}

// TestShardedDoMatchesStore pins the tentpole property: a sharded Do is
// bit-identical to the unsharded Store.Do — across every registered
// engine, shard counts beyond the row count included, for plain,
// masked, complemented, bitmap-output and batched requests.
func TestShardedDoMatchesStore(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := randomIntCSC(t, rng, 120, 120, 4)
	for _, alg := range spmspv.Algorithms() {
		opts := []spmspv.Option{spmspv.WithAlgorithm(alg), spmspv.WithEngineOptions(engineOptions(2))}
		st := spmspv.NewStore(opts...)
		if err := st.Put("g", a); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 3, 7, 200} {
			ss := newLocalSharded(t, shards, opts...)
			if err := ss.Put("g", a); err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 8; trial++ {
				x := randomIntVector(rng, a.NumCols, 1+rng.Intn(30))
				desc := spmspv.Desc{Semiring: "arithmetic"}
				switch trial % 4 {
				case 1:
					desc.Mask = randomMask(rng, a.NumRows, 0.5)
				case 2:
					desc.Mask = randomMask(rng, a.NumRows, 0.3)
					desc.Complement = true
				case 3:
					desc.Output = spmspv.OutputBitmap
				}
				req := &spmspv.Request{Matrix: "g", X: x, Desc: desc}
				want, err := st.Do(req)
				if err != nil {
					t.Fatalf("%v: store: %v", alg, err)
				}
				got, err := ss.Do(req)
				if err != nil {
					t.Fatalf("%v shards=%d: sharded: %v", alg, shards, err)
				}
				if desc.Output == spmspv.OutputBitmap {
					if got.YBits == nil || want.YBits == nil {
						t.Fatalf("%v shards=%d: missing bitmap payload", alg, shards)
					}
					if got.YBits.N != want.YBits.N || got.YBits.Count() != want.YBits.Count() {
						t.Fatalf("%v shards=%d: bitmap shape differs", alg, shards)
					}
					for i := spmspv.Index(0); i < want.YBits.N; i++ {
						gv, gok := got.YBits.Get(i)
						wv, wok := want.YBits.Get(i)
						if gok != wok || gv != wv {
							t.Fatalf("%v shards=%d: bitmap[%d] = (%g,%v), want (%g,%v)",
								alg, shards, i, gv, gok, wv, wok)
						}
					}
				} else {
					sameVector(t, alg.String(), got.Y, want.Y)
				}
			}
			// Batched request: one Xs scatter, per-slot masks included.
			xs := make([]*spmspv.Vector, 5)
			masks := make([]*spmspv.BitVector, 5)
			for q := range xs {
				xs[q] = randomIntVector(rng, a.NumCols, 1+rng.Intn(20))
				if q%2 == 1 {
					masks[q] = randomMask(rng, a.NumRows, 0.5)
				}
			}
			breq := &spmspv.Request{Matrix: "g", Xs: xs,
				Desc: spmspv.Desc{Semiring: "arithmetic", Masks: masks}}
			want, err := st.Do(breq)
			if err != nil {
				t.Fatalf("%v: store batch: %v", alg, err)
			}
			got, err := ss.Do(breq)
			if err != nil {
				t.Fatalf("%v shards=%d: sharded batch: %v", alg, shards, err)
			}
			for q := range xs {
				sameVector(t, alg.String()+"/batch", got.Ys[q], want.Ys[q])
			}
		}
	}
}

// TestShardedProgramBFS runs whole BFS programs through the
// coordinator on every engine and compares with the unsharded run —
// parents vector and all.
func TestShardedProgramBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := testutil.RandomCSC(rng, 150, 150, 3)
	for _, alg := range spmspv.Algorithms() {
		opts := []spmspv.Option{spmspv.WithAlgorithm(alg), spmspv.WithEngineOptions(engineOptions(2))}
		st := spmspv.NewStore(opts...)
		if err := st.Put("g", a); err != nil {
			t.Fatal(err)
		}
		want, err := spmspv.ProgramBFS(st, "g", a.NumCols, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 5} {
			ss := newLocalSharded(t, shards, opts...)
			if err := ss.Put("g", a); err != nil {
				t.Fatal(err)
			}
			got, err := spmspv.ProgramBFS(ss, "g", a.NumCols, 0, 0)
			if err != nil {
				t.Fatalf("%v shards=%d: %v", alg, shards, err)
			}
			compareBFS(t, alg.String(), got, want)
		}
	}
}

// TestShardedTransposeRejected pins the documented limitation: row
// pieces of A are column pieces of Aᵀ, so a transposed multiply cannot
// be gathered by concatenation and must fail loudly, not silently
// wrongly.
func TestShardedTransposeRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := testutil.RandomCSC(rng, 40, 30, 3)
	ss := newLocalSharded(t, 2, spmspv.WithEngineOptions(engineOptions(1)))
	if err := ss.Put("g", a); err != nil {
		t.Fatal(err)
	}
	x := testutil.RandomVector(rng, a.NumRows, 5, true)
	_, err := ss.Do(&spmspv.Request{Matrix: "g", X: x,
		Desc: spmspv.Desc{Semiring: "arithmetic", Transpose: true}})
	we := spmspv.AsWireError(err)
	if err == nil || we.Code != spmspv.CodeInvalidRequest {
		t.Fatalf("transposed sharded multiply: got %v, want %s", err, spmspv.CodeInvalidRequest)
	}
}

// TestShardedDiscovery covers the -shard-of deployment: workers
// preload their own row slices, the coordinator boots with an empty
// registry and reconstructs the decomposition from the shards' shapes
// on first touch. A shard holding the wrong row count must fail
// discovery rather than serve a garbled gather.
func TestShardedDiscovery(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := randomIntCSC(t, rng, 101, 101, 4)
	opts := []spmspv.Option{spmspv.WithEngineOptions(engineOptions(1))}
	st := spmspv.NewStore(opts...)
	if err := st.Put("g", a); err != nil {
		t.Fatal(err)
	}

	// Simulate worker preloads: each backend gets its slice directly.
	backends := make([]spmspv.ShardBackend, 3)
	bounds := spmspv.PieceBounds(a.NumRows, 3)
	for w := range backends {
		bs := spmspv.NewStore(opts...)
		if err := bs.Put("g", spmspv.RowSlice(a, bounds[w], bounds[w+1])); err != nil {
			t.Fatal(err)
		}
		backends[w] = bs
	}
	ss, err := spmspv.NewShardedStore(backends)
	if err != nil {
		t.Fatal(err)
	}
	x := randomIntVector(rng, a.NumCols, 12)
	req := &spmspv.Request{Matrix: "g", X: x, Desc: spmspv.Desc{Semiring: "arithmetic"}}
	want, err := st.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ss.Do(req)
	if err != nil {
		t.Fatalf("discovered sharded Do: %v", err)
	}
	sameVector(t, "discovered", got.Y, want.Y)
	if stat, err := ss.Stats("g"); err != nil || stat.Rows != a.NumRows || stat.Cols != a.NumCols {
		t.Fatalf("discovered entry: %+v, %v", stat, err)
	}

	// A mis-sliced worker (wrong row count for its position) must fail.
	bad := spmspv.NewStore(opts...)
	if err := bad.Put("h", spmspv.RowSlice(a, 0, 10)); err != nil {
		t.Fatal(err)
	}
	other := spmspv.NewStore(opts...)
	if err := other.Put("h", spmspv.RowSlice(a, 10, 30)); err != nil {
		t.Fatal(err)
	}
	ss2, err := spmspv.NewShardedStore([]spmspv.ShardBackend{bad, other})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ss2.Do(&spmspv.Request{Matrix: "h", X: x, Desc: spmspv.Desc{Semiring: "arithmetic"}})
	if we := spmspv.AsWireError(err); err == nil || we.Code != spmspv.CodeInternal {
		t.Fatalf("mis-sliced discovery: got %v, want %s", err, spmspv.CodeInternal)
	}
}

// flakyBackend wraps a ShardBackend and fails Do calls while `down` is
// set — the shard-death stand-in. It deliberately does NOT implement
// DoContext, so the coordinator exercises the plain-Do fallback path.
type flakyBackend struct {
	inner spmspv.ShardBackend
	down  atomic.Bool
	calls atomic.Int64
}

func (f *flakyBackend) Do(req *spmspv.Request) (*spmspv.Response, error) {
	f.calls.Add(1)
	if f.down.Load() {
		return nil, &spmspv.WireError{Code: spmspv.CodeInternal, Message: "shard killed (injected)"}
	}
	return f.inner.Do(req)
}

func (f *flakyBackend) Run(p *spmspv.Program) (*spmspv.ProgramResponse, error) {
	return f.inner.Run(p)
}

func (f *flakyBackend) PutMatrix(name string, a *spmspv.Matrix) (*spmspv.StoreStat, error) {
	return f.inner.PutMatrix(name, a)
}

func (f *flakyBackend) DeleteMatrix(name string) error { return f.inner.DeleteMatrix(name) }

func (f *flakyBackend) Matrix(name string) (*spmspv.StoreStat, error) { return f.inner.Matrix(name) }

func (f *flakyBackend) Health(ctx context.Context) (*spmspv.HealthStatus, error) {
	return f.inner.Health(ctx)
}

// TestShardedFaultInjection kills one shard mid-BFS and brings it back
// while the coordinator is retrying: the run must complete with a
// parents vector identical to the unsharded one, and the retry
// counters must show the requeue actually happened. With the shard
// left dead, the run must fail with the shard identified.
func TestShardedFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a := testutil.RandomCSC(rng, 160, 160, 3)
	opts := []spmspv.Option{spmspv.WithEngineOptions(engineOptions(2))}

	st := spmspv.NewStore(opts...)
	if err := st.Put("g", a); err != nil {
		t.Fatal(err)
	}
	want, err := spmspv.ProgramBFS(st, "g", a.NumCols, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	flaky := &flakyBackend{inner: spmspv.NewStore(opts...)}
	backends := []spmspv.ShardBackend{spmspv.NewStore(opts...), flaky, spmspv.NewStore(opts...)}
	ss, err := spmspv.NewShardedStore(backends,
		spmspv.WithShardRetries(4), spmspv.WithShardBackoff(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Put("g", a); err != nil {
		t.Fatal(err)
	}

	// Kill the middle shard after its first few calls, revive it a
	// couple of backoff rounds later — the worker-reboot scenario.
	flaky.down.Store(true)
	revive := time.AfterFunc(12*time.Millisecond, func() { flaky.down.Store(false) })
	defer revive.Stop()

	got, err := spmspv.ProgramBFS(ss, "g", a.NumCols, 0, 0)
	if err != nil {
		t.Fatalf("BFS across shard death: %v", err)
	}
	compareBFS(t, "fault-injected", got, want)

	stats := ss.ShardStats()
	if stats[1].Serve.Retries == 0 {
		t.Fatalf("shard 1 reports no retries after injected death: %+v", stats[1])
	}
	if stat, err := ss.Stats("g"); err != nil || stat.Serve.Retries == 0 {
		t.Fatalf("matrix counters report no retries: %+v, %v", stat, err)
	}

	// Leave it dead: the attempt budget must run out and fail loudly.
	flaky.down.Store(true)
	_, err = ss.Do(&spmspv.Request{Matrix: "g",
		X:    testutil.RandomVector(rng, a.NumCols, 8, true),
		Desc: spmspv.Desc{Semiring: "arithmetic"}})
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("dead shard: got %v, want an error naming shard 1", err)
	}
}

// TestShardedServerCoalescing drives HTTP mults through a Server over a
// sharded backend while a flush is held in flight: every answer must
// match the unsharded store, and the coalescing counters must show
// batches formed — each batch riding one scatter per shard.
func TestShardedServerCoalescing(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	a := randomIntCSC(t, rng, 90, 90, 4)
	opts := []spmspv.Option{spmspv.WithEngineOptions(engineOptions(2))}

	st := spmspv.NewStore(opts...)
	if err := st.Put("g", a); err != nil {
		t.Fatal(err)
	}
	ss := newLocalSharded(t, 2, opts...)
	if err := ss.Put("g", a); err != nil {
		t.Fatal(err)
	}
	rig := newCoalesceRig(t, ss, 8)

	const conc = 16
	xs := make([]*spmspv.Vector, conc)
	wants := make([]*spmspv.Vector, conc)
	reqs := make([]*spmspv.Request, conc)
	for q := range xs {
		xs[q] = randomIntVector(rng, a.NumCols, 1+rng.Intn(16))
		want, err := st.Do(&spmspv.Request{Matrix: "g", X: xs[q], Desc: spmspv.Desc{Semiring: "arithmetic"}})
		if err != nil {
			t.Fatal(err)
		}
		wants[q] = want.Y
		reqs[q] = &spmspv.Request{Matrix: "g", X: xs[q], Desc: spmspv.Desc{Semiring: "arithmetic"}}
	}
	gots, errs := rig.run(t, reqs, nil)
	for q := 0; q < conc; q++ {
		if errs[q] != nil {
			t.Fatalf("slot %d: %v", q, errs[q])
		}
		sameVector(t, "coalesced", gots[q].Y, wants[q])
	}
	stat, err := ss.Stats("g")
	if err != nil {
		t.Fatal(err)
	}
	if stat.Serve.Coalesced == 0 || stat.Serve.Batches == 0 {
		t.Fatalf("no coalescing over the sharded backend: %+v", stat.Serve)
	}
}

// TestShardedHTTPBackends runs the full wire topology in-process: two
// shard servers over TCP-less httptest, a coordinator driving them
// through Clients, and BFS + delete through the coordinator's own HTTP
// surface — the 2-box deployment of the README quickstart.
func TestShardedHTTPBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := testutil.RandomCSC(rng, 130, 130, 3)
	opts := []spmspv.Option{spmspv.WithEngineOptions(engineOptions(2))}

	st := spmspv.NewStore(opts...)
	if err := st.Put("g", a); err != nil {
		t.Fatal(err)
	}
	want, err := spmspv.ProgramBFS(st, "g", a.NumCols, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	var workers []*httptest.Server
	var backends []spmspv.ShardBackend
	for w := 0; w < 2; w++ {
		wsrv := httptest.NewServer(spmspv.NewServer(spmspv.NewStore(opts...)))
		defer wsrv.Close()
		workers = append(workers, wsrv)
		backends = append(backends, spmspv.NewClient(wsrv.URL, spmspv.WithTimeout(10*time.Second)))
	}
	ss, err := spmspv.NewShardedStore(backends,
		spmspv.WithShardLabels([]string{workers[0].URL, workers[1].URL}))
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(spmspv.NewServer(ss))
	defer coord.Close()
	client := spmspv.NewClient(coord.URL)

	if _, err := client.PutMatrix("g", a); err != nil {
		t.Fatal(err)
	}
	got, err := client.BFS("g", 0)
	if err != nil {
		t.Fatal(err)
	}
	compareBFS(t, "http-sharded", got, want)

	// The shards' piece shapes must reproduce the decomposition.
	bounds := spmspv.PieceBounds(a.NumRows, 2)
	for w, b := range backends {
		stat, err := b.Matrix("g")
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
		if stat.Rows != bounds[w+1]-bounds[w] || stat.Cols != a.NumCols {
			t.Fatalf("worker %d holds %dx%d, want %dx%d",
				w, stat.Rows, stat.Cols, bounds[w+1]-bounds[w], a.NumCols)
		}
	}

	// GET /v1/shards on the coordinator; plain servers refuse it.
	resp, err := http.Get(coord.URL + "/v1/shards")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/shards: %v, %v", resp.Status, err)
	}
	resp.Body.Close()

	// Delete through the coordinator removes the pieces from workers.
	if err := client.DeleteMatrix("g"); err != nil {
		t.Fatal(err)
	}
	for w, b := range backends {
		if _, err := b.Matrix("g"); err == nil {
			t.Fatalf("worker %d still holds the deleted matrix", w)
		}
	}
}

// TestClientTimeout pins the hung-server behavior: a client with
// WithTimeout must abandon a stalled request promptly, and a DoContext
// whose context is already done must not block at all.
func TestClientTimeout(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer hung.Close()
	defer close(release)

	c := spmspv.NewClient(hung.URL, spmspv.WithTimeout(80*time.Millisecond))
	req := &spmspv.Request{Matrix: "g",
		X:    spmspv.NewVector(4, 0),
		Desc: spmspv.Desc{Semiring: "arithmetic"}}
	start := time.Now()
	_, err := c.Do(req)
	if err == nil {
		t.Fatal("Do against a hung server returned without error")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("Do blocked %v despite an 80ms timeout", el)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c2 := spmspv.NewClient(hung.URL)
	if _, err := c2.DoContext(ctx, req); err == nil {
		t.Fatal("DoContext with a canceled context returned without error")
	}
	if _, err := c2.RunContext(ctx, &spmspv.Program{}); err == nil {
		t.Fatal("RunContext with a canceled context returned without error")
	}
}

// TestRowSliceMultiplyEquivalence pins the decomposition identity the
// whole design rests on, at the engine level: multiplying each RowSlice
// piece by the full x reproduces exactly that row range of the whole
// multiply, on every registered engine.
func TestRowSliceMultiplyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	a := randomIntCSC(t, rng, 97, 80, 4)
	x := randomIntVector(rng, a.NumCols, 20)
	for _, alg := range spmspv.Algorithms() {
		opts := engineOptions(2)
		whole, err := spmspv.NewMultiplier(a, spmspv.WithAlgorithm(alg), spmspv.WithEngineOptions(opts))
		if err != nil {
			t.Fatal(err)
		}
		want, err := whole.Do(&spmspv.Request{X: x, Desc: spmspv.Desc{Semiring: "arithmetic"}})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 5} {
			bounds := spmspv.PieceBounds(a.NumRows, p)
			re := spmspv.NewVector(a.NumRows, want.Y.NNZ())
			for w := 0; w < p; w++ {
				lo, hi := bounds[w], bounds[w+1]
				if hi <= lo {
					continue
				}
				piece, err := spmspv.NewMultiplier(spmspv.RowSlice(a, lo, hi),
					spmspv.WithAlgorithm(alg), spmspv.WithEngineOptions(opts))
				if err != nil {
					t.Fatal(err)
				}
				part, err := piece.Do(&spmspv.Request{X: x, Desc: spmspv.Desc{Semiring: "arithmetic"}})
				if err != nil {
					t.Fatal(err)
				}
				for k, i := range part.Y.Ind {
					re.Append(i+lo, part.Y.Val[k])
				}
			}
			re.Sorted = true
			sameVector(t, alg.String(), re, want.Y)
		}
	}
}
