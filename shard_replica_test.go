package spmspv_test

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	spmspv "spmspv"
	"spmspv/internal/hybrid"
	"spmspv/internal/testutil"
)

// killAfterBackend serves its first killAfter Do calls, then fails
// every later one — the deterministic "replica dies mid-run" stand-in
// (flakyBackend's switch is externally timed; this one trips itself at
// an exact call count, so the death reliably lands mid-BFS).
type killAfterBackend struct {
	inner     spmspv.ShardBackend
	killAfter int64
	calls     atomic.Int64
}

func (f *killAfterBackend) Do(req *spmspv.Request) (*spmspv.Response, error) {
	if f.calls.Add(1) > f.killAfter {
		return nil, &spmspv.WireError{Code: spmspv.CodeInternal, Message: "replica killed mid-run (injected)"}
	}
	return f.inner.Do(req)
}

func (f *killAfterBackend) Run(p *spmspv.Program) (*spmspv.ProgramResponse, error) {
	return f.inner.Run(p)
}

func (f *killAfterBackend) PutMatrix(name string, a *spmspv.Matrix) (*spmspv.StoreStat, error) {
	return f.inner.PutMatrix(name, a)
}

func (f *killAfterBackend) DeleteMatrix(name string) error { return f.inner.DeleteMatrix(name) }

func (f *killAfterBackend) Matrix(name string) (*spmspv.StoreStat, error) {
	return f.inner.Matrix(name)
}

func (f *killAfterBackend) Health(ctx context.Context) (*spmspv.HealthStatus, error) {
	return f.inner.Health(ctx)
}

// TestReplicaFailover is the tentpole acceptance test: with R replicas
// per band, killing one replica mid-ProgramBFS must (a) produce a
// parents vector bit-identical to the unsharded run, (b) consume ZERO
// retry rounds — the failure is absorbed by in-round failover — and
// (c) be observable through the new failovers counters and the
// replica's membership state.
func TestReplicaFailover(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
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

	for _, r := range []int{2, 3} {
		// 2 bands × r replicas; band 1's primary dies after 2 calls.
		var backends []spmspv.ShardBackend
		var victim *killAfterBackend
		for w := 0; w < 2; w++ {
			for k := 0; k < r; k++ {
				var b spmspv.ShardBackend = spmspv.NewStore(opts...)
				if w == 1 && k == 0 {
					victim = &killAfterBackend{inner: b, killAfter: 2}
					b = victim
				}
				backends = append(backends, b)
			}
		}
		ss, err := spmspv.NewShardedStore(backends,
			spmspv.WithReplication(r),
			spmspv.WithShardRetries(2),
			spmspv.WithShardBackoff(time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Put("g", a); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}

		got, err := spmspv.ProgramBFS(ss, "g", a.NumCols, 0, 0)
		if err != nil {
			t.Fatalf("r=%d: BFS across replica death: %v", r, err)
		}
		compareBFS(t, "replica-failover", got, want)
		if victim.calls.Load() <= victim.killAfter {
			t.Fatalf("r=%d: victim died before the run started (%d calls)", r, victim.calls.Load())
		}

		stat, err := ss.Stats("g")
		if err != nil {
			t.Fatal(err)
		}
		if stat.Serve.Retries != 0 {
			t.Fatalf("r=%d: replica death burned %d retry rounds, want 0 (in-round failover)",
				r, stat.Serve.Retries)
		}
		if stat.Serve.Failovers == 0 {
			t.Fatalf("r=%d: matrix counters report no failovers: %+v", r, stat.Serve)
		}

		stats := ss.ShardStats()
		ks := stats[r] // band-major: band 1 replica 0
		if ks.Shard != 1 || ks.Replica != 0 {
			t.Fatalf("r=%d: ShardStats order: got shard %d replica %d at index %d",
				r, ks.Shard, ks.Replica, r)
		}
		if ks.Serve.Failovers == 0 {
			t.Fatalf("r=%d: killed replica reports no failovers: %+v", r, ks.Serve)
		}
		if ks.State == "alive" {
			t.Fatalf("r=%d: killed replica still reported alive", r)
		}
		if ks.ProbeFailures == 0 {
			t.Fatalf("r=%d: killed replica reports no probe failures", r)
		}
		if ks.MemberEpoch == 0 {
			t.Fatalf("r=%d: member epoch never advanced despite a state transition", r)
		}
		// The band's healthy siblings stayed alive, and the
		// failed-over traffic landed on (at least) the first of them —
		// failover stops at the first success, later replicas stay
		// cold.
		carried := false
		for k := 1; k < r; k++ {
			hs := stats[r+k]
			if hs.State != "alive" {
				t.Fatalf("r=%d: sibling replica %d not alive: %+v", r, k, hs)
			}
			carried = carried || hs.Serve.Requests > 0
		}
		if !carried {
			t.Fatalf("r=%d: no sibling carried the failed-over traffic", r)
		}
	}
}

// TestReplicaAllDead pins the fallback boundary: when EVERY replica of
// a band is dead, in-round failover is exhausted, the bounded retry
// rounds run (and are counted), and the request fails naming the
// shard.
func TestReplicaAllDead(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	a := testutil.RandomCSC(rng, 80, 80, 3)
	opts := []spmspv.Option{spmspv.WithEngineOptions(engineOptions(1))}

	f0 := &flakyBackend{inner: spmspv.NewStore(opts...)}
	f1 := &flakyBackend{inner: spmspv.NewStore(opts...)}
	backends := []spmspv.ShardBackend{
		spmspv.NewStore(opts...), spmspv.NewStore(opts...), // band 0
		f0, f1, // band 1
	}
	ss, err := spmspv.NewShardedStore(backends,
		spmspv.WithReplication(2),
		spmspv.WithShardRetries(1),
		spmspv.WithShardBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Put("g", a); err != nil {
		t.Fatal(err)
	}

	f0.down.Store(true)
	f1.down.Store(true)
	_, err = ss.Do(&spmspv.Request{Matrix: "g",
		X:    testutil.RandomVector(rng, a.NumCols, 8, true),
		Desc: spmspv.Desc{Semiring: "arithmetic"}})
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("whole-group death: got %v, want an error naming shard 1", err)
	}
	stat, serr := ss.Stats("g")
	if serr != nil || stat.Serve.Retries == 0 {
		t.Fatalf("whole-group death burned no retry rounds: %+v, %v", stat.Serve, serr)
	}

	// Revive one replica: the next request must succeed again (the
	// membership deprioritizes the still-dead sibling, it does not
	// eject it).
	f1.down.Store(false)
	if _, err := ss.Do(&spmspv.Request{Matrix: "g",
		X:    testutil.RandomVector(rng, a.NumCols, 8, true),
		Desc: spmspv.Desc{Semiring: "arithmetic"}}); err != nil {
		t.Fatalf("after revival: %v", err)
	}
}

// TestShardErrorNamesFailedReplica checks that a failed band call is
// reported under the label of the replica whose error it carries, not
// the band's first replica's: with both replicas down the error is the
// last one tried, and a non-retryable error from replica B behind a
// down replica A is B's.
func TestShardErrorNamesFailedReplica(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := testutil.RandomCSC(rng, 60, 60, 3)
	opts := []spmspv.Option{spmspv.WithEngineOptions(engineOptions(1))}
	invalid := &spmspv.WireError{Code: spmspv.CodeInvalidRequest, Message: "rejected (injected)"}
	for _, c := range []struct {
		name  string
		bFail error
	}{
		{"both down", nil},
		{"A down, B rejects", invalid},
	} {
		rA := &flakyBackend{inner: spmspv.NewStore(opts...)}
		rB := &flakyBackend{inner: spmspv.NewStore(opts...), fail: c.bFail}
		ss, err := spmspv.NewShardedStore([]spmspv.ShardBackend{rA, rB},
			spmspv.WithReplication(2),
			spmspv.WithShardRetries(0),
			spmspv.WithShardLabels([]string{"replica-A", "replica-B"}))
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Put("g", a); err != nil {
			t.Fatal(err)
		}
		rA.down.Store(true)
		rB.down.Store(true)
		_, err = ss.Do(&spmspv.Request{Matrix: "g",
			X:    testutil.RandomVector(rng, a.NumCols, 8, true),
			Desc: spmspv.Desc{Semiring: "arithmetic"}})
		if rA.calls.Load() != 1 || rB.calls.Load() != 1 {
			t.Fatalf("%s: replica calls A=%d B=%d, want 1 each", c.name, rA.calls.Load(), rB.calls.Load())
		}
		if err == nil || !strings.Contains(err.Error(), "shard 0 (replica-B)") {
			t.Fatalf("%s: got %v, want an error naming shard 0 (replica-B)", c.name, err)
		}
		ss.Close()
	}
}

// TestReplicaHybridBitIdentical sends an unsorted float x whose flops
// sit at the Hybrid engine's switch through a 1-band × 2-replica
// coordinator of default Hybrid stores. The two sides of the switch add
// an unsorted x's products in different orders, so the answer is
// bit-identical to an unsharded Hybrid Store's, with replica 0 up and
// again with it down, only if every store routes x the same way.
func TestReplicaHybridBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	a := testutil.RandomCSC(rng, 2000, 2000, 8)
	opts := []spmspv.Option{spmspv.WithAlgorithm(spmspv.Hybrid), spmspv.WithThreads(2), spmspv.WithSortOutput(true)}

	// x takes columns in random order until its flops reach the switch.
	minFlops := int64(math.Ceil(hybrid.Kappa * float64(a.NZC())))
	x := spmspv.NewVector(a.NumCols, 0)
	var flops int64
	for _, j := range rng.Perm(int(a.NumCols)) {
		if flops >= minFlops {
			break
		}
		x.Append(spmspv.Index(j), rng.Float64()*2-1)
		flops += a.ColLen(spmspv.Index(j))
	}
	x.Sorted = false
	req := func() *spmspv.Request {
		return &spmspv.Request{Matrix: "g", X: x, Desc: spmspv.Desc{Semiring: "arithmetic"}}
	}
	do := func(b spmspv.Executor) *spmspv.Vector {
		t.Helper()
		resp, err := b.Do(req())
		if err != nil {
			t.Fatal(err)
		}
		return resp.Y
	}
	sameBits := func(got, want *spmspv.Vector) bool {
		if got.N != want.N || got.Sorted != want.Sorted || len(got.Ind) != len(want.Ind) {
			return false
		}
		for k := range want.Ind {
			if got.Ind[k] != want.Ind[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
				return false
			}
		}
		return true
	}
	store := func(o ...spmspv.Option) *spmspv.Store {
		st := spmspv.NewStore(o...)
		if err := st.Put("g", a); err != nil {
			t.Fatal(err)
		}
		return st
	}

	vector := do(store(spmspv.WithAlgorithm(spmspv.Bucket), spmspv.WithThreads(2), spmspv.WithSortOutput(true)))
	matrix := do(store(spmspv.WithAlgorithm(spmspv.GraphMat), spmspv.WithThreads(2)))
	if sameBits(vector, matrix) {
		t.Fatal("x does not separate the two sides of the switch; the test proves nothing")
	}
	want := do(store(opts...))

	r0 := &flakyBackend{inner: store(opts...)}
	r1 := &flakyBackend{inner: store(opts...)}
	ss, err := spmspv.NewShardedStore([]spmspv.ShardBackend{r0, r1},
		spmspv.WithReplication(2), spmspv.WithShardRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if err := ss.Put("g", a); err != nil {
		t.Fatal(err)
	}
	if got := do(ss); !sameBits(got, want) {
		t.Fatal("replica 0 up: coordinator answer differs in bits from the unsharded store's")
	}
	r0.down.Store(true)
	if got := do(ss); !sameBits(got, want) {
		t.Fatal("replica 0 down: replica 1's answer differs in bits from the unsharded store's")
	}
	if r1.calls.Load() == 0 {
		t.Fatal("replica 1 never served")
	}
}

// TestReplicaFlapping hammers a coordinator whose replica flaps up and
// down while concurrent requests stream through — the -race exercise
// for the membership state machine, the epoch-versioned views and the
// failover path all running at once. Every request must succeed: the
// sibling replica is always up, so failover covers every down window.
func TestReplicaFlapping(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	a := randomIntCSC(t, rng, 100, 100, 4)
	opts := []spmspv.Option{spmspv.WithEngineOptions(engineOptions(2))}

	st := spmspv.NewStore(opts...)
	if err := st.Put("g", a); err != nil {
		t.Fatal(err)
	}

	flap := &flakyBackend{inner: spmspv.NewStore(opts...)}
	backends := []spmspv.ShardBackend{
		flap, spmspv.NewStore(opts...), // band 0: flapping primary
		spmspv.NewStore(opts...), spmspv.NewStore(opts...), // band 1
	}
	ss, err := spmspv.NewShardedStore(backends,
		spmspv.WithReplication(2),
		spmspv.WithShardRetries(2),
		spmspv.WithShardBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Put("g", a); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	flapperDone := make(chan struct{})
	go func() {
		defer close(flapperDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			flap.down.Store(i%2 == 0)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const conc, iters = 4, 25
	wants := make([]*spmspv.Vector, conc)
	xs := make([]*spmspv.Vector, conc)
	for q := range xs {
		xs[q] = randomIntVector(rng, a.NumCols, 1+rng.Intn(16))
		want, err := st.Do(&spmspv.Request{Matrix: "g", X: xs[q], Desc: spmspv.Desc{Semiring: "arithmetic"}})
		if err != nil {
			t.Fatal(err)
		}
		wants[q] = want.Y
	}
	errs := make(chan error, conc)
	for q := 0; q < conc; q++ {
		go func(q int) {
			for i := 0; i < iters; i++ {
				got, err := ss.Do(&spmspv.Request{Matrix: "g", X: xs[q], Desc: spmspv.Desc{Semiring: "arithmetic"}})
				if err != nil {
					errs <- err
					return
				}
				if got.Y.NNZ() != wants[q].NNZ() {
					errs <- &spmspv.WireError{Code: spmspv.CodeInternal, Message: "flapping run diverged"}
					return
				}
			}
			errs <- nil
		}(q)
	}
	for q := 0; q < conc; q++ {
		if err := <-errs; err != nil {
			t.Fatalf("request stream under flapping replica: %v", err)
		}
	}
	close(stop)
	<-flapperDone
}

// TestReplicatedPutFanout pins the write path: Put lands band w's
// piece on EVERY replica of group w, Delete removes all copies, and a
// replica that rejects its upload rolls the whole Put back — no
// replica keeps a piece of a failed upload.
func TestReplicatedPutFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	a := randomIntCSC(t, rng, 90, 70, 3)
	opts := []spmspv.Option{spmspv.WithEngineOptions(engineOptions(1))}

	stores := make([]*spmspv.Store, 4)
	backends := make([]spmspv.ShardBackend, 4)
	for i := range stores {
		stores[i] = spmspv.NewStore(opts...)
		backends[i] = stores[i]
	}
	ss, err := spmspv.NewShardedStore(backends, spmspv.WithReplication(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Put("g", a); err != nil {
		t.Fatal(err)
	}
	bounds := spmspv.PieceBounds(a.NumRows, 2)
	for i, bs := range stores {
		w := i / 2
		stat, err := bs.Matrix("g")
		if err != nil {
			t.Fatalf("replica %d lacks its piece: %v", i, err)
		}
		if stat.Rows != bounds[w+1]-bounds[w] || stat.Cols != a.NumCols {
			t.Fatalf("replica %d holds %dx%d, want %dx%d",
				i, stat.Rows, stat.Cols, bounds[w+1]-bounds[w], a.NumCols)
		}
	}
	if !ss.Delete("g") {
		t.Fatal("Delete reported the matrix unregistered")
	}
	for i, bs := range stores {
		if _, err := bs.Matrix("g"); err == nil {
			t.Fatalf("replica %d still holds the deleted matrix", i)
		}
	}

	// Rollback: one replica down during upload → Put fails, and the
	// replicas that DID accept their piece give it back.
	flaky := &flakyBackend{inner: spmspv.NewStore(opts...)}
	flaky.down.Store(true)
	rb := []spmspv.ShardBackend{stores[0], stores[1], stores[2], &putFailBackend{flaky}}
	ss2, err := spmspv.NewShardedStore(rb, spmspv.WithReplication(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ss2.Put("h", a); err == nil {
		t.Fatal("Put with a failing replica did not fail")
	}
	for i, bs := range stores[:3] {
		if _, err := bs.Matrix("h"); err == nil {
			t.Fatalf("failed Put left its piece on replica %d", i)
		}
	}
}

// putFailBackend fails PutMatrix while its flaky core is down
// (flakyBackend only fails Do).
type putFailBackend struct {
	*flakyBackend
}

func (f *putFailBackend) PutMatrix(name string, a *spmspv.Matrix) (*spmspv.StoreStat, error) {
	if f.down.Load() {
		return nil, &spmspv.WireError{Code: spmspv.CodeInternal, Message: "upload refused (injected)"}
	}
	return f.flakyBackend.PutMatrix(name, a)
}

// TestReplicatedDiscovery covers the rebooted-worker scenarios the
// membership-ordered probe handles: a band resolves through a healthy
// sibling when its primary is down at discovery time, and a replica
// that answers-but-lacks-the-piece (a worker rebooted without its
// preload) does not hide the sibling's copy.
func TestReplicatedDiscovery(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	a := randomIntCSC(t, rng, 101, 101, 4)
	opts := []spmspv.Option{spmspv.WithEngineOptions(engineOptions(1))}

	st := spmspv.NewStore(opts...)
	if err := st.Put("g", a); err != nil {
		t.Fatal(err)
	}
	x := randomIntVector(rng, a.NumCols, 12)
	req := &spmspv.Request{Matrix: "g", X: x, Desc: spmspv.Desc{Semiring: "arithmetic"}}
	want, err := st.Do(req)
	if err != nil {
		t.Fatal(err)
	}

	// Preload pieces worker-style onto 2 bands × 2 replicas, except:
	// band 0's primary is DOWN at discovery, and band 1's primary
	// rebooted empty (responds, holds nothing).
	bounds := spmspv.PieceBounds(a.NumRows, 2)
	newPiece := func(w int, load bool) *spmspv.Store {
		bs := spmspv.NewStore(opts...)
		if load {
			if err := bs.Put("g", spmspv.RowSlice(a, bounds[w], bounds[w+1])); err != nil {
				t.Fatal(err)
			}
		}
		return bs
	}
	downPrimary := &flakyBackend{inner: newPiece(0, true)}
	downPrimary.down.Store(true)
	groups := [][]spmspv.ShardBackend{
		{downPrimary, newPiece(0, true)},
		{newPiece(1, false), newPiece(1, true)}, // primary rebooted empty
	}
	ss, err := spmspv.NewReplicatedShardedStore(groups,
		spmspv.WithShardRetries(1), spmspv.WithShardBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ss.Do(req)
	if err != nil {
		t.Fatalf("discovery through degraded replicas: %v", err)
	}
	sameVector(t, "replicated-discovery", got.Y, want.Y)

	// The down primary was health-flagged by its failed probe. The
	// empty-but-responsive one answered the discovery probe (success)
	// but failed over during the scatter (it holds nothing), so it may
	// be suspect — it must not be dead, and its sibling carried the
	// band.
	stats := ss.ShardStats()
	if stats[0].State == "alive" {
		t.Fatalf("down primary still alive after failed discovery probe: %+v", stats[0])
	}
	if stats[2].State == "dead" {
		t.Fatalf("empty-but-responsive replica flagged dead: %+v", stats[2])
	}
	if stats[3].State != "alive" || stats[3].Serve.Requests == 0 {
		t.Fatalf("band 1 sibling did not carry the band: %+v", stats[3])
	}
}

// TestProbeNow drives the coordinator's synchronous probe round: a
// probe-capable backend (a *Store) reports healthy; after swapping in
// a dead HTTP worker the probe flags it without any serving traffic.
func TestProbeNow(t *testing.T) {
	opts := []spmspv.Option{spmspv.WithEngineOptions(engineOptions(1))}
	dead := spmspv.NewClient("http://127.0.0.1:1", spmspv.WithTimeout(200*time.Millisecond))
	backends := []spmspv.ShardBackend{spmspv.NewStore(opts...), dead}
	ss, err := spmspv.NewShardedStore(backends, spmspv.WithReplication(2),
		spmspv.WithProbeTimeout(250*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	epoch0 := ss.MemberEpoch()
	ss.ProbeNow(context.Background())
	stats := ss.ShardStats()
	if stats[0].State != "alive" {
		t.Fatalf("local store flagged unhealthy by probe: %+v", stats[0])
	}
	if stats[1].State == "alive" {
		t.Fatalf("unreachable worker still alive after probe: %+v", stats[1])
	}
	if stats[1].ProbeFailures == 0 {
		t.Fatalf("unreachable worker reports no probe failures: %+v", stats[1])
	}
	if ss.MemberEpoch() == epoch0 {
		t.Fatal("member epoch did not advance on a state transition")
	}
}
