package spmspv

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"spmspv/internal/cluster"
	"spmspv/internal/par"
	"spmspv/internal/perf"
	"spmspv/internal/sparse"
)

// ShardBackend is the surface the shard coordinator drives on each
// shard replica: an Executor that also manages named matrices and
// answers the membership layer's liveness probe (Health; GET
// /v1/health for remote workers). Both *Store (in-process shards) and
// *Client (remote spmspv-serve shards over the binary wire) satisfy
// it, so a coordinator mixes local and remote backends freely.
type ShardBackend interface {
	Executor
	PutMatrix(name string, a *Matrix) (*StoreStat, error)
	DeleteMatrix(name string) error
	Matrix(name string) (*StoreStat, error)
	Health(ctx context.Context) (*HealthStatus, error)
}

// contextExecutor is the optional cancellable form of Executor. When a
// backend offers it (*Client does), the coordinator runs each shard
// attempt under its per-attempt timeout, so a hung shard is abandoned
// and retried instead of stalling the whole scatter.
type contextExecutor interface {
	DoContext(ctx context.Context, req *Request) (*Response, error)
}

// ShardedStore distributes named matrices across replicated shard
// groups by row range and serves multiplies as parallel
// scatter/gather — the paper's row-split decomposition
// (sparse.RowSplit's PieceBounds, CombBLAS's 1D distribution) promoted
// from an intra-process trick to the unit of service. Put slices an
// uploaded matrix with sparse.RowSlice and uploads band w's piece to
// EVERY replica of group w; Do and Run fan each multiply out on the
// internal/par executor, every band computing its row range of y
// against the full x, and because row ranges are disjoint the gather
// is a pure concatenation — no merge semiring, no accumulation pass.
// Transposed multiplies are the one shape this decomposition cannot
// serve (row pieces of A are column pieces of Aᵀ, whose partial
// products overlap and would need a semiring merge); they are rejected
// with invalid_request.
//
// Replication (WithReplication, NewReplicatedShardedStore) sits UNDER
// the retry loop: the backends of one band form a
// cluster.ReplicaGroup, tracked by a health-checked
// cluster.Membership. Reads pick the preferred alive replica and fail
// over to the next replica within the same dispatch round on transport
// error or health-flagged death, so killing one replica of an R≥2
// group costs a failover (counted) and ZERO retry rounds — only a band
// whose replicas ALL fail falls back to the bounded retry/backoff
// below. The membership view is epoch-versioned: one scatter routes
// every shard call against one consistent snapshot of the fleet.
//
// A ShardedStore is an Executor and a ServingStore: Client code,
// Store.Run programs, internal/algorithms and the HTTP Server all work
// against it unchanged, coalescing included.
//
// Shard calls that fail retryably on every replica — transport faults,
// server-side internal errors, unknown_matrix from a worker that
// rebooted and is re-preloading — are requeued in bounded backoff
// rounds (see WithShardRetries), so a whole-group death mid-BFS
// degrades to a retried round, not a failed request.
type ShardedStore struct {
	groups  [][]ShardBackend       // band → replicas
	labels  [][]string             // parallel to groups
	rgroups []cluster.ReplicaGroup // band → member ids
	flat    []ShardBackend         // members in id order
	members *cluster.Membership
	exec    *par.Executor

	attempts      int           // tries per shard call, ≥ 1
	backoff       time.Duration // sleep before the first retry round, doubling
	timeout       time.Duration // per-attempt deadline for cancellable backends
	replication   int           // group size NewShardedStore folds a flat backend list into
	probeInterval time.Duration // background probe period (0 = passive membership)
	probeTimeout  time.Duration // per-probe deadline
	flatLabels    []string      // WithShardLabels input, regrouped at construction

	mu   sync.RWMutex
	mats map[string]*shardedMatrix

	// programs is the coordinator-side stored-procedure registry (see
	// programs.go): programs compile and loop on the coordinator, and
	// only the mult ops scatter.
	programs programRegistry

	replStats [][]*perf.ServeStats // per (band, replica) serving counters
}

// shardedMatrix is the coordinator's registry entry: the global shape
// and the row bounds assigning band w rows [bounds[w], bounds[w+1]).
type shardedMatrix struct {
	rows, cols Index
	nnz        int64
	bounds     []Index
	stats      *perf.ServeStats
}

// ShardOption configures NewShardedStore.
type ShardOption func(*ShardedStore)

// WithShardRetries sets how many times one shard call is retried after
// every replica of its group failed retryably (default 2, so 3 rounds
// total). 0 disables retry. In-round replica failover is NOT a retry
// and is always on; this bounds the rounds a fully-failed group burns.
func WithShardRetries(n int) ShardOption {
	return func(ss *ShardedStore) {
		if n < 0 {
			n = 0
		}
		ss.attempts = n + 1
	}
}

// WithShardBackoff sets the sleep before the first retry round
// (default 20ms); each further round doubles it. The sleep runs on the
// coordinating goroutine, never inside executor workers.
func WithShardBackoff(d time.Duration) ShardOption {
	return func(ss *ShardedStore) { ss.backoff = d }
}

// WithShardTimeout bounds each shard attempt (default 30s) for
// backends that support cancellation; attempts that outlive it are
// abandoned and count as retryable failures. Zero disables the
// per-attempt deadline.
func WithShardTimeout(d time.Duration) ShardOption {
	return func(ss *ShardedStore) { ss.timeout = d }
}

// WithReplication folds NewShardedStore's flat backend list into
// groups of r consecutive backends, each group serving one row band as
// r identical replicas (default 1: every backend its own band). The
// backend count must be a multiple of r.
func WithReplication(r int) ShardOption {
	return func(ss *ShardedStore) {
		if r < 1 {
			r = 1
		}
		ss.replication = r
	}
}

// WithProbeInterval sets the period of the membership layer's
// background health probe (GET /v1/health against probe-capable
// backends). Zero — the default — runs the membership passively: no
// probe goroutine, member states driven by serving-call outcomes and
// explicit ProbeNow calls. spmspv-serve coordinators enable it via
// -probe-interval.
func WithProbeInterval(d time.Duration) ShardOption {
	return func(ss *ShardedStore) { ss.probeInterval = d }
}

// WithProbeTimeout bounds each health probe (default 2s).
func WithProbeTimeout(d time.Duration) ShardOption {
	return func(ss *ShardedStore) { ss.probeTimeout = d }
}

// WithShardLabels names the backends for ShardStats reporting (e.g.
// their URLs), in the same flat band-major order as the backend list.
// Unlabeled replicas report as "shard/w/r".
func WithShardLabels(labels []string) ShardOption {
	return func(ss *ShardedStore) {
		ss.flatLabels = labels
	}
}

// NewShardedStore returns a coordinator over the given backends,
// grouped into row bands of WithReplication(r) consecutive replicas
// each (one band per backend by default). The band count — and so the
// row decomposition of every matrix served — is fixed at construction.
func NewShardedStore(backends []ShardBackend, opts ...ShardOption) (*ShardedStore, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("spmspv: sharded store needs at least one backend")
	}
	scratch := &ShardedStore{replication: 1}
	for _, o := range opts {
		o(scratch)
	}
	r := scratch.replication
	if len(backends)%r != 0 {
		return nil, fmt.Errorf("spmspv: %d backends do not fold into replica groups of %d", len(backends), r)
	}
	groups := make([][]ShardBackend, len(backends)/r)
	for w := range groups {
		groups[w] = backends[w*r : (w+1)*r]
	}
	return NewReplicatedShardedStore(groups, opts...)
}

// NewReplicatedShardedStore returns a coordinator over explicit
// replica groups: groups[w] lists the backends holding identical
// copies of row band w (group sizes may differ, matching the
// "a|b,c" CLI form). Every group needs at least one backend.
func NewReplicatedShardedStore(groups [][]ShardBackend, opts ...ShardOption) (*ShardedStore, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("spmspv: sharded store needs at least one replica group")
	}
	sizes := make([]int, len(groups))
	nmembers := 0
	for w, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("spmspv: replica group %d is empty", w)
		}
		sizes[w] = len(g)
		nmembers += len(g)
	}
	ss := &ShardedStore{
		groups:       groups,
		rgroups:      cluster.GroupsOf(sizes),
		flat:         make([]ShardBackend, 0, nmembers),
		exec:         par.Default(),
		attempts:     3,
		backoff:      20 * time.Millisecond,
		timeout:      30 * time.Second,
		replication:  1,
		probeTimeout: 2 * time.Second,
		mats:         map[string]*shardedMatrix{},
		labels:       make([][]string, len(groups)),
		replStats:    make([][]*perf.ServeStats, len(groups)),
	}
	for w, g := range groups {
		ss.flat = append(ss.flat, g...)
		ss.labels[w] = make([]string, len(g))
		ss.replStats[w] = make([]*perf.ServeStats, len(g))
		for r := range g {
			ss.labels[w][r] = fmt.Sprintf("shard/%d/%d", w, r)
			ss.replStats[w][r] = &perf.ServeStats{}
		}
	}
	for _, o := range opts {
		o(ss)
	}
	if ss.flatLabels != nil {
		i := 0
		for w := range ss.labels {
			for r := range ss.labels[w] {
				if i < len(ss.flatLabels) && ss.flatLabels[i] != "" {
					ss.labels[w][r] = ss.flatLabels[i]
				}
				i++
			}
		}
	}
	ss.members = cluster.New(nmembers, ss.probeMember, cluster.Config{
		Interval: ss.probeInterval,
		Timeout:  ss.probeTimeout,
	})
	if ss.probeInterval > 0 {
		ss.members.Start()
	}
	return ss, nil
}

// NewLocalShardedStore is the in-process form: n fresh *Store bands
// (each with WithReplication(r) replica Stores, each built with
// storeOpts) behind one coordinator — the single-box configuration the
// shard benchmarks measure, and a drop-in *Store replacement for
// testing the scatter/gather and failover paths without sockets.
func NewLocalShardedStore(n int, storeOpts []Option, opts ...ShardOption) (*ShardedStore, error) {
	if n <= 0 {
		return nil, fmt.Errorf("spmspv: sharded store needs at least one shard, got %d", n)
	}
	scratch := &ShardedStore{replication: 1}
	for _, o := range opts {
		o(scratch)
	}
	r := scratch.replication
	backends := make([]ShardBackend, n*r)
	labels := make([]string, n*r)
	for i := range backends {
		backends[i] = NewStore(storeOpts...)
		labels[i] = fmt.Sprintf("local/%d/%d", i/r, i%r)
	}
	return NewShardedStore(backends, append([]ShardOption{WithShardLabels(labels)}, opts...)...)
}

// probeMember is the membership layer's Prober: member i's backend is
// health-checked through its Health method.
func (ss *ShardedStore) probeMember(ctx context.Context, i int) error {
	_, err := ss.flat[i].Health(ctx)
	return err
}

// ProbeNow runs one synchronous membership probe round — every
// replica's health endpoint checked in parallel — independent of the
// background probe loop. Useful for tests and for operators who want a
// fresh view before reading ShardStats.
func (ss *ShardedStore) ProbeNow(ctx context.Context) {
	ss.members.ProbeAll(ctx)
}

// MemberEpoch reports the membership view version; it increments on
// every member state transition.
func (ss *ShardedStore) MemberEpoch() uint64 { return ss.members.Epoch() }

// Close stops the background membership prober (if one was started).
// Serving through a closed coordinator keeps working; member states
// just stop refreshing on their own.
func (ss *ShardedStore) Close() { ss.members.Stop() }

// Shards reports the number of row bands (replica groups).
func (ss *ShardedStore) Shards() int { return len(ss.groups) }

// Replicas reports band w's replica count.
func (ss *ShardedStore) Replicas(w int) int { return len(ss.groups[w]) }

// ShardStat is one shard replica's coordinator-side serving counters
// and membership state: every scatter call issued to the replica lands
// in Serve (failed-over calls under Serve.Failovers, requeue rounds
// under Serve.Retries), and the membership layer contributes the
// health-state fields.
type ShardStat struct {
	Shard   int    `json:"shard"`
	Replica int    `json:"replica"`
	Addr    string `json:"addr"`
	// State is the membership classification: alive, suspect or dead.
	State string `json:"state"`
	// MemberEpoch is the membership view version at snapshot time; it
	// increments on every member state transition anywhere in the
	// fleet.
	MemberEpoch uint64 `json:"member_epoch"`
	// ProbeFailures counts the replica's failed health probes plus
	// failed serving calls — the membership layer's failure feed.
	ProbeFailures int64              `json:"probe_failures"`
	Serve         perf.ServeSnapshot `json:"serve"`
}

// ShardStats reports the per-replica counters in band-major order (so
// with replication 1 the index is the shard index, as before).
func (ss *ShardedStore) ShardStats() []ShardStat {
	epoch := ss.members.Epoch()
	out := make([]ShardStat, 0, len(ss.flat))
	for w := range ss.groups {
		for r := range ss.groups[w] {
			info := ss.members.Info(ss.rgroups[w].Members[r])
			out = append(out, ShardStat{
				Shard:         w,
				Replica:       r,
				Addr:          ss.labels[w][r],
				State:         info.State.String(),
				MemberEpoch:   epoch,
				ProbeFailures: info.Failures,
				Serve:         ss.replStats[w][r].Snapshot(),
			})
		}
	}
	return out
}

// Put slices a into len(groups) row-range pieces and uploads band w's
// piece to EVERY replica of group w under the same name — empty pieces
// (more bands than rows) are simply not uploaded. A failed upload
// rolls back the pieces that landed, so a failed Put leaves no
// stragglers. Replica uploads run in parallel on the executor.
func (ss *ShardedStore) Put(name string, a *Matrix) error {
	if err := validStoreName(name); err != nil {
		return err
	}
	if a == nil {
		return fmt.Errorf("spmspv: Put with nil matrix")
	}
	if err := a.Validate(); err != nil {
		return err
	}
	n := len(ss.groups)
	bounds := sparse.PieceBounds(a.NumRows, n)

	// Slice once per band, then fan each piece out to all its replicas.
	pieces := make([]*Matrix, n)
	ss.exec.Run(n, n, func(_, w int) {
		if lo, hi := bounds[w], bounds[w+1]; hi > lo {
			pieces[w] = sparse.RowSlice(a, lo, hi)
		}
	}, nil)

	type upload struct {
		w, r int
		err  error
	}
	var ups []*upload
	for w := range ss.groups {
		if pieces[w] == nil {
			continue
		}
		for r := range ss.groups[w] {
			ups = append(ups, &upload{w: w, r: r})
		}
	}
	if len(ups) > 0 {
		ss.exec.Run(len(ups), len(ups), func(_, q int) {
			u := ups[q]
			_, u.err = ss.groups[u.w][u.r].PutMatrix(name, pieces[u.w])
			ss.reportOutcome(u.w, u.r, u.err)
		}, nil)
	}
	for _, u := range ups {
		if u.err != nil {
			for _, v := range ups {
				if v.err == nil {
					ss.groups[v.w][v.r].DeleteMatrix(name)
				}
			}
			return wireErrorf(CodeInternal, "uploading shard %d replica %d (%s) of %q: %v",
				u.w, u.r, ss.labels[u.w][u.r], name, u.err)
		}
	}
	ss.mu.Lock()
	ss.mats[name] = &shardedMatrix{
		rows: a.NumRows, cols: a.NumCols, nnz: a.NNZ(),
		bounds: bounds, stats: &perf.ServeStats{},
	}
	ss.mu.Unlock()
	return nil
}

// reportOutcome feeds one serving-call outcome to the membership state
// machine — the passive half of health checking, so even a coordinator
// with no probe loop flags members from the traffic it serves. Only
// transport-ish failures count against health: a deterministic
// validation error says nothing about liveness.
func (ss *ShardedStore) reportOutcome(w, r int, err error) {
	m := ss.rgroups[w].Members[r]
	switch {
	case err == nil:
		ss.members.ReportSuccess(m)
	case retryableShardErr(err):
		ss.members.ReportFailure(m)
	}
}

// Delete unregisters a matrix and best-effort removes its pieces from
// every replica; it reports whether the name was registered.
func (ss *ShardedStore) Delete(name string) bool {
	ss.mu.Lock()
	sm, ok := ss.mats[name]
	delete(ss.mats, name)
	ss.mu.Unlock()
	if !ok {
		return false
	}
	n := len(ss.flat)
	ss.exec.Run(n, n, func(_, i int) {
		if w, _ := ss.bandOf(i); sm.bounds[w+1] > sm.bounds[w] {
			ss.flat[i].DeleteMatrix(name)
		}
	}, nil)
	return true
}

// bandOf maps a flat member id back to its (band, replica) position.
func (ss *ShardedStore) bandOf(member int) (w, r int) {
	for w := range ss.rgroups {
		ms := ss.rgroups[w].Members
		if member >= ms[0] && member <= ms[len(ms)-1] {
			return w, member - ms[0]
		}
	}
	return -1, -1
}

// List returns the registered names in sorted order.
func (ss *ShardedStore) List() []string {
	ss.mu.RLock()
	names := make([]string, 0, len(ss.mats))
	for name := range ss.mats {
		names = append(names, name)
	}
	ss.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Stats reports one matrix's registry entry. Built is true once the
// coordinator has served at least one multiply against it — the
// sharded analogue of "the engine exists" — since the per-shard engine
// builds happen inside the shards.
func (ss *ShardedStore) Stats(name string) (StoreStat, error) {
	ss.mu.RLock()
	sm := ss.mats[name]
	ss.mu.RUnlock()
	if sm == nil {
		if name == "" {
			return StoreStat{}, wireErrorf(CodeInvalidRequest, "request names no matrix")
		}
		return StoreStat{}, wireErrorf(CodeUnknownMatrix, "matrix %q is not registered", name)
	}
	return ss.statOf(name, sm), nil
}

func (ss *ShardedStore) statOf(name string, sm *shardedMatrix) StoreStat {
	snap := sm.stats.Snapshot()
	return StoreStat{
		Name: name, Rows: sm.rows, Cols: sm.cols, NNZ: sm.nnz,
		Built: snap.Requests > snap.Failures,
		Serve: snap,
	}
}

// StatsAll reports every registered matrix, sorted by name.
func (ss *ShardedStore) StatsAll() []StoreStat {
	ss.mu.RLock()
	stats := make([]StoreStat, 0, len(ss.mats))
	for name, sm := range ss.mats {
		stats = append(stats, ss.statOf(name, sm))
	}
	ss.mu.RUnlock()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
	return stats
}

// lookup resolves a name to its registry entry, falling back to
// discovery for matrices the shards already hold (see discover).
func (ss *ShardedStore) lookup(name string) (*shardedMatrix, error) {
	if name == "" {
		return nil, wireErrorf(CodeInvalidRequest, "request names no matrix")
	}
	ss.mu.RLock()
	sm := ss.mats[name]
	ss.mu.RUnlock()
	if sm != nil {
		return sm, nil
	}
	if err := validStoreName(name); err != nil {
		return nil, wireErrorf(CodeInvalidRequest, "%v", err)
	}
	return ss.discover(name)
}

// discover reconstructs the registry entry for a matrix the shards
// already hold — the -shard-of deployment, where worker w preloads its
// own row slice and the coordinator boots with an empty registry. Each
// band is probed through its replicas in membership-preference order
// (see probeBand) rather than the PR 8 one-shot probe, so a band with
// one suspect member still resolves through a healthy replica, and a
// worker rebooted mid-discovery is retried on the next lookup. The
// per-band row counts must reproduce PieceBounds of the summed total
// (bands whose piece is empty hold nothing), which pins the
// decomposition before any multiply is served against it.
func (ss *ShardedStore) discover(name string) (*shardedMatrix, error) {
	n := len(ss.groups)
	view := ss.members.View()
	stats := make([]*StoreStat, n)
	errs := make([]error, n)
	ss.exec.Run(n, n, func(_, w int) {
		stats[w], errs[w] = ss.probeBand(w, name, view)
	}, nil)
	var rows Index
	cols := Index(-1)
	var nnz int64
	found := false
	for w := 0; w < n; w++ {
		if errs[w] != nil {
			if AsWireError(errs[w]).Code == CodeUnknownMatrix {
				continue // legitimately absent iff its piece is empty, checked below
			}
			return nil, wireErrorf(CodeInternal, "probing shard %d for %q: %v", w, name, errs[w])
		}
		found = true
		rows += stats[w].Rows
		nnz += stats[w].NNZ
		if cols >= 0 && stats[w].Cols != cols {
			return nil, wireErrorf(CodeInternal,
				"shards disagree on %q's width: %d vs %d", name, cols, stats[w].Cols)
		}
		cols = stats[w].Cols
	}
	if !found {
		return nil, wireErrorf(CodeUnknownMatrix, "matrix %q is not registered on any shard", name)
	}
	bounds := sparse.PieceBounds(rows, n)
	for w := 0; w < n; w++ {
		var got Index
		if errs[w] == nil {
			got = stats[w].Rows
		}
		if want := bounds[w+1] - bounds[w]; got != want {
			return nil, wireErrorf(CodeInternal,
				"shard %d holds %d rows of %q, want %d of a %d-row %d-way row split",
				w, got, name, want, rows, n)
		}
	}
	sm := &shardedMatrix{rows: rows, cols: cols, nnz: nnz, bounds: bounds, stats: &perf.ServeStats{}}
	ss.mu.Lock()
	if cur, ok := ss.mats[name]; ok {
		sm = cur // lost a discovery race; keep the established entry
	} else {
		ss.mats[name] = sm
	}
	ss.mu.Unlock()
	return sm, nil
}

// probeBand asks band w's replicas for their piece of name in
// membership-preference order: the first replica holding the piece
// answers. A replica that answers unknown_matrix is healthy (it spoke)
// but lacks the piece — a later replica may still hold it (a worker
// that rebooted without its preload does not hide a sibling's copy).
// Only when every replica failed transport-wise does the band report a
// probe failure.
func (ss *ShardedStore) probeBand(w int, name string, view cluster.View) (*StoreStat, error) {
	g := ss.rgroups[w]
	var lastErr error
	unknown := false
	for _, r := range g.Order(view) {
		stat, err := ss.groups[w][r].Matrix(name)
		if err == nil {
			ss.members.ReportSuccess(g.Members[r])
			return stat, nil
		}
		if AsWireError(err).Code == CodeUnknownMatrix {
			ss.members.ReportSuccess(g.Members[r])
			unknown = true
			continue
		}
		ss.reportOutcome(w, r, err)
		lastErr = err
	}
	if lastErr != nil {
		return nil, lastErr
	}
	if unknown {
		return nil, wireErrorf(CodeUnknownMatrix, "matrix %q is not registered", name)
	}
	return nil, wireErrorf(CodeInternal, "shard %d has no probeable replicas", w)
}

// shardCall is one band's slice of a scatter: the per-band request
// (masks sliced to the band's row range) and, once dispatched, its
// response or error.
type shardCall struct {
	band int
	req  *Request
	resp *Response
	err  error
	// replica is the replica whose error err holds.
	replica int
}

// retryableShardErr classifies shard-call failures. Transport faults
// and server-side internal errors are retryable (the shard may be
// restarting), and so is unknown_matrix — a rebooted -shard-of worker
// that re-preloaded its slice answers the retry. Validation errors are
// deterministic: retrying cannot change them, so they fail the request
// immediately (and failing over to a replica holding the identical
// piece cannot change them either).
func retryableShardErr(err error) bool {
	var we *WireError
	if !errors.As(err, &we) {
		return true
	}
	switch we.Code {
	case CodeInternal, CodeUnknownMatrix:
		return true
	}
	return false
}

// call issues one shard-replica request, under the per-attempt timeout
// when the backend supports cancellation. In-process backends do not:
// they cannot hang on a transport, so a deadline timer would be pure
// per-call overhead on the hot path.
func (ss *ShardedStore) call(w, r int, req *Request) (*Response, error) {
	b := ss.groups[w][r]
	if ce, ok := b.(contextExecutor); ok && ss.timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), ss.timeout)
		defer cancel()
		return ce.DoContext(ctx, req)
	}
	return b.Do(req)
}

// tryReplicas executes one dispatch round for one band call: the
// band's replicas are walked in the view's read-preference order
// (alive → suspect → dead), failing over to the next replica WITHIN
// this round on any retryable error. Each abandonment counts one
// failover on the abandoned replica's counters and on the matrix's;
// membership is fed every outcome. The call only remains failed — and
// so eligible for a retry round — when every replica failed.
func (ss *ShardedStore) tryReplicas(c *shardCall, view cluster.View, stats *perf.ServeStats) {
	g := ss.rgroups[c.band]
	order := g.Order(view)
	for k, r := range order {
		t := time.Now()
		resp, err := ss.call(c.band, r, c.req)
		rs := ss.replStats[c.band][r]
		rs.Observe(time.Since(t), err != nil)
		ss.reportOutcome(c.band, r, err)
		c.resp, c.err, c.replica = resp, err, r
		if err == nil || !retryableShardErr(err) {
			return
		}
		if k < len(order)-1 {
			rs.ObserveFailovers(1)
			stats.ObserveFailovers(1)
		}
	}
}

// dispatch executes every band call in parallel on the executor — one
// replica-failover round per call per dispatch round — then requeues
// calls whose whole group failed retryably in bounded backoff rounds.
// The first round routes every call against one consistent membership
// view (taken here, at scatter start); each retry round refreshes the
// view, so a replica flagged dead between rounds is deprioritized. The
// backoff sleep runs here, on the coordinating goroutine, so executor
// workers are never parked under a timer. A non-retryable failure, or
// a call still failing after the attempt budget, fails the whole
// scatter with the shard identified in the error.
func (ss *ShardedStore) dispatch(calls []*shardCall, stats *perf.ServeStats) error {
	pending := calls
	backoff := ss.backoff
	view := ss.members.View()
	for attempt := 1; ; attempt++ {
		one := func(c *shardCall) { ss.tryReplicas(c, view, stats) }
		if len(pending) == 1 {
			// A single band needs no fan-out; keep the one-shard
			// configuration's dispatch cost at a plain call.
			one(pending[0])
		} else {
			ss.exec.Run(len(pending), len(pending), func(_, q int) {
				one(pending[q])
			}, nil)
		}
		var retry []*shardCall
		for _, c := range pending {
			if c.err == nil {
				continue
			}
			if attempt >= ss.attempts || !retryableShardErr(c.err) {
				we := AsWireError(c.err)
				return wireErrorf(we.Code, "shard %d (%s): %s",
					c.band, ss.labels[c.band][c.replica], we.Message)
			}
			retry = append(retry, c)
		}
		if len(retry) == 0 {
			return nil
		}
		for _, c := range retry {
			for r := range ss.replStats[c.band] {
				ss.replStats[c.band][r].ObserveRetries(1)
			}
		}
		stats.ObserveRetries(len(retry))
		time.Sleep(backoff)
		backoff *= 2
		view = ss.members.View()
		pending = retry
	}
}

// doSharded validates req against the matrix's global shape, scatters
// it across the bands owning nonempty row ranges, and gathers the
// row-disjoint results by concatenation (list form) or offset bitmap
// merge (bitmap form).
func (ss *ShardedStore) doSharded(sm *shardedMatrix, name string, req *Request) (*Response, error) {
	if err := req.Validate(sm.rows, sm.cols); err != nil {
		return nil, wireErrorf(CodeInvalidRequest, "%v", err)
	}
	if req.Desc.Transpose {
		return nil, wireErrorf(CodeInvalidRequest,
			"transpose multiply cannot be served by a row-sharded matrix: "+
				"row pieces of A are column pieces of Aᵀ, whose partial products overlap")
	}

	calls := make([]*shardCall, 0, len(ss.groups))
	for w := range ss.groups {
		lo, hi := sm.bounds[w], sm.bounds[w+1]
		if hi <= lo {
			continue
		}
		d := req.Desc
		if d.Mask != nil {
			d.Mask = d.Mask.Slice(lo, hi)
		}
		if d.Masks != nil {
			ms := make([]*BitVector, len(d.Masks))
			for q, mk := range d.Masks {
				if mk != nil {
					ms[q] = mk.Slice(lo, hi)
				}
			}
			d.Masks = ms
		}
		calls = append(calls, &shardCall{
			band: w,
			req:  &Request{Matrix: name, X: req.X, Xs: req.Xs, Desc: d},
		})
	}

	wantBits := req.Desc.Output == OutputBitmap
	rep := OutputList
	if wantBits {
		rep = OutputBitmap
	}
	if len(calls) == 0 { // zero-row matrix: nothing to scatter
		return emptyShardResponse(req, wantBits, rep), nil
	}

	if err := ss.dispatch(calls, sm.stats); err != nil {
		return nil, err
	}

	// Single nonempty band owning every row: its response IS the
	// global answer — pass it through with no gather copy, so the
	// 1-shard configuration costs dispatch alone over a direct Store.
	if len(calls) == 1 && sm.bounds[calls[0].band] == 0 && sm.bounds[calls[0].band+1] == sm.rows {
		return calls[0].resp, nil
	}
	return ss.gather(sm, req, calls, wantBits, rep)
}

// emptyShardResponse answers a scatter with no nonempty pieces: the
// correctly-shaped all-empty result.
func emptyShardResponse(req *Request, wantBits bool, rep OutputMode) *Response {
	resp := &Response{OutputRep: rep.String()}
	switch {
	case req.X != nil && wantBits:
		resp.YBits = sparse.NewBitVec(0)
	case req.X != nil:
		resp.Y = sparse.NewSpVec(0, 0)
	case wantBits:
		resp.YsBits = make([]*BitVector, len(req.Xs))
		for q := range resp.YsBits {
			resp.YsBits[q] = sparse.NewBitVec(0)
		}
	default:
		resp.Ys = make([]*Vector, len(req.Xs))
		for q := range resp.Ys {
			resp.Ys[q] = sparse.NewSpVec(0, 0)
		}
	}
	return resp
}

// gather concatenates the bands' row-disjoint results into the global
// response. List outputs append with the band's row offset (values
// are NOT shifted — they carry whatever the semiring computed, e.g.
// global parent ids under select2nd); bitmap outputs merge by OrAt.
// Because calls are in ascending band order and row ranges are
// disjoint, a concatenation of sorted pieces is itself sorted.
func (ss *ShardedStore) gather(sm *shardedMatrix, req *Request, calls []*shardCall, wantBits bool, rep OutputMode) (*Response, error) {
	resp := &Response{OutputRep: rep.String()}
	width := 1
	if req.Xs != nil {
		width = len(req.Xs)
	}
	for slot := 0; slot < width; slot++ {
		if wantBits {
			yb := sparse.NewBitVec(sm.rows)
			for _, c := range calls {
				pb := c.resp.YBits
				if req.Xs != nil {
					pb = c.resp.YsBits[slot]
				}
				if pb == nil {
					return nil, wireErrorf(CodeInternal,
						"shard %d answered without a bitmap payload", c.band)
				}
				yb.OrAt(pb, sm.bounds[c.band])
			}
			if req.X != nil {
				resp.YBits = yb
			} else {
				resp.YsBits = append(resp.YsBits, yb)
			}
			continue
		}
		nnz := 0
		for _, c := range calls {
			py := c.resp.Y
			if req.Xs != nil {
				py = c.resp.Ys[slot]
			}
			if py == nil {
				return nil, wireErrorf(CodeInternal,
					"shard %d answered without a list payload", c.band)
			}
			nnz += py.NNZ()
		}
		y := sparse.NewSpVec(sm.rows, nnz)
		sorted := true
		for _, c := range calls {
			py := c.resp.Y
			if req.Xs != nil {
				py = c.resp.Ys[slot]
			}
			off := sm.bounds[c.band]
			for k, i := range py.Ind {
				y.Append(i+off, py.Val[k])
			}
			if !py.Sorted {
				sorted = false
			}
		}
		y.Sorted = sorted
		if req.X != nil {
			resp.Y = y
		} else {
			resp.Ys = append(resp.Ys, y)
		}
	}
	return resp, nil
}

// Do executes a wire request as a scatter/gather across the shards —
// the coordinator's Executor implementation, answer-identical to the
// single-process Store.Do for every request shape a row decomposition
// can serve.
func (ss *ShardedStore) Do(req *Request) (*Response, error) {
	if req == nil {
		return nil, wireErrorf(CodeBadRequest, "nil request")
	}
	sm, err := ss.lookup(req.Matrix)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	resp, err := ss.doSharded(sm, req.Matrix, req)
	sm.stats.Observe(time.Since(t), err != nil)
	return resp, err
}

// do is Do without the serving counters: the coalescing batcher's
// flush, one scatter for the whole batch, whose requests were each
// counted as they were submitted.
func (ss *ShardedStore) do(req *Request) (*Response, error) {
	sm, err := ss.lookup(req.Matrix)
	if err != nil {
		return nil, err
	}
	return ss.doSharded(sm, req.Matrix, req)
}

// Run executes a program with every mult op scattered across the
// shards — the interpreter (op refs, masks-from-frontiers,
// StopOnEmpty) is the same code path the single-process Store runs, so
// program semantics cannot drift between the two.
func (ss *ShardedStore) Run(p *Program) (*ProgramResponse, error) {
	return runProgramOps(p, ss.progMult())
}

// progMult returns the coordinator's program-multiply hook: each op is
// one scattered request across the shards.
func (ss *ShardedStore) progMult() progMultFunc {
	return func(k int, name string, xf *Frontier, d Desc) (*Frontier, error) {
		sm, err := ss.lookup(name)
		if err != nil {
			return nil, err
		}
		// Op outputs travel as lists regardless of the op's output mode:
		// the interpreter's frontiers are list-authoritative (a later
		// mask_ref derives the bitmap lazily, content-identical to an
		// engine-native one), and "richest native representation" is an
		// in-process concept the wire cannot ship.
		d.Output = OutputList
		req := &Request{Matrix: name, X: xf.List(), Desc: d}
		t := time.Now()
		resp, err := ss.doSharded(sm, name, req)
		sm.stats.Observe(time.Since(t), err != nil)
		if err != nil {
			we := AsWireError(err)
			return nil, wireErrorf(we.Code, "op %d: %s", k, we.Message)
		}
		return NewFrontier(resp.Y), nil
	}
}

// resolveMult reports the global shape requests are validated against
// and the matrix's coordinator-side counters — the serving layer's
// pre-validation hook.
func (ss *ShardedStore) resolveMult(name string) (Index, Index, *perf.ServeStats, error) {
	sm, err := ss.lookup(name)
	if err != nil {
		return 0, 0, nil, err
	}
	return sm.rows, sm.cols, sm.stats, nil
}

// health reports the coordinator's liveness summary for GET /v1/health.
func (ss *ShardedStore) health() HealthStatus {
	ss.mu.RLock()
	n := len(ss.mats)
	ss.mu.RUnlock()
	maxR := 0
	for _, g := range ss.groups {
		if len(g) > maxR {
			maxR = len(g)
		}
	}
	return HealthStatus{
		Engine:      "coordinator",
		Matrices:    n,
		Programs:    len(ss.programs.list()),
		Shards:      len(ss.groups),
		Replicas:    maxR,
		MemberEpoch: ss.members.Epoch(),
	}
}
