package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	spmspv "spmspv"
	"spmspv/internal/baselines"
	"spmspv/internal/sparse"
)

const (
	mixMatrix   = "web"
	mixPoolSize = 48
	// mixPerSource caps the frontiers one BFS contributes to the pool.
	mixPerSource = 3
	// mixMaxX bounds a request's x: captured frontiers with nnz ≤ 1024.
	mixMaxX      = 1024
	mixUploads   = 4
	mixProbeOps  = 24
	mixBands     = 2
	mixReplicas  = 2
	mixPlainFrac = 0.8
	// lagLimitMS flags a run whose generator sent its ops this late (p99)
	// as invalid: it no longer offered the load it claims.
	lagLimitMS = 50.0
)

// mixItem is one captured BFS frontier x with its oracles: y = A·x over
// arithmetic, and — when the vertices visited before x (the mask) are
// few enough to ship — the complement-masked (min, select2nd) product.
type mixItem struct {
	x      *spmspv.Vector
	plain  *spmspv.Vector
	mask   *spmspv.BitVector
	masked *spmspv.Vector
}

// mixUpload is one fresh matrix the write cycle uploads, with a small
// multiply that checks it landed.
type mixUpload struct {
	a    *spmspv.Matrix
	x    *spmspv.Vector
	want *spmspv.Vector
}

type mixKind int

const (
	mixPlain mixKind = iota
	mixMasked
	mixWrite
)

// mixOp is one scheduled op: a read of pool item item, or write cycle
// number item.
type mixOp struct {
	at   time.Duration
	kind mixKind
	item int
}

type mixBench struct {
	a       *spmspv.Matrix
	items   []mixItem
	masked  []int // items that carry a mask
	uploads []mixUpload
	rate    float64
	every   float64
}

// buildMixPool captures BFS frontiers of 1..mixMaxX vertices (levels
// ≥ 1) from seeded sources.
func buildMixPool(a *spmspv.Matrix, rng *rand.Rand, maskCap int) ([]mixItem, error) {
	n := int(a.NumCols)
	var items []mixItem
	for tries := 0; len(items) < mixPoolSize; tries++ {
		if tries > 50*mixPoolSize {
			return nil, fmt.Errorf("captured only %d frontiers", len(items))
		}
		levels, ecc, _ := sparse.BFSLevels(a, Index(rng.Intn(n)))
		byLevel := make([][]Index, ecc+1)
		for v, l := range levels {
			if l >= 0 {
				byLevel[l] = append(byLevel[l], Index(v))
			}
		}
		visited := spmspv.NewVector(a.NumCols, 0)
		taken := 0
		for l := 0; l <= ecc && taken < mixPerSource && len(items) < mixPoolSize; l++ {
			for _, v := range byLevel[l] {
				visited.Append(v, 1)
			}
			if l == 0 || len(byLevel[l]) > mixMaxX {
				continue
			}
			x := spmspv.NewVector(a.NumCols, len(byLevel[l]))
			for _, v := range byLevel[l] {
				x.Append(v, float64(v))
			}
			x.Sorted = true
			it := mixItem{x: x, plain: baselines.Reference(a, x, spmspv.Arithmetic)}
			// The mask is the set visited before this level's product.
			if visited.NNZ() <= maskCap {
				it.mask = spmspv.NewBitVector(a.NumCols)
				it.mask.SetFrom(visited)
				it.masked = maskedReference(a, x, spmspv.MinSelect2nd, it.mask)
			}
			items = append(items, it)
			taken++
		}
	}
	return items, nil
}

// schedule draws d seconds of Poisson arrivals at mb.rate (80% plain
// reads, 20% masked bitmap reads) plus a write cycle every mb.every
// seconds.
func (mb *mixBench) schedule(rng *rand.Rand, d time.Duration) []mixOp {
	var ops []mixOp
	for t := rng.ExpFloat64() / mb.rate; t < d.Seconds(); t += rng.ExpFloat64() / mb.rate {
		op := mixOp{at: time.Duration(t * float64(time.Second))}
		if rng.Float64() < mixPlainFrac {
			op.item = rng.Intn(len(mb.items))
		} else {
			op.kind, op.item = mixMasked, mb.masked[rng.Intn(len(mb.masked))]
		}
		ops = append(ops, op)
	}
	for k, t := 0, mb.every/2; t < d.Seconds(); k, t = k+1, t+mb.every {
		ops = append(ops, mixOp{at: time.Duration(t * float64(time.Second)), kind: mixWrite, item: k})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	return ops
}

// callFunc runs one HTTP request of an op; a traced run wraps it in a
// client span and tags its context.
type callFunc func(req int64, fn func(ctx context.Context) error) error

func plainCall(_ int64, fn func(ctx context.Context) error) error { return fn(context.Background()) }

// bind turns a schedule into open-loop ops against c. Write cycles
// upload under prefix+k and delete prefix+(k-1).
func (mb *mixBench) bind(c *spmspv.Client, sched []mixOp, prefix string, call callFunc) []scheduled {
	out := make([]scheduled, len(sched))
	for q, op := range sched {
		q, op := q, op
		out[q] = scheduled{at: op.at, op: func(due time.Time, rec recorder) {
			mb.run(c, op, int64(q), prefix, call, due, rec)
		}}
	}
	return out
}

// run executes one op, reporting each of its requests. A write cycle's
// later requests are timed from when the previous one finished.
func (mb *mixBench) run(c *spmspv.Client, op mixOp, req int64, prefix string, call callFunc, due time.Time, rec recorder) {
	switch op.kind {
	case mixPlain, mixMasked:
		rec(due, call(req, func(ctx context.Context) error { return mb.read(ctx, c, op) }))
	case mixWrite:
		u := mb.uploads[op.item%len(mb.uploads)]
		name := fmt.Sprintf("%s%d", prefix, op.item)
		rec(due, call(req, func(context.Context) error {
			stat, err := c.PutMatrix(name, u.a)
			if err == nil && (stat.Rows != u.a.NumRows || stat.Cols != u.a.NumCols || stat.NNZ != u.a.NNZ()) {
				err = fmt.Errorf("upload %s registered %dx%d with %d nnz", name, stat.Rows, stat.Cols, stat.NNZ)
			}
			return err
		}))
		begin := time.Now()
		rec(begin, call(req, func(ctx context.Context) error {
			resp, err := c.DoContext(ctx, &spmspv.Request{Matrix: name, X: u.x, Desc: spmspv.Desc{Semiring: "arithmetic"}})
			if err != nil {
				return err
			}
			return sameVector(resp.Y, u.want)
		}))
		if op.item > 0 {
			begin = time.Now()
			rec(begin, call(req, func(context.Context) error {
				return c.DeleteMatrix(fmt.Sprintf("%s%d", prefix, op.item-1))
			}))
		}
	}
}

// read sends one /v1/mult read and checks it against the oracle.
func (mb *mixBench) read(ctx context.Context, c *spmspv.Client, op mixOp) error {
	it := mb.items[op.item]
	if op.kind == mixPlain {
		resp, err := c.DoContext(ctx, &spmspv.Request{Matrix: mixMatrix, X: it.x, Desc: spmspv.Desc{Semiring: "arithmetic"}})
		if err != nil {
			return err
		}
		return sameVector(resp.Y, it.plain)
	}
	resp, err := c.DoContext(ctx, mb.maskedRequest(it))
	if err != nil {
		return err
	}
	return sameBits(resp.YBits, it.masked)
}

func (mb *mixBench) maskedRequest(it mixItem) *spmspv.Request {
	return &spmspv.Request{Matrix: mixMatrix, X: it.x, Desc: spmspv.Desc{
		Semiring: "bfs", Mask: it.mask, Complement: true, Output: spmspv.OutputBitmap,
	}}
}

// setup uploads the matrix through c and runs one checked read of each
// kind, which builds the band engines.
func (mb *mixBench) setup(c *spmspv.Client) error {
	if _, err := c.PutMatrix(mixMatrix, mb.a); err != nil {
		return fmt.Errorf("uploading %s: %w", mixMatrix, err)
	}
	if err := mb.read(context.Background(), c, mixOp{kind: mixPlain}); err != nil {
		return err
	}
	return mb.read(context.Background(), c, mixOp{kind: mixMasked, item: mb.masked[0]})
}

// runMultMix is the served request path under independent users: open
// loop Poisson traffic against spmspv-serve -shards 2 -replicas 2 (two
// row bands, each with two in-process replicas) on rmat-webgoogle.
func runMultMix(cfg config, rep *report) error {
	sz := sizesFor(cfg.smoke)
	a, err := buildProblem("rmat-webgoogle", sz.web)
	if err != nil {
		return err
	}
	rep.addMatrix("rmat-webgoogle", a.NumRows, a.NumCols, a.NNZ())
	pool := rand.New(rand.NewSource(poolSeed))
	maskCap := 2048
	if cfg.smoke {
		maskCap = int(a.NumCols) / 2
	}
	items, err := buildMixPool(a, pool, maskCap)
	if err != nil {
		return err
	}
	mb := &mixBench{a: a, items: items, rate: sz.mixRate, every: sz.uploadEvery}
	for i, it := range items {
		if it.mask != nil {
			mb.masked = append(mb.masked, i)
		}
	}
	if len(mb.masked) == 0 {
		return fmt.Errorf("no captured frontier has a visited set of at most %d vertices", maskCap)
	}
	for i := 0; i < mixUploads; i++ {
		cfgW := spmspv.DefaultRMAT(sz.upload)
		cfgW.EdgeFactor = 6
		aw := spmspv.RMAT(cfgW, pool.Int63())
		x := spmspv.NewVector(aw.NumCols, 8)
		for _, j := range sortedSample(pool, int(aw.NumCols), 8) {
			x.Append(Index(j), float64(j+1))
		}
		x.Sorted = true
		mb.uploads = append(mb.uploads, mixUpload{a: aw, x: x, want: baselines.Reference(aw, x, spmspv.Arithmetic)})
		if i == 0 {
			rep.addMatrix("upload (rmat ef=6)", aw.NumRows, aw.NumCols, aw.NNZ())
		}
	}
	callers := loadCallers()
	rep.Params["callers"] = callers
	rep.Params["rate_per_s"] = mb.rate
	rep.Params["upload_every_s"] = mb.every
	rep.Params["bands"], rep.Params["replicas"] = mixBands, mixReplicas
	rep.Params["pool"], rep.Params["masked_pool"] = len(items), len(mb.masked)
	rep.Params["server"] = fmt.Sprintf("spmspv-serve -calibration-cache '' -shards %d -replicas %d", mixBands, mixReplicas)

	rng := rand.New(rand.NewSource(cfg.seed))
	d := time.Duration(cfg.seconds * float64(time.Second))
	warmSched := mb.schedule(rng, d/20+time.Second/2)
	if cfg.trace {
		return mixTraced(cfg, rep, mb, callers, d, warmSched, rng)
	}
	sched := mb.schedule(rng, d)

	var proc *serverProc
	defer func() {
		if proc != nil {
			proc.stop()
		}
	}()
	var tr *transport
	var c *spmspv.Client
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		if proc != nil {
			proc.stop()
		}
		t0 := time.Now()
		proc, err = startServer(cfg.serveBin, "-shards", fmt.Sprint(mixBands), "-replicas", fmt.Sprint(mixReplicas))
		if err != nil {
			return err
		}
		tr = newTransport(callers)
		c = newClient(proc.url, tr)
		if err := proc.waitReady(c); err != nil {
			return err
		}
		if err := mb.setup(c); err != nil {
			return fmt.Errorf("set-up: %w\n%s", err, proc.logs)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups), "s")
	warm := &phase{}
	openLoop(warm, callers, mb.bind(c, warmSched, "warm", plainCall), 0)
	warmUp(rep, warm)

	b0, cpu0 := tr.bytes.Load(), proc.cpuMS()
	p := &phase{}
	ws := startWindows(p.tally.attempted.Load, proc.cpuMS, proc.rssMB)
	openLoop(p, callers, mb.bind(c, sched, "fresh", plainCall), d)
	cpu := proc.cpuMS() - cpu0
	reportWindows(rep, p, ws, cpu)
	p.tally.into(rep)
	rep.set("wire_bytes_per_op", float64(tr.bytes.Load()-b0)/float64(p.tally.attempted.Load()), "bytes")
	rep.set("server_busy_frac", cpu/float64(p.elapsed.Milliseconds())/float64(runtime.NumCPU()), "frac")
	reportLatency(rep, &p.lat, cfg.smoke)
	lagCheck(rep, p, cfg.smoke)
	return nil
}

// lagCheck reports how late the generator sent its ops and flags the
// run invalid when it fell behind its schedule.
func lagCheck(rep *report, p *phase, smoke bool) {
	xs := append([]float64(nil), p.lag.ms...)
	sort.Float64s(xs)
	lag := percentile(xs, 0.99)
	rep.set("loadgen.offered_rps", float64(p.offered)/p.elapsed.Seconds(), "1/s")
	rep.set("loadgen.lag_p99_ms", lag, "ms")
	if lag > lagLimitMS && !smoke {
		rep.errorf("invalid run: the open loop fell behind its schedule (lag p99 %.1f ms > %.0f ms)", lag, lagLimitMS)
	}
}

// sortedSample draws k distinct ints from [0, n), ascending.
func sortedSample(rng *rand.Rand, n, k int) []int {
	seen := map[int]bool{}
	var out []int
	for len(out) < k && len(out) < n {
		j := rng.Intn(n)
		if !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	sort.Ints(out)
	return out
}

// mixTraced hosts the same stack in-process: NewServer over
// NewReplicatedShardedStore, whose band replicas are *Stores behind
// tracing ShardBackend wrappers.
func mixTraced(cfg config, rep *report, mb *mixBench, callers int, d time.Duration, warmSched []mixOp, rng *rand.Rand) error {
	zeroLayers(rep)
	tr := newTracer()
	groups := make([][]spmspv.ShardBackend, mixBands)
	for w := range groups {
		for r := 0; r < mixReplicas; r++ {
			groups[w] = append(groups[w], &tracedBackend{st: spmspv.NewStore(serveStoreOpts()...), t: tr, band: w})
		}
	}
	ss, err := spmspv.NewReplicatedShardedStore(groups, coordinatorOpts()...)
	if err != nil {
		return err
	}
	defer ss.Close()
	srv := spmspv.NewServer(ss, serverOpts()...)
	host, err := hostInProcess(tr.handler(srv))
	if err != nil {
		return err
	}
	defer host.close()
	tp := newTransport(callers)
	c := newClient(host.url, tp)
	if err := mb.setup(c); err != nil {
		return err
	}
	epoch0 := ss.MemberEpoch()
	warm := &phase{}
	openLoop(warm, callers, mb.bind(c, warmSched, "warm", plainCall), 0)
	warmUp(rep, warm)

	half := d / 2
	cpu0 := selfCPUMS()
	pu, pt := &phase{}, &phase{}
	openLoop(pu, callers, mb.bind(c, mb.schedule(rng, half), "untraced", plainCall), half)
	cpuU := (selfCPUMS() - cpu0) / float64(pu.tally.attempted.Load())
	pu.tally.into(rep)

	sched := mb.schedule(rng, half)
	singles := int64(0)
	for _, op := range sched {
		if op.kind == mixPlain {
			singles++
		}
	}
	st0 := shardTotals(ss)
	s0 := takeSnap(srv)
	tr.on.Store(true)
	m0 := tr.mark()
	openLoop(pt, callers, mb.bind(c, sched, "traced", tr.call), half)
	s1 := takeSnap(srv)
	st1 := shardTotals(ss)
	pt.tally.into(rep)
	spans := tr.since(m0)
	phaseLayers(rep, s0, s1, pt.tally.attempted.Load(), singles)
	rep.set("client.roundtrip_us", meanSpan(spans, "client.roundtrip"), "us")
	rep.set("server.handle_us", meanSpan(spans, "server.handle"), "us")
	rep.set("store.do_us", meanSpan(spans, "store.do"), "us")
	rep.set("shard.retries", float64(st1.retries-st0.retries), "count")
	rep.set("shard.failovers", float64(st1.failovers-st0.failovers), "count")
	lagCheck(rep, pt, cfg.smoke)
	cpuT := (s1.selfCPU - s0.selfCPU) / float64(pt.tally.attempted.Load())
	rep.set("trace.overhead_frac", cpuT/cpuU-1, "frac")

	// Scratch-store layer figures on band 0's piece, the unit a band
	// replica stores and builds an engine for.
	bounds := spmspv.PieceBounds(mb.a.NumRows, mixBands)
	pieces := make([]*spmspv.Matrix, mixBands)
	for w := range pieces {
		pieces[w] = spmspv.RowSlice(mb.a, bounds[w], bounds[w+1])
	}
	if err := storeLayer(tr, rep, pieces[0], serveStoreOpts()); err != nil {
		return err
	}

	// The probe, twice: fixed reads served end to end and then scattered
	// directly, one write cycle, and the reads' kernel replay per band.
	probe := mb.probeOps()
	kernels := make([]kernel, mixBands)
	for w := range kernels {
		if kernels[w], err = newKernel(pieces[w], spmspv.Options{SortOutput: true}); err != nil {
			return err
		}
	}
	steps := mb.bandSteps(probe, bounds)
	first, err := replay(tr, kernels, steps)
	if err != nil {
		return err
	}
	p1, err := mb.probe(tr, c, ss, probe, "probe-a")
	if err != nil {
		return err
	}
	second, err := replay(tr, kernels, steps)
	if err != nil {
		return err
	}
	p2, err := mb.probe(tr, c, ss, probe, "probe-b")
	if err != nil {
		return err
	}
	second.into(rep, runtime.GOMAXPROCS(0))
	for name, v := range p2 {
		rep.set(name, v, rep.Metrics[name].Unit)
	}
	if err := codecLayer(tr, rep); err != nil {
		return err
	}

	rep.set("cluster.epoch_changes", float64(ss.MemberEpoch()-epoch0), "count")
	nonalive := 0
	for _, s := range ss.ShardStats() {
		if s.State != "alive" {
			nonalive++
		}
	}
	rep.set("cluster.nonalive_replicas", float64(nonalive), "count")

	counts, repeat := first.counts(), second.counts()
	for _, name := range []string{"wire.req_bytes_per_op", "wire.resp_bytes_per_op"} {
		counts[name], repeat[name] = p1[name], p2[name]
	}
	checkRepeat(rep, cfg.outDir, counts, repeat)
	dumpSpans(tr, rep, cfg.outDir)
	return nil
}

// shardCounts are the coordinator's retry and failover counters.
type shardCounts struct{ retries, failovers int64 }

// shardTotals sums shardCounts over every registered matrix.
func shardTotals(ss *spmspv.ShardedStore) shardCounts {
	var t shardCounts
	for _, s := range ss.StatsAll() {
		t.retries += s.Serve.Retries
		t.failovers += s.Serve.Failovers
	}
	return t
}

// probeOps is the fixed read probe: the first pool items, alternating
// plain and masked reads where an item carries a mask.
func (mb *mixBench) probeOps() []mixOp {
	var ops []mixOp
	for i := 0; len(ops) < mixProbeOps && i < len(mb.items); i++ {
		op := mixOp{kind: mixPlain, item: i}
		if i%2 == 1 && mb.items[i].mask != nil {
			op.kind = mixMasked
		}
		ops = append(ops, op)
	}
	return ops
}

// bandSteps splits each read into the per-band multiplies the
// coordinator scatters: x against every band's row piece, with the
// mask and the oracle sliced to the band's rows.
func (mb *mixBench) bandSteps(ops []mixOp, bounds []Index) [][]kernelStep {
	out := make([][]kernelStep, len(ops))
	for q, op := range ops {
		it := mb.items[op.item]
		for w := 0; w+1 < len(bounds); w++ {
			lo, hi := bounds[w], bounds[w+1]
			s := kernelStep{band: w, x: it.x, sr: spmspv.Arithmetic, want: sliceVector(it.plain, lo, hi)}
			if op.kind == mixMasked {
				s.sr, s.mask, s.want = spmspv.MinSelect2nd, it.mask.Slice(lo, hi), sliceVector(it.masked, lo, hi)
			}
			out[q] = append(out[q], s)
		}
	}
	return out
}

// sliceVector returns rows [lo, hi) of a sorted vector, re-based to 0.
func sliceVector(v *spmspv.Vector, lo, hi Index) *spmspv.Vector {
	out := spmspv.NewVector(hi-lo, 0)
	for k, i := range v.Ind {
		if i >= lo && i < hi {
			out.Append(i-lo, v.Val[k])
		}
	}
	out.Sorted = true
	return out
}

// probe runs each read end to end through the server, then the same
// request straight into the coordinator (ShardedStore.Do), one at a
// time so every band span has an unambiguous parent; then one write
// cycle.
func (mb *mixBench) probe(tr *tracer, c *spmspv.Client, ss *spmspv.ShardedStore, ops []mixOp, prefix string) (map[string]float64, error) {
	var serverSelf, scatter, scatterSelf, imbalance []float64
	var reqBytes, respBytes int64
	for _, op := range ops {
		req := tr.id()
		if err := tr.call(req, func(ctx context.Context) error { return mb.read(ctx, c, op) }); err != nil {
			return nil, fmt.Errorf("probe read: %w", err)
		}
		hs, err := tr.awaitHandler(req)
		if err != nil {
			return nil, err
		}
		reqBytes += hs.In
		respBytes += hs.Out
		h := float64(hs.dur()) / 1e3

		it := mb.items[op.item]
		r := &spmspv.Request{Matrix: mixMatrix, X: it.x, Desc: spmspv.Desc{Semiring: "arithmetic"}}
		if op.kind == mixMasked {
			r = mb.maskedRequest(it)
		}
		m2 := tr.mark()
		var resp *spmspv.Response
		tr.record("shard.scatter", 0, req, func(id int64) {
			tr.direct.Store(id)
			resp, err = ss.Do(r)
			tr.direct.Store(0)
		})
		if err == nil && op.kind == mixPlain {
			err = sameVector(resp.Y, it.plain)
		} else if err == nil {
			err = sameBits(resp.YBits, it.masked)
		}
		if err != nil {
			return nil, fmt.Errorf("probe scatter: %w", err)
		}
		spans := tr.since(m2)
		kids := children(spans)
		for _, s := range spans {
			if s.Name != "shard.scatter" {
				continue
			}
			scatter = append(scatter, float64(s.dur())/1e3)
			scatterSelf = append(scatterSelf, float64(selfTime(s, kids[s.ID]))/1e3)
			var longest, total float64
			for _, k := range kids[s.ID] {
				d := float64(k.dur())
				total += d
				longest = max(longest, d)
			}
			if n := len(kids[s.ID]); n > 0 {
				imbalance = append(imbalance, longest/(total/float64(n)))
			}
			serverSelf = append(serverSelf, h-float64(s.dur())/1e3)
		}
	}

	// One write cycle: the upload's band puts are the fan-out.
	m3 := tr.mark()
	var fanout float64
	var err error
	tr.record("client.put", 0, 0, func(int64) {
		_, err = c.PutMatrix(prefix, mb.uploads[0].a)
	})
	if err != nil {
		return nil, fmt.Errorf("probe upload: %w", err)
	}
	lo, hi := int64(-1), int64(0)
	for _, s := range tr.since(m3) {
		if s.Name == "store.put" {
			if lo < 0 || s.Start < lo {
				lo = s.Start
			}
			hi = max(hi, s.End)
		}
	}
	if lo >= 0 {
		fanout = float64(hi-lo) / 1e6
	}
	if err := c.DeleteMatrix(prefix); err != nil {
		return nil, fmt.Errorf("probe delete: %w", err)
	}
	n := float64(len(ops))
	return map[string]float64{
		"shard.scatter_us":       mean(scatter),
		"shard.self_us":          mean(scatterSelf),
		"shard.band_imbalance":   mean(imbalance),
		"shard.put_fanout_ms":    fanout,
		"server.self_us":         mean(serverSelf),
		"wire.req_bytes_per_op":  float64(reqBytes) / n,
		"wire.resp_bytes_per_op": float64(respBytes) / n,
	}, nil
}
