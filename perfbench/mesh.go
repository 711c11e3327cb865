package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	spmspv "spmspv"
)

const (
	meshMatrix  = "mesh"
	meshProgram = "bfs"
	meshSources = 32
	meshProbe   = 8
	// serveSetups is how often a served run starts a fresh server to
	// time its set-up; the last one carries the load.
	serveSetups = 5
)

// meshBench holds bfs-mesh-invoke's inputs.
type meshBench struct {
	a         *spmspv.Matrix
	oracles   []*bfsOracle
	orders    [][]int // per caller: its sequence of oracle indices
	maxLevels int
}

// invoke runs the stored BFS program from o's source through c and
// checks the decoded parents and levels against the oracle.
func (mb *meshBench) invoke(ctx context.Context, c *spmspv.Client, o *bfsOracle) (*spmspv.ProgramResponse, error) {
	resp, err := c.InvokeContext(ctx, meshProgram, mb.invokeRequest(o))
	if err != nil {
		return nil, err
	}
	return resp, mb.check(resp, o)
}

func (mb *meshBench) invokeRequest(o *bfsOracle) *spmspv.InvokeRequest {
	x := spmspv.NewVector(mb.a.NumCols, 1)
	x.Append(o.source, float64(o.source))
	return &spmspv.InvokeRequest{Args: map[string]*spmspv.Vector{"seed": x}}
}

func (mb *meshBench) check(resp *spmspv.ProgramResponse, o *bfsOracle) error {
	r, err := spmspv.DecodeBFSProgramResponse(resp, mb.a.NumCols, o.source, mb.maxLevels)
	if err != nil {
		return err
	}
	return o.check(r)
}

func (mb *meshBench) oracle(caller, k int) *bfsOracle {
	ord := mb.orders[caller]
	return mb.oracles[ord[k%len(ord)]]
}

// setup uploads the mesh and registers the BFS program through c, then
// runs one checked invoke so the engine is built.
func (mb *meshBench) setup(c *spmspv.Client) error {
	if _, err := c.PutMatrix(meshMatrix, mb.a); err != nil {
		return fmt.Errorf("uploading the mesh: %w", err)
	}
	if _, err := c.PutProgram(meshProgram, spmspv.BFSProgram(meshMatrix, mb.maxLevels, nil)); err != nil {
		return fmt.Errorf("registering the BFS program: %w", err)
	}
	_, err := mb.invoke(context.Background(), c, mb.oracles[0])
	return err
}

// runMeshInvoke is the served high-diameter case: two closed-loop
// clients (at most nproc) invoke a stored BFSProgram by name on
// grid5-g3circuit.
func runMeshInvoke(cfg config, rep *report) error {
	sz := sizesFor(cfg.smoke)
	a, err := buildProblem("grid5-g3circuit", sz.mesh)
	if err != nil {
		return err
	}
	rep.addMatrix("grid5-g3circuit", a.NumRows, a.NumCols, a.NNZ())
	callers := loadCallers()
	rep.Params["callers"] = callers
	rep.Params["server"] = "spmspv-serve -calibration-cache '' (default flags)"

	srcs, err := pickSources(a, rand.New(rand.NewSource(poolSeed)), meshSources, 0)
	if err != nil {
		return err
	}
	rep.Params["sources"] = srcs
	mb := &meshBench{a: a, maxLevels: int(a.NumCols)}
	for _, s := range srcs {
		mb.oracles = append(mb.oracles, referenceBFS(a, s))
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for c := 0; c < callers; c++ {
		mb.orders = append(mb.orders, rng.Perm(len(mb.oracles)))
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return meshTraced(cfg, rep, mb, callers, d)
	}

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
		if proc, err = startServer(cfg.serveBin); err != nil {
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

	op := func(caller, k int, rec recorder) {
		t := time.Now()
		_, err := mb.invoke(context.Background(), c, mb.oracle(caller, k))
		rec(t, err)
	}
	warm := &phase{}
	closedLoop(warm, callers, d/20, 0, op)
	warmUp(rep, warm)

	minOps := samplesFor(0.99)
	if cfg.smoke {
		minOps = 0
	}
	b0, cpu0 := tr.bytes.Load(), proc.cpuMS()
	p := &phase{}
	ws := startWindows(p.tally.attempted.Load, proc.cpuMS, proc.rssMB)
	closedLoop(p, callers, d, minOps, op)
	reportWindows(rep, p, ws, proc.cpuMS()-cpu0)
	p.tally.into(rep)
	rep.set("wire_bytes_per_op", float64(tr.bytes.Load()-b0)/float64(p.tally.attempted.Load()), "bytes")
	reportLatency(rep, &p.lat, cfg.smoke)
	return nil
}

// meshTraced hosts the same stack in-process: NewServer over a Store
// behind the tracing handler.
func meshTraced(cfg config, rep *report, mb *meshBench, callers int, d time.Duration) error {
	zeroLayers(rep)
	tr := newTracer()
	st := spmspv.NewStore(serveStoreOpts()...)
	srv := spmspv.NewServer(st, serverOpts()...)
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

	op := func(caller, k int, rec recorder) {
		t := time.Now()
		_, err := mb.invoke(context.Background(), c, mb.oracle(caller, k))
		rec(t, err)
	}
	pu, pt := &phase{}, &phase{}
	closedLoop(pu, callers, d/2, 0, op)
	pu.tally.into(rep)

	s0 := takeSnap(srv)
	tr.on.Store(true)
	m0 := tr.mark()
	closedLoop(pt, callers, d/2, 0, func(caller, k int, rec recorder) {
		req := int64(caller)<<32 | int64(k)
		t := time.Now()
		var err error
		tr.record("client.roundtrip", 0, req, func(id int64) {
			_, err = mb.invoke(withSpan(context.Background(), req, id), c, mb.oracle(caller, k))
		})
		rec(t, err)
	})
	s1 := takeSnap(srv)
	pt.tally.into(rep)
	spans := tr.since(m0)
	phaseLayers(rep, s0, s1, pt.tally.attempted.Load(), 0)
	rep.set("client.roundtrip_us", meanSpan(spans, "client.roundtrip"), "us")
	rep.set("server.handle_us", meanSpan(spans, "server.handle"), "us")
	rep.set("loadgen.offered_rps", pt.opsPerS(), "1/s")
	rep.set("trace.overhead_frac", 1-pt.opsPerS()/pu.opsPerS(), "frac")

	if err := storeLayer(tr, rep, mb.a, serveStoreOpts()); err != nil {
		return err
	}
	m, err := st.Load(meshMatrix)
	if err != nil {
		return err
	}
	probe := mb.oracles[:min(meshProbe, len(mb.oracles))]
	steps := bfsSteps(probe)
	if err := storeDo(tr, rep, mb.a, serveStoreOpts(), steps[0]); err != nil {
		return err
	}
	k, err := newKernel(mb.a, spmspv.Options{SortOutput: true})
	if err != nil {
		return err
	}
	first, err := replay(tr, []kernel{k}, steps)
	if err != nil {
		return err
	}

	// The probe, twice: its counts must repeat exactly.
	p1, err := mb.probe(tr, c, st, m, probe)
	if err != nil {
		return err
	}
	second, err := replay(tr, []kernel{k}, steps)
	if err != nil {
		return err
	}
	p2, err := mb.probe(tr, c, st, m, probe)
	if err != nil {
		return err
	}
	second.into(rep, runtime.GOMAXPROCS(0))
	var selfFlow, selfServer, ratio []float64
	for q := range probe {
		selfFlow = append(selfFlow, p2.invoke[q]-float64(second.perOpMult[q])/1e3)
		selfServer = append(selfServer, p2.handle[q]-p2.invoke[q])
		ratio = append(ratio, p2.invoke[q]/p2.lib[q])
	}
	rep.set("dataflow.invoke_us", mean(p2.invoke), "us")
	rep.set("dataflow.self_us", mean(selfFlow), "us")
	rep.set("dataflow.overhead_ratio", mean(ratio), "ratio")
	rep.set("server.self_us", mean(selfServer), "us")
	for name, v := range p2.counts {
		rep.set(name, v, rep.Metrics[name].Unit)
	}
	if err := codecLayer(tr, rep); err != nil {
		return err
	}

	counts, repeat := first.counts(), second.counts()
	for name := range p1.counts {
		counts[name], repeat[name] = p1.counts[name], p2.counts[name]
	}
	checkRepeat(rep, cfg.outDir, counts, repeat)
	dumpSpans(tr, rep, cfg.outDir)
	return nil
}

// meshProbeOut is one pass of the mesh probe: per source, the handler
// span of the served invoke, the direct Store.Invoke span and the
// in-process BFSMasked span (µs), plus the pass's work counts.
type meshProbeOut struct {
	handle, invoke, lib []float64
	counts              map[string]float64
}

// probe serves each source end to end, then invokes the program on the
// store directly, then runs it as an in-process BFSMasked on the
// store's own multiplier, one op at a time.
func (mb *meshBench) probe(tr *tracer, c *spmspv.Client, st *spmspv.Store, m *spmspv.Multiplier, probe []*bfsOracle) (*meshProbeOut, error) {
	out := &meshProbeOut{}
	var iters []float64
	var reqBytes, respBytes int64
	for _, o := range probe {
		req := tr.id()
		err := tr.call(req, func(ctx context.Context) error {
			_, err := mb.invoke(ctx, c, o)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("probe invoke: %w", err)
		}
		h, err := tr.awaitHandler(req)
		if err != nil {
			return nil, err
		}
		reqBytes += h.In
		respBytes += h.Out
		out.handle = append(out.handle, float64(h.dur())/1e3)

		var resp *spmspv.ProgramResponse
		d := tr.record("store.invoke", 0, req, func(int64) { resp, err = st.Invoke(meshProgram, mb.invokeRequest(o)) })
		if err == nil {
			err = mb.check(resp, o)
		}
		if err != nil {
			return nil, fmt.Errorf("probe store invoke: %w", err)
		}
		out.invoke = append(out.invoke, float64(d)/1e3)
		n := 0
		for _, r := range resp.Results {
			if r.Iter > 0 {
				n++
			}
		}
		iters = append(iters, float64(n))

		var r *spmspv.BFSResult
		d = tr.record("lib.bfs", 0, req, func(int64) { r = spmspv.BFSMasked(m, o.source) })
		if err := o.check(r); err != nil {
			return nil, fmt.Errorf("probe BFSMasked: %w", err)
		}
		out.lib = append(out.lib, float64(d)/1e3)
	}
	np := float64(len(probe))
	out.counts = map[string]float64{
		"dataflow.iters_per_op":  mean(iters),
		"wire.req_bytes_per_op":  float64(reqBytes) / np,
		"wire.resp_bytes_per_op": float64(respBytes) / np,
	}
	return out, nil
}
