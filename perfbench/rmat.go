package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	spmspv "spmspv"
)

// bfsRMATSources is the source pool of bfs-rmat; the first
// bfsRMATProbe of them form the replayed probe.
const (
	bfsRMATSources = 16
	bfsRMATProbe   = 4
	setupRepeats   = 7
)

// runBFSRMAT is the in-process library path (the paper's Fig. 4): one
// caller runs spmspv.BFSMasked on rmat-ljournal with the bucket engine
// at nproc threads, from seeded sources whose BFS reaches at least half
// the graph.
func runBFSRMAT(cfg config, rep *report) error {
	sz := sizesFor(cfg.smoke)
	a, err := buildProblem("rmat-ljournal", sz.rmat)
	if err != nil {
		return err
	}
	rep.addMatrix("rmat-ljournal", a.NumRows, a.NumCols, a.NNZ())
	threads := runtime.NumCPU()
	rep.Params["engine"] = "bucket"
	rep.Params["threads"] = threads
	rep.Params["callers"] = 1

	srcs, err := pickSources(a, rand.New(rand.NewSource(poolSeed)), bfsRMATSources, 0.5)
	if err != nil {
		return err
	}
	oracles := make([]*bfsOracle, len(srcs))
	for i, s := range srcs {
		oracles[i] = referenceBFS(a, s)
	}
	rep.Params["sources"] = srcs
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(oracles))

	// Set-up, repeated: decode the matrix from its binary form, build the
	// engine, and run one multiply so the workspace exists.
	var body bytes.Buffer
	if err := spmspv.EncodeMatrixBinary(&body, a); err != nil {
		return err
	}
	var m *spmspv.Multiplier
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // every repetition starts from the same heap
		t0 := time.Now()
		a2, err := spmspv.DecodeMatrix(bytes.NewReader(body.Bytes()))
		if err != nil {
			return err
		}
		if m, err = spmspv.NewMultiplier(a2, spmspv.WithThreads(threads)); err != nil {
			return err
		}
		x := spmspv.NewVector(a2.NumCols, 1)
		x.Append(srcs[0], float64(srcs[0]))
		m.Mult(spmspv.NewFrontier(x), m.NewOutputFrontier(), spmspv.MinSelect2nd, spmspv.Desc{})
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups), "s")
	// From here on the engine's own decoded copy is the only matrix kept.
	a = m.Matrix()

	bfs := func(k int) error {
		o := oracles[order[k%len(order)]]
		return o.check(spmspv.BFSMasked(m, o.source))
	}
	for k := 0; k < len(oracles); k++ { // warm-up, checked, untimed
		if err := bfs(k); err != nil {
			rep.errorf("warm-up: %v", err)
		}
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	minOps := samplesFor(0.99)
	if cfg.smoke {
		minOps = 0
	}

	if !cfg.trace {
		// Return the set-up garbage to the OS so the peak is the
		// workload's own.
		debug.FreeOSMemory()
		p := &phase{}
		cpu0 := selfCPUMS()
		ws := startWindows(p.tally.attempted.Load, selfCPUMS, selfRSSMB)
		closedLoop(p, 1, d, minOps, func(_, k int, rec recorder) {
			t := time.Now()
			rec(t, bfs(k))
		})
		reportWindows(rep, p, ws, selfCPUMS()-cpu0)
		p.tally.into(rep)
		reportLatency(rep, &p.lat, cfg.smoke)
		return nil
	}

	// Traced run: an untraced half, then the same loop traced.
	zeroLayers(rep)
	tr := newTracer()
	pu, pt := &phase{}, &phase{}
	closedLoop(pu, 1, d/2, 0, func(_, k int, rec recorder) {
		t := time.Now()
		rec(t, bfs(k))
	})
	pu.tally.into(rep)
	s0 := takeSnap(nil)
	tr.on.Store(true)
	closedLoop(pt, 1, d/2, 0, func(_, k int, rec recorder) {
		t := time.Now()
		var err error
		tr.record("lib.bfs", 0, int64(k), func(int64) { err = bfs(k) })
		rec(t, err)
	})
	s1 := takeSnap(nil)
	pt.tally.into(rep)
	phaseLayers(rep, s0, s1, pt.tally.attempted.Load(), 0)
	rep.set("loadgen.offered_rps", pt.opsPerS(), "1/s")
	rep.set("trace.overhead_frac", 1-pt.opsPerS()/pu.opsPerS(), "frac")

	if err := storeLayer(tr, rep, a, []spmspv.Option{spmspv.WithThreads(threads)}); err != nil {
		return err
	}
	k, err := newKernel(a, spmspv.Options{Threads: threads})
	if err != nil {
		return err
	}
	probe := bfsSteps(oracles[:min(bfsRMATProbe, len(oracles))])
	if err := storeDo(tr, rep, a, []spmspv.Option{spmspv.WithThreads(threads)}, probe[0]); err != nil {
		return err
	}
	first, err := replay(tr, []kernel{k}, probe)
	if err != nil {
		return err
	}
	second, err := replay(tr, []kernel{k}, probe)
	if err != nil {
		return err
	}
	second.into(rep, threads)
	checkRepeat(rep, cfg.outDir, first.counts(), second.counts())
	dumpSpans(tr, rep, cfg.outDir)
	return nil
}

// bfsSteps turns BFS oracles into replay ops, one step per level.
func bfsSteps(oracles []*bfsOracle) [][]kernelStep {
	ops := make([][]kernelStep, len(oracles))
	for q, o := range oracles {
		ops[q] = o.steps()
	}
	return ops
}

// storeDo times Store.Do on one op's steps, sent as wire requests to a
// scratch store holding a.
func storeDo(tr *tracer, rep *report, a *spmspv.Matrix, opts []spmspv.Option, steps []kernelStep) error {
	st := spmspv.NewStore(opts...)
	if err := st.Put("scratch", a); err != nil {
		return err
	}
	if _, err := st.Load("scratch"); err != nil {
		return err
	}
	var total time.Duration
	for _, s := range steps {
		req := &spmspv.Request{Matrix: "scratch", X: s.x, Desc: spmspv.Desc{Semiring: "bfs", Mask: s.mask, Complement: true}}
		var resp *spmspv.Response
		var err error
		total += tr.record("store.do", 0, 0, func(int64) { resp, err = st.Do(req) })
		if err != nil {
			return fmt.Errorf("store.do: %v", err)
		}
		if err := sameVector(resp.Y, s.want); err != nil {
			return fmt.Errorf("store.do: %v", err)
		}
	}
	rep.set("store.do_us", float64(total)/1e3/float64(len(steps)), "us")
	return nil
}
