package bench

import (
	"fmt"
	"io"

	"spmspv/internal/core"
	"spmspv/internal/engine"
	"spmspv/internal/graphgen"
	"spmspv/internal/hybrid"
	"spmspv/internal/sparse"
)

// Ablation sweeps the design choices the paper calls out in §III-A:
// buckets per thread (load balancing), the thread-private staging
// buffer (cache efficiency), dynamic versus static merge scheduling,
// the ∞-sentinel versus epoch-tag merge, and the even versus
// nonzero-weighted Step-1 split (§III-B). Each variant is timed on the
// ljournal stand-in at a sparse and a dense frontier.
func Ablation(w io.Writer, cfg Config) {
	a := ljournal(cfg.Scale)
	n := int(a.NumCols)
	frontiers := CaptureFrontiers(a, cfg.Source)
	tmax := cfg.Threads[len(cfg.Threads)-1]

	variants := []struct {
		name string
		opt  core.Options
	}{
		{"default (4 buckets/thread)", core.Options{SortOutput: true}},
		{"1 bucket/thread", core.Options{SortOutput: true, BucketsPerThread: 1}},
		{"2 buckets/thread", core.Options{SortOutput: true, BucketsPerThread: 2}},
		{"8 buckets/thread", core.Options{SortOutput: true, BucketsPerThread: 8}},
		{"16 buckets/thread", core.Options{SortOutput: true, BucketsPerThread: 16}},
		{"staging buffer 32", core.Options{SortOutput: true, StagingEntries: 32}},
		{"staging buffer 256", core.Options{SortOutput: true, StagingEntries: 256}},
		{"static merge sched", core.Options{SortOutput: true, MergeSched: core.SchedStatic}},
		{"∞-sentinel merge", core.Options{SortOutput: true, UseInfSentinel: true}},
		{"even x split", core.Options{SortOutput: true, SplitEvenly: true}},
		{"unsorted output", core.Options{SortOutput: false}},
	}

	for _, target := range []int{n / 500, n * 47 / 100} {
		x := FrontierWithNNZ(frontiers, target)
		if x == nil {
			continue
		}
		tbl := NewTable(
			fmt.Sprintf("Ablation (§III-A/B design choices): ljournal stand-in, nnz(x)=%d, t=%d",
				x.NNZ(), tmax),
			"variant", "ran on", "time(ms)", "vs default", "sync events")
		var base Measurement
		for i, v := range variants {
			m := TimeMultiply(BucketEngine(v.opt), a, x, tmax, cfg.Reps)
			if i == 0 {
				base = m
			}
			tbl.AddRow(v.name, m.ranOn(), Ms(m.Elapsed), Speedup(base.Elapsed, m.Elapsed),
				fmt.Sprint(m.Work.SyncEvents))
		}
		tbl.Render(w)
		fmt.Fprintln(w)
	}
}

// HybridSpec builds the registered Hybrid engine (internal/hybrid) at
// a fixed switch threshold; threshold 0 asks for construction-time
// calibration, exactly as the registry constructor does.
func HybridSpec(threshold float64) EngineSpec {
	return EngineSpec{Name: "Hybrid", Build: func(a *sparse.CSC, t int) Engine {
		if threshold == 0 {
			e, err := engine.New(a, engine.Hybrid, engine.Options{Threads: t, SortOutput: true})
			if err != nil {
				panic(err)
			}
			return e
		}
		return hybrid.NewWithThreshold(a, engine.Options{Threads: t, SortOutput: true}, threshold)
	}}
}

// Hybrid evaluates the §V direction-switch extension with the
// registered Hybrid engine: BFS SpMSpV time for bucket-only,
// GraphMat-only, the calibrated hybrid, and a threshold sweep.
// Matrix-driven call counts come from the engines'
// DirectionSwitches counter.
func Hybrid(w io.Writer, cfg Config) {
	p, _ := graphgen.FindProblem("rmat-ljournal")
	a := p.Build(cfg.Scale)
	frontiers := CaptureFrontiers(a, cfg.Source)
	tmax := cfg.Threads[len(cfg.Threads)-1]

	tbl := NewTable(
		fmt.Sprintf("Extension (§V): hybrid vector/matrix-driven switch, BFS on ljournal stand-in, t=%d", tmax),
		"engine", "threshold", "BFS SpMSpV(ms)", "matrix-driven calls")
	bucketSpec := AllEngines()[0]
	m := TimeBFS(bucketSpec, a, frontiers, tmax, cfg.Reps)
	tbl.AddRow("bucket only", "-", Ms(m.Elapsed), "0")
	gm := AllEngines()[3]
	m = TimeBFS(gm, a, frontiers, tmax, cfg.Reps)
	tbl.AddRow("GraphMat only", "-", Ms(m.Elapsed), fmt.Sprint(len(frontiers)))

	calibrated := HybridSpec(0)
	eng := calibrated.Build(a, tmax).(*hybrid.Engine)
	fixed := HybridSpec(eng.Threshold()) // reuse the learned threshold across reps
	m = TimeBFS(fixed, a, frontiers, tmax, cfg.Reps)
	tbl.AddRow("hybrid (calibrated)", fmt.Sprintf("%.4f", eng.Threshold()),
		Ms(m.Elapsed), fmt.Sprint(m.Work.DirectionSwitches))

	for _, th := range []float64{0.01, 0.05, 0.1, 0.25} {
		m := TimeBFS(HybridSpec(th), a, frontiers, tmax, cfg.Reps)
		tbl.AddRow("hybrid", fmt.Sprintf("%.2f", th), Ms(m.Elapsed),
			fmt.Sprint(m.Work.DirectionSwitches))
	}
	tbl.Render(w)
	fmt.Fprintln(w)
}
