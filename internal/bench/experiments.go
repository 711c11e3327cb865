package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"spmspv/internal/algorithms"
	"spmspv/internal/core"
	"spmspv/internal/engine"
	"spmspv/internal/graphgen"
	"spmspv/internal/perf"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// sortEngine returns the SpMSpV-sort baseline spec (Table I's fifth
// algorithm, evaluated in the Tables I/II work-measurement experiment).
func sortEngine() EngineSpec {
	return registrySpec(engine.SortBased)
}

// Config holds the shared experiment parameters.
type Config struct {
	// Scale is log2 of the stand-in graph vertex counts. The paper's
	// matrices have 0.4M-16.8M vertices; laptop-scale defaults keep the
	// suite's full-run time in minutes.
	Scale int
	// Threads is the list of thread counts to sweep (the paper sweeps
	// 1..24 on Ivy Bridge and 1..64 on KNL).
	Threads []int
	// Reps is the number of timed repetitions per measurement.
	Reps int
	// Source is the BFS source vertex ("the same source vertex is used
	// ... by all four algorithms", §IV-D).
	Source sparse.Index
}

// DefaultConfig mirrors the paper's sweep shape at laptop scale.
func DefaultConfig() Config {
	return Config{Scale: 14, Threads: []int{1, 2, 4, 8}, Reps: 3, Source: 0}
}

// ljournal returns the stand-in for ljournal-2008, the matrix the paper
// uses for Figs. 2, 3 and 6.
func ljournal(scale int) *sparse.CSC {
	p, _ := graphgen.FindProblem("rmat-ljournal")
	return p.Build(scale)
}

// shuffled returns an unsorted copy of x (for the unsorted-variant arm
// of Fig. 2).
func shuffled(x *sparse.SpVec, seed int64) *sparse.SpVec {
	c := x.Clone()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(c.NNZ(), func(i, j int) {
		c.Ind[i], c.Ind[j] = c.Ind[j], c.Ind[i]
		c.Val[i], c.Val[j] = c.Val[j], c.Val[i]
	})
	c.Sorted = false
	return c
}

// Fig2 reproduces Figure 2: runtime of the SpMSpV-bucket algorithm with
// and without sorted input/output vectors, at a sparse and a dense
// frontier, across thread counts. The paper's nnz(x) of 10K and 2.5M on
// a 5.36M-vertex graph are scaled to the same fractions of the stand-in
// (≈0.2% and ≈47% of n).
func Fig2(w io.Writer, cfg Config) {
	a := ljournal(cfg.Scale)
	n := int(a.NumCols)
	frontiers := CaptureFrontiers(a, cfg.Source)
	for _, target := range []int{n / 500, n * 47 / 100} {
		x := FrontierWithNNZ(frontiers, target)
		if x == nil {
			fmt.Fprintf(w, "fig2: no frontier near nnz=%d\n", target)
			continue
		}
		xu := shuffled(x, 1)
		tbl := NewTable(
			fmt.Sprintf("Fig 2: SpMSpV-bucket sorted vs unsorted, %s stand-in, nnz(x)=%d", "ljournal-2008", x.NNZ()),
			"threads", "ran on", "sorted(ms)", "unsorted(ms)", "sorted speedup", "unsorted speedup")
		var baseS, baseU time.Duration
		for _, t := range cfg.Threads {
			ms := TimeMultiply(BucketEngine(core.Options{SortOutput: true}), a, x, t, cfg.Reps)
			mu := TimeMultiply(BucketEngine(core.Options{SortOutput: false}), a, xu, t, cfg.Reps)
			if t == cfg.Threads[0] {
				baseS, baseU = ms.Elapsed, mu.Elapsed
			}
			tbl.AddRow(fmt.Sprint(t), ms.ranOn(), Ms(ms.Elapsed), Ms(mu.Elapsed),
				Speedup(baseS, ms.Elapsed), Speedup(baseU, mu.Elapsed))
		}
		tbl.Render(w)
		fmt.Fprintln(w)
	}
}

// Fig3 reproduces Figure 3: runtime of the four SpMSpV algorithms as a
// function of nnz(x), where the vectors are the frontiers of a BFS on
// the ljournal stand-in, at 1 thread and at the largest configured
// thread count.
func Fig3(w io.Writer, cfg Config) {
	a := ljournal(cfg.Scale)
	frontiers := CaptureFrontiers(a, cfg.Source)
	tmax := cfg.Threads[len(cfg.Threads)-1]
	for _, threads := range []int{1, tmax} {
		tbl := NewTable(
			fmt.Sprintf("Fig 3: SpMSpV time vs nnz(x), ljournal-2008 stand-in, %d thread(s)", threads),
			"nnz(x)", "bucket(ms)", "CombBLAS-SPA(ms)", "CombBLAS-heap(ms)", "GraphMat(ms)",
			"SPA/bucket", "heap/bucket", "GrM/bucket", "bucket ran on")
		for _, x := range frontiers {
			ms := make([]Measurement, 0, 4)
			for _, spec := range AllEngines() {
				ms = append(ms, TimeMultiply(spec, a, x, threads, cfg.Reps))
			}
			tbl.AddRow(fmt.Sprint(x.NNZ()),
				Ms(ms[0].Elapsed), Ms(ms[1].Elapsed), Ms(ms[2].Elapsed), Ms(ms[3].Elapsed),
				Speedup(ms[1].Elapsed, ms[0].Elapsed), Speedup(ms[2].Elapsed, ms[0].Elapsed),
				Speedup(ms[3].Elapsed, ms[0].Elapsed), ms[0].ranOn())
		}
		tbl.Render(w)
		fmt.Fprintln(w)
	}
}

// Fig4 reproduces Figure 4: strong scaling of the four algorithms when
// used inside BFS, across the Table IV problem suite ("we only report
// the runtime of SpMSpVs in all iterations").
func Fig4(w io.Writer, cfg Config) {
	fig45(w, cfg, "Fig 4", graphgen.Problems(), AllEngines())
}

// Fig5 reproduces Figure 5: the same BFS scaling on the manycore
// (KNL-analogue) configuration — the four scale-free graphs of the
// paper's Fig. 5, without GraphMat ("we were unable to run GraphMat on
// KNL"). The thread sweep should be set wider by the caller (the paper
// uses up to 64); work counters substitute for physical cores beyond
// the host's count (see DESIGN.md).
func Fig5(w io.Writer, cfg Config) {
	names := map[string]bool{
		"rmat-ljournal": true, "rmat-webgoogle": true,
		"rmat-wikipedia": true, "rmat-wbedu": true,
	}
	var probs []graphgen.Problem
	for _, p := range graphgen.Problems() {
		if names[p.Name] {
			probs = append(probs, p)
		}
	}
	fig45(w, cfg, "Fig 5 (KNL analogue)", probs, AllEngines()[:3])
}

func fig45(w io.Writer, cfg Config, figName string, probs []graphgen.Problem, specs []EngineSpec) {
	for _, p := range probs {
		a := p.Build(cfg.Scale)
		frontiers := CaptureFrontiers(a, cfg.Source)
		headers := []string{"threads", "bucket ran on"}
		for _, s := range specs {
			headers = append(headers, s.Name+"(ms)")
		}
		for _, s := range specs {
			headers = append(headers, s.Name+" work")
		}
		tbl := NewTable(
			fmt.Sprintf("%s: BFS SpMSpV time, %s (stand-in for %s, %s, n=%d, nnz=%d, levels=%d)",
				figName, p.Name, p.PaperName, p.Class, a.NumCols, a.NNZ(), len(frontiers)),
			headers...)
		for _, t := range cfg.Threads {
			row := []string{fmt.Sprint(t), ""}
			var works []string
			for i, spec := range specs {
				m := TimeBFS(spec, a, frontiers, t, cfg.Reps)
				if i == 0 { // specs[0] is the bucket engine
					row[1] = m.ranOn()
				}
				row = append(row, Ms(m.Elapsed))
				works = append(works, fmt.Sprint(m.Work.Work()))
			}
			row = append(row, works...)
			tbl.AddRow(row...)
		}
		tbl.Render(w)
		fmt.Fprintln(w)
	}
}

// Fig6 reproduces Figure 6: the per-step breakdown (estimate buckets /
// bucketing / SPA-merge / output) of the SpMSpV-bucket algorithm across
// thread counts at three frontier densities. The paper's nnz(x) of 200,
// 10K and 2.5M on 5.36M vertices become the same fractions of the
// stand-in.
func Fig6(w io.Writer, cfg Config) {
	a := ljournal(cfg.Scale)
	frontiers := CaptureFrontiers(a, cfg.Source)
	for _, x := range distinctByNNZ(frontiers, 3) {
		tbl := NewTable(
			fmt.Sprintf("Fig 6: SpMSpV-bucket step breakdown, nnz(x)=%d", x.NNZ()),
			"threads", "ran on", "estimate(ms)", "bucketing(ms)", "SPA-merge(ms)", "output(ms)", "total(ms)")
		for _, t := range cfg.Threads {
			spec := BucketEngine(core.Options{SortOutput: true})
			eng := spec.Build(a, t).(*core.Multiplier)
			mult := ListMult(eng, a, sparse.NewOutputFrontier(a.NumRows))
			mult(x, semiring.Arithmetic) // warmup
			var acc perf.StepTimes
			for r := 0; r < cfg.Reps; r++ {
				mult(x, semiring.Arithmetic)
				acc.Add(eng.Steps())
			}
			acc.Scale(cfg.Reps)
			tbl.AddRow(fmt.Sprint(t), fmt.Sprint(eng.CallThreads(x)),
				Ms(acc.Estimate), Ms(acc.Bucket), Ms(acc.Merge), Ms(acc.Output), Ms(acc.Total()))
		}
		tbl.Render(w)
		fmt.Fprintln(w)
	}
}

// Table4 reproduces Table IV: the test problem suite with vertex/edge
// counts and pseudo-diameters, side by side with the originals' numbers
// from the paper.
func Table4(w io.Writer, cfg Config) {
	paper := map[string][3]string{
		"amazon0312":         {"0.40M", "3.20M", "21"},
		"web-Google":         {"0.92M", "5.11M", "16"},
		"wikipedia-20070206": {"3.56M", "45.03M", "14"},
		"ljournal-2008":      {"5.36M", "79.02M", "34"},
		"wb-edu":             {"9.85M", "57.16M", "38"},
		"dielFilterV3real":   {"1.10M", "89.31M", "84"},
		"G3_circuit":         {"1.56M", "7.66M", "514"},
		"hugetric-00020":     {"7.12M", "21.36M", "3662"},
		"hugetrace-00020":    {"16.00M", "48.00M", "5633"},
		"delaunay_n24":       {"16.77M", "100.66M", "1718"},
		"rgg_n_2_24_s0":      {"16.77M", "165.10M", "3069"},
	}
	tbl := NewTable(
		fmt.Sprintf("Table IV: test problems (stand-ins generated at scale %d)", cfg.Scale),
		"class", "stand-in", "paper matrix", "n", "nnz", "avg deg", "pseudo-diam",
		"paper n", "paper nnz", "paper diam")
	for _, p := range graphgen.Problems() {
		a := p.Build(cfg.Scale)
		s := sparse.ComputeStats(p.Name, a, cfg.Source)
		pp := paper[p.PaperName]
		tbl.AddRow(p.Class.String(), p.Name, p.PaperName,
			fmt.Sprint(s.Vertices), fmt.Sprint(s.Edges),
			fmt.Sprintf("%.1f", s.AvgDegree), fmt.Sprint(s.PseudoDiameter),
			pp[0], pp[1], pp[2])
	}
	tbl.Render(w)
	fmt.Fprintln(w)
}

// Tables12 reproduces the classifications of Tables I and II with
// measured work counters instead of asymptotic formulas: for an
// Erdős–Rényi matrix and a fixed sparse input, it reports each
// algorithm's input-scan, column-probe, matrix, SPA-initialization and
// sorting work at two thread counts. A work-efficient algorithm's
// totals stay flat as t grows; the row-split baselines' x-scan grows
// linearly and GraphMat's probes stay pinned at nzc.
func Tables12(w io.Writer, cfg Config) {
	n := sparse.Index(1) << cfg.Scale
	d := 8.0
	a := graphgen.ErdosRenyi(n, d, 42)
	for _, f := range []int{64, int(n) / 64, int(n) / 4} {
		x := randomFrontier(n, f, 7)
		tbl := NewTable(
			fmt.Sprintf("Tables I/II (measured): ER n=%d d=%.0f, nnz(x)=%d — per-multiply work", n, d, f),
			"algorithm", "t", "x-scanned", "col-probes", "matrix", "SPA-init", "SPA-upd",
			"bucket-wr", "heap-ops", "sorted", "total")
		for _, spec := range append(AllEngines(), sortEngine()) {
			for _, t := range []int{1, cfg.Threads[len(cfg.Threads)-1]} {
				m := TimeMultiply(spec, a, x, t, 1)
				c := m.Work
				tbl.AddRow(spec.Name, fmt.Sprint(t),
					fmt.Sprint(c.XScanned), fmt.Sprint(c.ColumnsProbed), fmt.Sprint(c.MatrixTouched),
					fmt.Sprint(c.SPAInit), fmt.Sprint(c.SPAUpdates), fmt.Sprint(c.BucketWrites),
					fmt.Sprint(c.HeapOps), fmt.Sprint(c.SortedElems), fmt.Sprint(c.Work()))
			}
		}
		tbl.Render(w)
		fmt.Fprintln(w)
	}
}

// Platform prints the host configuration next to the paper's Table III
// platforms, documenting the hardware substitution.
func Platform(w io.Writer, cfg Config) {
	tbl := NewTable("Table III: evaluated platform (substitution for Edison/Cori)",
		"property", "this host", "paper: Edison (Ivy Bridge)", "paper: Cori (KNL)")
	tbl.AddRow("cores", fmt.Sprint(runtime.NumCPU()), "2×12", "64")
	tbl.AddRow("GOMAXPROCS", fmt.Sprint(runtime.GOMAXPROCS(0)), "-", "-")
	tbl.AddRow("arch", runtime.GOARCH, "x86-64", "x86-64 (KNL)")
	tbl.AddRow("os", runtime.GOOS, "Cray XC30", "Cray XC40")
	tbl.AddRow("toolchain", runtime.Version(), "gcc 5.3.0 -O3", "gcc 5.3.0 -O3")
	tbl.Render(w)
	fmt.Fprintln(w, `
Scaling beyond the host's physical cores is evaluated with the work
counters (perf.Counters): work-efficiency — the paper's central claim —
is a property of total work versus thread count and is machine
independent. Wall-clock strong-scaling curves require the original core
counts and are reported for the thread counts the host actually has.`)
}

// distinctByNNZ picks up to k frontiers with distinct sizes spanning
// the sparsity range: the sparsest, the densest, and evenly spaced
// picks in between (by rank).
func distinctByNNZ(frontiers []*sparse.SpVec, k int) []*sparse.SpVec {
	uniq := map[int]*sparse.SpVec{}
	for _, fr := range frontiers {
		if _, ok := uniq[fr.NNZ()]; !ok {
			uniq[fr.NNZ()] = fr
		}
	}
	sizes := make([]int, 0, len(uniq))
	for s := range uniq {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	if len(sizes) <= k {
		out := make([]*sparse.SpVec, 0, len(sizes))
		for _, s := range sizes {
			out = append(out, uniq[s])
		}
		return out
	}
	out := make([]*sparse.SpVec, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, uniq[sizes[i*(len(sizes)-1)/(k-1)]])
	}
	return out
}

func randomFrontier(n sparse.Index, f int, seed int64) *sparse.SpVec {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(int(n))[:f]
	x := sparse.NewSpVec(n, f)
	for _, i := range perm {
		x.Append(sparse.Index(i), rng.Float64()+0.5)
	}
	x.Sort()
	return x
}

// Masked compares BFS with the visited-set mask pushed into the merge
// step (the §V GraphBLAS extension) against plain BFS with post-hoc
// filtering.
func Masked(w io.Writer, cfg Config) {
	tbl := NewTable("Extension: masked SpMSpV in BFS (paper §V future work)",
		"graph", "threads", "plain BFS(ms)", "masked BFS(ms)", "masked/plain")
	for _, name := range []string{"rmat-ljournal", "grid5-g3circuit"} {
		p, _ := graphgen.FindProblem(name)
		a := p.Build(cfg.Scale)
		for _, t := range cfg.Threads {
			opt := core.Options{Threads: t, SortOutput: true}
			engPlain := core.NewMultiplier(a, opt)
			engMasked := core.NewMultiplier(a, opt)
			// Warmup.
			algorithms.BFS(engPlain, a.NumCols, cfg.Source, false)
			algorithms.BFSMasked(engMasked, a.NumCols, cfg.Source)

			start := time.Now()
			for r := 0; r < cfg.Reps; r++ {
				algorithms.BFS(engPlain, a.NumCols, cfg.Source, false)
			}
			plain := time.Since(start) / time.Duration(cfg.Reps)
			start = time.Now()
			for r := 0; r < cfg.Reps; r++ {
				algorithms.BFSMasked(engMasked, a.NumCols, cfg.Source)
			}
			masked := time.Since(start) / time.Duration(cfg.Reps)
			ratio := float64(masked) / float64(plain)
			tbl.AddRow(name, fmt.Sprint(t), Ms(plain), Ms(masked), fmt.Sprintf("%.2f", ratio))
		}
	}
	tbl.Render(w)
	fmt.Fprintln(w)
}
