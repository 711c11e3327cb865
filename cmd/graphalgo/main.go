// Command graphalgo runs the SpMSpV-based graph algorithms on a Matrix
// Market adjacency matrix.
//
// Usage:
//
//	graphalgo -matrix graph.mtx -algo bfs -source 0
//	graphalgo -matrix graph.mtx -algo bfsmasked -source 0
//	graphalgo -matrix graph.mtx -algo multibfs -sources 0,7,42
//	graphalgo -matrix graph.mtx -algo multibfsmasked -sources 0,7,42
//	graphalgo -matrix graph.mtx -algo components
//	graphalgo -matrix graph.mtx -algo pagerank
//	graphalgo -matrix graph.mtx -algo mis
//	graphalgo -matrix graph.mtx -algo sssp -source 0
//	graphalgo -matrix graph.mtx -algo cluster -source 0
//	graphalgo -matrix graph.mtx -algo multicluster -sources 0,7,42
//
// The SpMSpV engine is selectable with -engine, as in the paper's
// comparisons; the accepted names for -algo and -engine are derived
// from the algorithm table and the engine registry, so newly
// registered algorithms and engines appear in the help automatically.
// multibfs and multicluster run all their searches/seeds through the
// engine's batched multiply; bfsmasked pushes the visited filter into
// the multiply and pipelines each level's output frontier back as the
// next input.
//
// The hybrid engine routes each multiply by the paper's cost rule, its
// flops against the matrix's nonempty columns, so a run with -engine
// hybrid takes the same directions on every host.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	spmspv "spmspv"
)

// runCtx hands one algorithm runner everything main resolved.
type runCtx struct {
	st      *spmspv.Store
	mu      *spmspv.Multiplier
	a       *spmspv.Matrix
	alg     spmspv.Algorithm
	source  spmspv.Index
	sources []spmspv.Index
	topK    int
}

// algoEntry pairs an -algo name with its runner; the table is the
// single source of the dispatch, the flag help, and whether the
// algorithm consumes the -sources list.
type algoEntry struct {
	name         string
	run          func(*runCtx)
	needsSources bool
}

var algoTable = []algoEntry{
	{name: "bfs", run: runBFS},
	{name: "bfsmasked", run: runBFSMasked},
	{name: "multibfs", run: runMultiBFS, needsSources: true},
	{name: "multibfsmasked", run: runMultiBFSMasked, needsSources: true},
	{name: "components", run: runComponents},
	{name: "pagerank", run: runPageRank},
	{name: "mis", run: runMIS},
	{name: "sssp", run: runSSSP},
	{name: "cluster", run: runCluster},
	{name: "multicluster", run: runMultiCluster, needsSources: true},
}

func algoNames() string {
	names := make([]string, len(algoTable))
	for i, e := range algoTable {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

func main() {
	var (
		matrixPath = flag.String("matrix", "", "Matrix Market adjacency file (required)")
		algo       = flag.String("algo", "bfs", algoNames())
		engName    = flag.String("engine", "bucket", strings.Join(spmspv.EngineNames(), ", "))
		source     = flag.Int("source", 0, "source/seed vertex (bfs, bfsmasked, sssp, cluster)")
		sourcesStr = flag.String("sources", "", "comma-separated source vertices (multibfs, multicluster); empty = 4 spread from -source")
		threads    = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		topK       = flag.Int("top", 10, "entries to print for ranked outputs")
	)
	flag.Parse()
	if *matrixPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	alg, ok := spmspv.ParseAlgorithm(*engName)
	if !ok {
		fatal("unknown engine %q (have: %s)", *engName, strings.Join(spmspv.EngineNames(), ", "))
	}

	// Matrix loading and engine setup go through the serving layer's
	// store — the same loader (Matrix Market, JSON-wire or binary-wire
	// files) and lazily-cached file→matrix→engine path as cmd/spmspv
	// and spmspv-serve.
	st := spmspv.NewStore(
		spmspv.WithAlgorithm(alg),
		spmspv.WithThreads(*threads),
		spmspv.WithSortOutput(true),
	)
	if err := st.PutFile("graph", *matrixPath); err != nil {
		fatal("reading matrix: %v", err)
	}
	mu, err := st.Load("graph")
	if err != nil {
		fatal("%v", err)
	}
	a := mu.Matrix()
	if a.NumRows != a.NumCols {
		fatal("adjacency matrix must be square, got %dx%d", a.NumRows, a.NumCols)
	}
	fmt.Fprintf(os.Stderr, "graphalgo: %s, engine=%s\n", a.String(), alg)

	ctx := &runCtx{
		st:     st,
		mu:     mu,
		a:      a,
		alg:    alg,
		source: spmspv.Index(*source),
		topK:   *topK,
	}
	for _, e := range algoTable {
		if e.name != *algo {
			continue
		}
		if *sourcesStr != "" || e.needsSources {
			srcs, err := parseSources(*sourcesStr, ctx.source, a.NumCols)
			if err != nil {
				fatal("%v", err)
			}
			ctx.sources = srcs
		}
		e.run(ctx)
		return
	}
	fatal("unknown algorithm %q (have: %s)", *algo, algoNames())
}

func runBFS(ctx *runCtx) {
	printBFS(spmspv.BFS(ctx.mu, ctx.source), ctx.a.NumCols)
}

func runBFSMasked(ctx *runCtx) {
	printBFS(spmspv.BFSMasked(ctx.mu, ctx.source), ctx.a.NumCols)
	outConv, native := spmspv.FrontierOutputStats()
	fmt.Printf("output frontiers: %d native bitmaps, %d deferred conversions\n", native, outConv)
}

func printBFS(res *spmspv.BFSResult, n spmspv.Index) {
	reached := 0
	maxLevel := int32(0)
	for _, l := range res.Levels {
		if l >= 0 {
			reached++
			if l > maxLevel {
				maxLevel = l
			}
		}
	}
	fmt.Printf("reached %d of %d vertices, eccentricity %d\n", reached, n, maxLevel)
	fmt.Println("frontier sizes:", res.FrontierSizes)
}

func runMultiBFS(ctx *runCtx) {
	printMultiBFS(ctx, spmspv.MultiBFS(ctx.mu, ctx.sources))
}

func runMultiBFSMasked(ctx *runCtx) {
	printMultiBFS(ctx, spmspv.MultiBFSMasked(ctx.mu, ctx.sources))
	outConv, native := spmspv.FrontierOutputStats()
	fmt.Printf("output frontiers: %d native bitmaps, %d deferred conversions\n", native, outConv)
}

func printMultiBFS(ctx *runCtx, res *spmspv.MultiBFSResult) {
	for s, src := range ctx.sources {
		reached := 0
		maxLevel := int32(0)
		for _, l := range res.Levels[s] {
			if l >= 0 {
				reached++
				if l > maxLevel {
					maxLevel = l
				}
			}
		}
		fmt.Printf("source %d: reached %d of %d vertices, eccentricity %d, frontier sizes %v\n",
			src, reached, ctx.a.NumCols, maxLevel, res.FrontierSizes[s])
	}
}

func runComponents(ctx *runCtx) {
	labels := spmspv.ConnectedComponents(ctx.mu)
	sizes := map[spmspv.Index]int{}
	for _, l := range labels {
		sizes[l]++
	}
	fmt.Printf("%d components\n", len(sizes))
	type comp struct {
		root spmspv.Index
		size int
	}
	all := make([]comp, 0, len(sizes))
	for r, s := range sizes {
		all = append(all, comp{r, s})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].size > all[j].size })
	for k, c := range all {
		if k >= ctx.topK {
			break
		}
		fmt.Printf("  component %d: %d vertices\n", c.root, c.size)
	}
}

func runPageRank(ctx *runCtx) {
	if err := ctx.st.Put("graph-norm", spmspv.NormalizeColumns(ctx.a)); err != nil {
		fatal("%v", err)
	}
	numu, err := ctx.st.Load("graph-norm")
	if err != nil {
		fatal("%v", err)
	}
	res := spmspv.PageRank(numu, spmspv.PageRankOptions{})
	fmt.Printf("converged in %d iterations\n", res.Iterations)
	type vr struct {
		v spmspv.Index
		r float64
	}
	ranked := make([]vr, len(res.Ranks))
	for v, r := range res.Ranks {
		ranked[v] = vr{spmspv.Index(v), r}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].r > ranked[j].r })
	for k := 0; k < ctx.topK && k < len(ranked); k++ {
		fmt.Printf("  vertex %d: %.6g\n", ranked[k].v, ranked[k].r)
	}
}

func runMIS(ctx *runCtx) {
	inSet := spmspv.MaximalIndependentSet(ctx.mu, 42)
	count := 0
	for _, in := range inSet {
		if in {
			count++
		}
	}
	fmt.Printf("maximal independent set: %d of %d vertices\n", count, ctx.a.NumCols)
}

func runSSSP(ctx *runCtx) {
	dist := spmspv.SSSP(ctx.mu, ctx.source)
	reached, maxD := 0, 0.0
	for _, d := range dist {
		if !math.IsInf(d, 1) {
			reached++
			if d > maxD {
				maxD = d
			}
		}
	}
	fmt.Printf("reached %d of %d vertices, max distance %g\n", reached, ctx.a.NumCols, maxD)
}

func runCluster(ctx *runCtx) {
	res := spmspv.LocalCluster(ctx.mu, ctx.source, spmspv.ACLOptions{})
	printCluster(fmt.Sprintf("seed %d", ctx.source), res, ctx.topK)
}

func runMultiCluster(ctx *runCtx) {
	results := spmspv.MultiCluster(ctx.mu, ctx.sources, spmspv.ACLOptions{})
	for s, res := range results {
		printCluster(fmt.Sprintf("seed %d", ctx.sources[s]), res, ctx.topK)
	}
}

func printCluster(label string, res *spmspv.ACLResult, topK int) {
	fmt.Printf("%s: cluster of %d vertices, conductance %.4f, %d push rounds\n",
		label, len(res.Cluster), res.Conductance, res.Rounds)
	for k, v := range res.Cluster {
		if k >= topK {
			break
		}
		fmt.Printf("  %d\n", v)
	}
}

// parseSources resolves the -sources list; empty means 4 sources
// spread across the vertex range starting at base.
func parseSources(s string, base, n spmspv.Index) ([]spmspv.Index, error) {
	if s == "" {
		return spmspv.SpreadSources(n, base, 4), nil
	}
	var srcs []spmspv.Index
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 0 || spmspv.Index(v) >= n {
			return nil, fmt.Errorf("bad source %q (graph has %d vertices)", part, n)
		}
		srcs = append(srcs, spmspv.Index(v))
	}
	return srcs, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "graphalgo: "+format+"\n", args...)
	os.Exit(1)
}
