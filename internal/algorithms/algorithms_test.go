package algorithms

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"spmspv/internal/baselines"
	"spmspv/internal/core"
	"spmspv/internal/graphgen"
	"spmspv/internal/perf"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// allEngines returns every SpMSpV implementation bound to a, so each
// graph algorithm is exercised over each engine.
func allEngines(a *sparse.CSC, threads int) map[string]Multiplier {
	return map[string]Multiplier{
		"bucket":        core.NewMultiplier(a, core.Options{Threads: threads, SortOutput: true}),
		"combblas-spa":  baselines.NewCombBLASSPA(a, threads),
		"combblas-heap": baselines.NewCombBLASHeap(a, threads),
		"graphmat":      baselines.NewGraphMat(a, threads),
		"sort":          baselines.NewSortBased(a, threads),
	}
}

// symmetrize returns A ∨ Aᵀ with unit weights (an undirected version of
// a directed graph).
func symmetrize(t *testing.T, a *sparse.CSC) *sparse.CSC {
	t.Helper()
	tr := sparse.NewTriples(a.NumRows, a.NumCols, int(2*a.NNZ()))
	for j := sparse.Index(0); j < a.NumCols; j++ {
		rows, _ := a.Col(j)
		for _, i := range rows {
			tr.AppendSymmetric(i, j, 1)
		}
	}
	tr.SumDuplicates(func(x, y float64) float64 { return 1 })
	s, err := sparse.NewCSCFromTriples(tr)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testGraphs(t *testing.T) map[string]*sparse.CSC {
	t.Helper()
	return map[string]*sparse.CSC{
		"rmat":    graphgen.RMAT(graphgen.DefaultRMAT(9), 1),
		"grid":    graphgen.Grid2D(24, 24),
		"trimesh": graphgen.TriangularMesh(20, 30, 5),
		"er":      symmetrize(t, graphgen.ErdosRenyi(400, 3, 2)),
	}
}

func TestBFSAgainstSequentialOracle(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for ename, eng := range allEngines(g, 4) {
			res := BFS(eng, g.NumCols, 0, false)
			if msg := ValidateBFS(g, 0, res); msg != "" {
				t.Errorf("%s/%s: %s", gname, ename, msg)
			}
		}
	}
}

func TestBFSUnreachableSource(t *testing.T) {
	g := graphgen.Grid2D(5, 5)
	eng := core.NewMultiplier(g, core.Options{Threads: 2})
	res := BFS(eng, g.NumCols, -1, false)
	for _, l := range res.Levels {
		if l != -1 {
			t.Fatal("out-of-range source reached vertices")
		}
	}
}

func TestBFSCapturesFrontiers(t *testing.T) {
	g := graphgen.Grid2D(10, 10)
	eng := core.NewMultiplier(g, core.Options{Threads: 2, SortOutput: true})
	res := BFS(eng, g.NumCols, 0, true)
	if len(res.Frontiers) != len(res.FrontierSizes) {
		t.Fatalf("%d frontiers vs %d sizes", len(res.Frontiers), len(res.FrontierSizes))
	}
	var reached int
	for k, fr := range res.Frontiers {
		if fr.NNZ() != res.FrontierSizes[k] {
			t.Errorf("frontier %d: nnz %d vs recorded %d", k, fr.NNZ(), res.FrontierSizes[k])
		}
		reached += fr.NNZ()
	}
	// A connected grid: every vertex appears in exactly one frontier.
	if reached != 100 {
		t.Errorf("frontiers covered %d vertices, want 100", reached)
	}
}

func TestBFSMaskedMatchesPlain(t *testing.T) {
	for gname, g := range testGraphs(t) {
		eng := core.NewMultiplier(g, core.Options{Threads: 4, SortOutput: true})
		plain := BFS(eng, g.NumCols, 0, false)
		masked := BFSMasked(eng, g.NumCols, 0)
		for v := range plain.Levels {
			if plain.Levels[v] != masked.Levels[v] {
				t.Fatalf("%s: level mismatch at %d: %d vs %d",
					gname, v, plain.Levels[v], masked.Levels[v])
			}
		}
		if msg := ValidateBFS(g, 0, masked); msg != "" {
			t.Errorf("%s: masked BFS invalid: %s", gname, msg)
		}
	}
}

// unionFind is the oracle for connected components.
func unionFind(a *sparse.CSC) []sparse.Index {
	n := a.NumCols
	parent := make([]sparse.Index, n)
	for i := range parent {
		parent[i] = sparse.Index(i)
	}
	var find func(x sparse.Index) sparse.Index
	find = func(x sparse.Index) sparse.Index {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for j := sparse.Index(0); j < n; j++ {
		rows, _ := a.Col(j)
		for _, i := range rows {
			ri, rj := find(i), find(j)
			if ri != rj {
				if ri < rj {
					parent[rj] = ri
				} else {
					parent[ri] = rj
				}
			}
		}
	}
	labels := make([]sparse.Index, n)
	for i := range labels {
		labels[i] = find(sparse.Index(i))
	}
	return labels
}

func TestConnectedComponentsAgainstUnionFind(t *testing.T) {
	// Disconnected graph: two grids side by side plus isolated vertices.
	rng := rand.New(rand.NewSource(4))
	tr := sparse.NewTriples(150, 150, 600)
	// Component A: path over vertices 0..49.
	for i := sparse.Index(0); i < 49; i++ {
		tr.AppendSymmetric(i, i+1, 1)
	}
	// Component B: random connected blob over 50..99.
	for k := 0; k < 200; k++ {
		i := sparse.Index(50 + rng.Intn(50))
		j := sparse.Index(50 + rng.Intn(50))
		if i != j {
			tr.AppendSymmetric(i, j, 1)
		}
	}
	// 100..149 isolated.
	g, err := sparse.NewCSCFromTriples(tr)
	if err != nil {
		t.Fatal(err)
	}

	want := unionFind(g)
	for ename, eng := range allEngines(g, 3) {
		got := ConnectedComponents(eng, g.NumCols)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: vertex %d labeled %d, union-find says %d", ename, v, got[v], want[v])
			}
		}
	}
	if c := CountComponents(want); c != 52 {
		t.Errorf("component count = %d, want 52", c)
	}
}

func TestMISValidOnAllGraphs(t *testing.T) {
	for gname, g := range testGraphs(t) {
		// Luby's rounds require a simple graph; the symmetrized ER
		// stand-in can carry self-loops (see mis.go's contract).
		simple := sparse.StripSelfLoops(g)
		eng := core.NewMultiplier(simple, core.Options{Threads: 4, SortOutput: true})
		inSet := MaximalIndependentSet(eng, simple.NumCols, 42)
		if msg := ValidateMIS(simple, inSet); msg != "" {
			t.Errorf("%s: %s", gname, msg)
		}
	}
}

func TestMISSelfLoopLivelockRegression(t *testing.T) {
	// Regression: a self-looped candidate's own priority enters its
	// neighbor minimum, so it can never win a Luby round. The stripped
	// copy must terminate and still be a valid MIS of the simple graph.
	tr := sparse.NewTriples(6, 6, 8)
	tr.AppendSymmetric(0, 1, 1)
	tr.AppendSymmetric(1, 2, 1)
	tr.Append(3, 3, 1) // isolated-but-self-looped vertex
	tr.AppendSymmetric(4, 5, 1)
	g, err := sparse.NewCSCFromTriples(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasSelfLoops() {
		t.Fatal("test graph should have a self loop")
	}
	simple := sparse.StripSelfLoops(g)
	if simple.HasSelfLoops() {
		t.Fatal("StripSelfLoops left a diagonal entry")
	}
	eng := core.NewMultiplier(simple, core.Options{Threads: 2})
	done := make(chan []bool, 1)
	go func() { done <- MaximalIndependentSet(eng, simple.NumCols, 9) }()
	select {
	case inSet := <-done:
		if msg := ValidateMIS(simple, inSet); msg != "" {
			t.Error(msg)
		}
		if !inSet[3] {
			t.Error("vertex 3 is isolated after stripping and must join the MIS")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("MIS livelocked")
	}
}

func TestMISIsolatedVertices(t *testing.T) {
	tr := sparse.NewTriples(10, 10, 2)
	tr.AppendSymmetric(0, 1, 1)
	g, err := sparse.NewCSCFromTriples(tr)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewMultiplier(g, core.Options{Threads: 2})
	inSet := MaximalIndependentSet(eng, 10, 7)
	for v := 2; v < 10; v++ {
		if !inSet[v] {
			t.Errorf("isolated vertex %d not in MIS", v)
		}
	}
	if msg := ValidateMIS(g, inSet); msg != "" {
		t.Error(msg)
	}
}

func TestSSSPAgainstDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Weighted random digraph.
	tr := sparse.NewTriples(300, 300, 1500)
	for k := 0; k < 1500; k++ {
		tr.Append(sparse.Index(rng.Intn(300)), sparse.Index(rng.Intn(300)), rng.Float64()+0.05)
	}
	g, err := sparse.NewCSCFromTriples(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := Dijkstra(g, 0)
	for ename, eng := range allEngines(g, 4) {
		got := SSSP(eng, g.NumCols, 0)
		for v := range want {
			if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) {
				t.Fatalf("%s: reachability mismatch at %d", ename, v)
			}
			if !math.IsInf(want[v], 1) && math.Abs(want[v]-got[v]) > 1e-9 {
				t.Fatalf("%s: dist[%d] = %g, want %g", ename, v, got[v], want[v])
			}
		}
	}
}

// densePageRank is the oracle: power iteration on dense vectors.
func densePageRank(a *sparse.CSC, damping float64, iters int) []float64 {
	n := int(a.NumCols)
	norm := NormalizeColumns(a)
	r := make([]float64, n)
	for i := range r {
		r[i] = 1 / float64(n)
	}
	next := make([]float64, n)
	for it := 0; it < iters; it++ {
		for i := range next {
			next[i] = (1 - damping) / float64(n)
		}
		for j := sparse.Index(0); j < a.NumCols; j++ {
			rows, vals := norm.Col(j)
			for k, i := range rows {
				next[i] += damping * vals[k] * r[j]
			}
		}
		r, next = next, r
	}
	var sum float64
	for _, v := range r {
		sum += v
	}
	for i := range r {
		r[i] /= sum
	}
	return r
}

func TestPageRankAgainstPowerIteration(t *testing.T) {
	g := graphgen.RMAT(graphgen.DefaultRMAT(9), 3)
	norm := NormalizeColumns(g)
	eng := core.NewMultiplier(norm, core.Options{Threads: 4, SortOutput: true})
	res := PageRank(eng, g.NumCols, PageRankOptions{Tol: 1e-12, MaxIter: 200})
	want := densePageRank(g, 0.85, 200)
	for v := range want {
		if math.Abs(res.Ranks[v]-want[v]) > 1e-6 {
			t.Fatalf("rank[%d] = %g, want %g", v, res.Ranks[v], want[v])
		}
	}
	if res.Iterations == 0 || len(res.ActiveCounts) != res.Iterations {
		t.Errorf("iteration bookkeeping: %d iters, %d counts", res.Iterations, res.ActiveCounts)
	}
}

func TestPageRankActiveSetShrinks(t *testing.T) {
	// The data-driven property: the active set must shrink as vertices
	// converge (paper §I's motivation for SpMSpV over SpMV).
	g := graphgen.Grid2D(30, 30)
	norm := NormalizeColumns(g)
	eng := core.NewMultiplier(norm, core.Options{Threads: 2})
	res := PageRank(eng, g.NumCols, PageRankOptions{Tol: 1e-8})
	first := res.ActiveCounts[0]
	last := res.ActiveCounts[len(res.ActiveCounts)-1]
	if first != int(g.NumCols) {
		t.Errorf("first round active = %d, want all %d", first, g.NumCols)
	}
	if last >= first {
		t.Errorf("active set did not shrink: first %d, last %d", first, last)
	}
}

func TestNormalizeColumns(t *testing.T) {
	g := graphgen.ErdosRenyi(100, 4, 9)
	norm := NormalizeColumns(g)
	for j := sparse.Index(0); j < norm.NumCols; j++ {
		_, vals := norm.Col(j)
		if len(vals) == 0 {
			continue
		}
		var sum float64
		for _, v := range vals {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("column %d sums to %g", j, sum)
		}
	}
	// Original untouched (duplicate ER edges sum to 2, so compare
	// against a snapshot rather than assuming unit weights).
	snapshot := append([]float64(nil), g.Val...)
	_ = NormalizeColumns(g)
	for k, v := range g.Val {
		if v != snapshot[k] {
			t.Fatal("NormalizeColumns mutated its input")
		}
	}
}

// Interface conformance checks: every engine satisfies Multiplier.
var (
	_ Multiplier = (*core.Multiplier)(nil)
	_ Multiplier = (*baselines.CombBLASSPA)(nil)
	_ Multiplier = (*baselines.CombBLASHeap)(nil)
	_ Multiplier = (*baselines.GraphMat)(nil)
	_ Multiplier = (*baselines.SortBased)(nil)
)

// Silence unused-import linting for perf (kept for documentation of the
// counters flowing through engines).
var _ = perf.Counters{}

func TestSemiringExports(t *testing.T) {
	if semiring.MinSelect2nd.Name == "" {
		t.Error("semiring missing name")
	}
}
