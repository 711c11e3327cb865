package spmspv_test

import (
	"bytes"
	"fmt"
	"testing"

	spmspv "spmspv"
	"spmspv/internal/graphgen"
	"spmspv/internal/sparse"
)

// TestIntegrationAllEnginesAllGraphsAllAlgorithms is the cross-module
// integration matrix: every SpMSpV engine drives every graph algorithm
// on every Table IV stand-in class at small scale, and structural
// invariants are checked on each result. This is the test that fails if
// any engine/algorithm/format combination disagrees.
func TestIntegrationAllEnginesAllGraphsAllAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("integration matrix is slow")
	}
	const scale = 8
	graphs := map[string]*spmspv.Matrix{}
	for _, name := range []string{"rmat-ljournal", "grid5-g3circuit", "trimesh-delaunay", "rgg"} {
		p, ok := graphgen.FindProblem(name)
		if !ok {
			t.Fatalf("problem %s missing", name)
		}
		graphs[name] = p.Build(scale)
	}
	algos := []spmspv.Algorithm{
		spmspv.Bucket, spmspv.CombBLASSPA, spmspv.CombBLASHeap,
		spmspv.GraphMat, spmspv.SortBased,
	}

	for gname, g := range graphs {
		// Reference structure from the sequential BFS oracle.
		wantLevels, _, _ := sparse.BFSLevels(g, 0)
		reachable := 0
		for _, l := range wantLevels {
			if l >= 0 {
				reachable++
			}
		}
		for _, alg := range algos {
			name := fmt.Sprintf("%s/%s", gname, alg)
			mu := newMult(t, g, alg, spmspv.Options{Threads: 3, SortOutput: true})

			// BFS levels must match the oracle exactly.
			res := spmspv.BFS(mu, 0)
			for v := range wantLevels {
				if res.Levels[v] != wantLevels[v] {
					t.Fatalf("%s: BFS level mismatch at %d", name, v)
				}
			}

			// Connected components: the reachable set from 0 must share
			// one label (these graphs are undirected).
			labels := spmspv.ConnectedComponents(mu)
			for v, l := range wantLevels {
				if l >= 0 && labels[v] != labels[0] {
					t.Fatalf("%s: vertex %d reachable but in another component", name, v)
				}
			}

			// SSSP over unit weights must equal BFS levels.
			dist := spmspv.SSSP(mu, 0)
			for v, l := range wantLevels {
				if l >= 0 && dist[v] != float64(l) {
					t.Fatalf("%s: unit-weight SSSP %g != BFS level %d at vertex %d",
						name, dist[v], l, v)
				}
			}

			// PageRank sums to 1.
			pr := spmspv.PageRank(
				newMult(t, spmspv.NormalizeColumns(g), alg,
					spmspv.Options{Threads: 3, SortOutput: true}),
				spmspv.PageRankOptions{})
			var sum float64
			for _, r := range pr.Ranks {
				sum += r
			}
			if sum < 0.999999 || sum > 1.000001 {
				t.Fatalf("%s: PageRank sums to %g", name, sum)
			}
		}

		// MIS once per graph with the default engine (engine-independent
		// given the same random seed would require identical iteration
		// order, so validity rather than equality is the invariant).
		mu := newMult(t, g, spmspv.Bucket, spmspv.Options{Threads: 3, SortOutput: true})
		inSet := spmspv.MaximalIndependentSet(mu, 123)
		simple := spmspv.StripSelfLoops(g)
		for v := spmspv.Index(0); v < simple.NumCols; v++ {
			rows, _ := simple.Col(v)
			if inSet[v] {
				for _, u := range rows {
					if u != v && inSet[u] {
						t.Fatalf("%s: MIS not independent", gname)
					}
				}
			}
		}
	}
}

// TestIntegrationMatrixMarketPipeline round-trips a generated graph
// through the Matrix Market format and verifies multiplication results
// survive serialization.
func TestIntegrationMatrixMarketPipeline(t *testing.T) {
	p, _ := graphgen.FindProblem("trimesh-hugetric")
	g := p.Build(8)
	x := spmspv.NewVector(g.NumCols, 3)
	x.Append(0, 1)
	x.Append(g.NumCols/2, 2)
	x.Append(g.NumCols-1, 3)

	before := mult(newMult(t, g, spmspv.Bucket, spmspv.Options{SortOutput: true}), x, spmspv.Arithmetic, spmspv.Desc{})

	var buf bytes.Buffer
	if err := spmspv.WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := spmspv.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	after := mult(newMult(t, back, spmspv.Bucket, spmspv.Options{SortOutput: true}), x, spmspv.Arithmetic, spmspv.Desc{})
	if !after.EqualValues(before, 0) {
		t.Error("multiplication result changed across Matrix Market round trip")
	}
}
