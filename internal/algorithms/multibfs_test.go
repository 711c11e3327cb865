package algorithms

import (
	"testing"

	"spmspv/internal/core"
	"spmspv/internal/engine"
	"spmspv/internal/graphgen"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// TestMultiBFSMatchesSingleSourceBFS: each source's tree from the
// batched multi-source BFS must be level-identical to a standalone BFS
// from that source, and every parent edge valid.
func TestMultiBFSMatchesSingleSourceBFS(t *testing.T) {
	graphs := map[string]*sparse.CSC{
		"rmat": graphgen.RMAT(graphgen.DefaultRMAT(9), 3),
		"grid": graphgen.Grid2D(24, 24),
	}
	for name, a := range graphs {
		eng := core.NewMultiplier(a, core.Options{Threads: 2, SortOutput: true})
		n := a.NumCols
		sources := []sparse.Index{0, 1, n / 2, n - 1, -1 /* out of range: stays unreached */}
		res := MultiBFS(eng, n, sources, true)

		if len(res.Parents) != len(sources) || len(res.Levels) != len(sources) {
			t.Fatalf("%s: result arity mismatch", name)
		}
		for s, src := range sources {
			if src < 0 {
				for v := sparse.Index(0); v < n; v++ {
					if res.Levels[s][v] != -1 {
						t.Fatalf("%s: out-of-range source reached vertex %d", name, v)
					}
				}
				continue
			}
			single := BFS(eng, n, src, false)
			for v := sparse.Index(0); v < n; v++ {
				if res.Levels[s][v] != single.Levels[v] {
					t.Fatalf("%s source %d: level[%d] = %d, single-source BFS says %d",
						name, src, v, res.Levels[s][v], single.Levels[v])
				}
			}
			if msg := ValidateBFS(a, src, &BFSResult{Parents: res.Parents[s], Levels: res.Levels[s]}); msg != "" {
				t.Fatalf("%s source %d: %s", name, src, msg)
			}
			if len(res.FrontierSizes[s]) != len(single.FrontierSizes) {
				t.Fatalf("%s source %d: %d frontier rounds, want %d",
					name, src, len(res.FrontierSizes[s]), len(single.FrontierSizes))
			}
		}
		// Capture: round 1 has one frontier per in-range source, each nnz 1.
		if len(res.Batches) == 0 || len(res.Batches[0]) != 4 {
			t.Fatalf("%s: captured first batch has %d frontiers, want 4", name, len(res.Batches[0]))
		}
		for _, fr := range res.Batches[0] {
			if fr.NNZ() != 1 {
				t.Errorf("%s: first-level frontier nnz = %d, want 1", name, fr.NNZ())
			}
		}
	}
}

// TestMultiBFSLoopEngine runs the same searches through an engine with
// no native batch path (the shared engine.BatchLoop helper) via a
// wrapper, checking the loop's equivalence to the native batch.
func TestMultiBFSLoopEngine(t *testing.T) {
	a := graphgen.RMAT(graphgen.DefaultRMAT(8), 4)
	n := a.NumCols
	eng := core.NewMultiplier(a, core.Options{Threads: 1, SortOutput: true})
	sources := []sparse.Index{0, 3, 9}

	batched := MultiBFS(eng, n, sources, false)
	looped := MultiBFS(stripBatch{eng}, n, sources, false)
	for s := range sources {
		for v := sparse.Index(0); v < n; v++ {
			if batched.Levels[s][v] != looped.Levels[s][v] {
				t.Fatalf("source %d vertex %d: batched level %d, looped level %d",
					sources[s], v, batched.Levels[s][v], looped.Levels[s][v])
			}
		}
	}
}

// stripBatch replaces the engine's native batch path with the shared
// loop helper, the batch path of engines without one.
type stripBatch struct{ Multiplier }

func (s stripBatch) MultiplyBatch(xs, ys []*sparse.Frontier, sr semiring.Semiring, masks []*sparse.BitVec, complement, bitmap bool) {
	engine.BatchLoop(s, xs, ys, sr, masks, complement, bitmap)
}
