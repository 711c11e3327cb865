package algorithms

import (
	"math/rand"
	"testing"

	"spmspv/internal/core"
	"spmspv/internal/sparse"
)

// bipartite builds a random nr×nc bipartite adjacency with the given
// edge count (duplicates collapse).
func bipartite(t *testing.T, rng *rand.Rand, nr, nc sparse.Index, edges int) *sparse.CSC {
	t.Helper()
	tr := sparse.NewTriples(nr, nc, edges)
	for e := 0; e < edges; e++ {
		tr.Append(sparse.Index(rng.Intn(int(nr))), sparse.Index(rng.Intn(int(nc))), 1)
	}
	tr.SumDuplicates(func(a, b float64) float64 { return 1 })
	a, err := sparse.NewCSCFromTriples(tr)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func matchingEngines(a *sparse.CSC) (Multiplier, Multiplier) {
	at := a.Transpose()
	return core.NewMultiplier(a, core.Options{Threads: 4, SortOutput: true}),
		core.NewMultiplier(at, core.Options{Threads: 4, SortOutput: true})
}

func TestMatchingValidAndMaximalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	shapes := []struct {
		nr, nc sparse.Index
		edges  int
	}{
		{50, 50, 120},
		{100, 30, 300},
		{30, 100, 300},
		{200, 200, 200}, // sparse: many isolated vertices
	}
	for _, sh := range shapes {
		a := bipartite(t, rng, sh.nr, sh.nc, sh.edges)
		// Every engine: both input vectors are rebuilt in place each
		// round, so an engine reading a stale input bitmap would see
		// proposals from columns matched in earlier rounds.
		engs, engsT := allEngines(a, 4), allEngines(a.Transpose(), 4)
		for name, mult := range engs {
			rowMate, colMate := MaximalMatching(mult, engsT[name], sh.nr, sh.nc)
			if msg := ValidateMatching(a, rowMate, colMate); msg != "" {
				t.Errorf("%s %dx%d: %s", name, sh.nr, sh.nc, msg)
			}
		}
	}
}

func TestMatchingPerfectOnDiagonal(t *testing.T) {
	// A diagonal bipartite graph has exactly one perfect matching.
	n := sparse.Index(40)
	tr := sparse.NewTriples(n, n, int(n))
	for i := sparse.Index(0); i < n; i++ {
		tr.Append(i, i, 1)
	}
	a, err := sparse.NewCSCFromTriples(tr)
	if err != nil {
		t.Fatal(err)
	}
	mult, multT := matchingEngines(a)
	rowMate, colMate := MaximalMatching(mult, multT, n, n)
	for i := sparse.Index(0); i < n; i++ {
		if rowMate[i] != i || colMate[i] != i {
			t.Fatalf("diagonal matching wrong at %d: row→%d col→%d", i, rowMate[i], colMate[i])
		}
	}
}

func TestMatchingCompleteBipartite(t *testing.T) {
	// K_{5,8}: matching size must be exactly 5.
	nr, nc := sparse.Index(5), sparse.Index(8)
	tr := sparse.NewTriples(nr, nc, int(nr*nc))
	for i := sparse.Index(0); i < nr; i++ {
		for j := sparse.Index(0); j < nc; j++ {
			tr.Append(i, j, 1)
		}
	}
	a, err := sparse.NewCSCFromTriples(tr)
	if err != nil {
		t.Fatal(err)
	}
	mult, multT := matchingEngines(a)
	rowMate, colMate := MaximalMatching(mult, multT, nr, nc)
	if msg := ValidateMatching(a, rowMate, colMate); msg != "" {
		t.Fatal(msg)
	}
	size := 0
	for _, j := range rowMate {
		if j >= 0 {
			size++
		}
	}
	if size != 5 {
		t.Errorf("matching size %d, want 5 (all rows matched in K_{5,8})", size)
	}
}

func TestMatchingEmptyGraph(t *testing.T) {
	a, err := sparse.NewCSCFromTriples(sparse.NewTriples(10, 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	mult, multT := matchingEngines(a)
	rowMate, colMate := MaximalMatching(mult, multT, 10, 10)
	for i := range rowMate {
		if rowMate[i] != -1 || colMate[i] != -1 {
			t.Fatal("empty graph produced matches")
		}
	}
}

func TestValidateMatchingCatchesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := bipartite(t, rng, 30, 30, 90)
	mult, multT := matchingEngines(a)
	rowMate, colMate := MaximalMatching(mult, multT, 30, 30)
	if msg := ValidateMatching(a, rowMate, colMate); msg != "" {
		t.Fatal(msg)
	}
	// Break mutuality.
	for j, i := range colMate {
		if i >= 0 {
			colMate[j] = -1
			if msg := ValidateMatching(a, rowMate, colMate); msg == "" {
				t.Error("validator missed broken mutuality")
			}
			colMate[j] = i
			break
		}
	}
	// Claim a non-edge.
	bad := append([]sparse.Index(nil), colMate...)
	for j := range bad {
		if bad[j] < 0 {
			// Find some row that is NOT adjacent to column j.
			adj := map[sparse.Index]bool{}
			rows, _ := a.Col(sparse.Index(j))
			for _, i := range rows {
				adj[i] = true
			}
			for i := sparse.Index(0); i < 30; i++ {
				if !adj[i] {
					bad[j] = i
					break
				}
			}
			if bad[j] >= 0 {
				if msg := ValidateMatching(a, rowMate, bad); msg == "" {
					t.Error("validator missed a non-edge match")
				}
			}
			break
		}
	}
}
