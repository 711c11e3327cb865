// The race detector makes sync.Pool drop a random share of the objects
// put back, so allocation counts are only deterministic without it.

//go:build !race

package spmspv_test

import (
	"runtime/debug"
	"testing"

	spmspv "spmspv"
	"spmspv/internal/graphgen"
)

// TestMeshBFSAllocations gates the objects a whole BFS on the
// high-diameter mesh allocates (grid5-g3circuit 13 from vertex 0, 191
// levels of at most a few hundred flops each) at an explicit 2 threads,
// in process and as a stored BFSProgram invoke. Every level is below
// the bucket kernel's grain, so it runs inline and allocates no
// fork-join job; a kernel that forked each level would pay ~3400 more
// objects per BFS. The explicit thread count matters: AllocsPerRun
// sets GOMAXPROCS to 1, which a default thread count would follow.
// With GC on, a collection empties the sync.Pools between runs and the
// count drifts, so the test turns GC off. On a 1-CPU host the executor
// has no pool worker and every call runs inline anyway, so there the
// gate holds with or without the grain.
func TestMeshBFSAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p, _ := graphgen.FindProblem("grid5-g3circuit")
	a := p.Build(13)
	n := a.NumCols
	st := spmspv.NewStore(spmspv.WithThreads(2), spmspv.WithSortOutput(true))
	if err := st.Put("mesh", a); err != nil {
		t.Fatal(err)
	}
	mu, err := st.Load("mesh")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutProgram("bfs", spmspv.BFSProgram("mesh", int(n), nil)); err != nil {
		t.Fatal(err)
	}
	seed := spmspv.NewVector(n, 1)
	seed.Append(0, 0)
	inv := &spmspv.InvokeRequest{Args: map[string]*spmspv.Vector{"seed": seed}}
	want := spmspv.BFSMasked(mu, 0)

	lib := testing.AllocsPerRun(10, func() { spmspv.BFSMasked(mu, 0) })
	invoke := testing.AllocsPerRun(10, func() {
		resp, err := st.Invoke("bfs", inv)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spmspv.DecodeBFSProgramResponse(resp, n, 0, int(n))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.FrontierSizes) != len(want.FrontierSizes) {
			t.Fatalf("served BFS ran %d levels, in-process %d", len(got.FrontierSizes), len(want.FrontierSizes))
		}
	})
	t.Logf("allocs per BFS: BFSMasked %.0f, invoke %.0f", lib, invoke)
	if lib > 1200 {
		t.Errorf("BFSMasked allocates %.0f objects per BFS, want ≤ 1200", lib)
	}
	if invoke > 2650 {
		t.Errorf("stored BFSProgram invoke allocates %.0f objects per BFS, want ≤ 2650", invoke)
	}
}
