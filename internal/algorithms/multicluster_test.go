package algorithms

import (
	"math"
	"testing"

	"spmspv/internal/core"
	"spmspv/internal/engine"
	"spmspv/internal/graphgen"
	"spmspv/internal/hybrid"
)

// TestMultiClusterMatchesACLPerSeed pins the batched multi-seed
// clustering against running ACL once per seed: identical PPR mass,
// clusters, conductance and round counts, since the per-seed
// iterations are independent.
func TestMultiClusterMatchesACLPerSeed(t *testing.T) {
	a := graphgen.RMAT(graphgen.DefaultRMAT(9), 17)
	mult := core.NewMultiplier(a, core.Options{Threads: 2, SortOutput: true})
	degrees := Degrees(a)
	seeds := SpreadSources(a.NumCols, 1, 5)
	opt := ACLOptions{Epsilon: 1e-4}

	batched := MultiCluster(mult, degrees, seeds, opt)
	if len(batched) != len(seeds) {
		t.Fatalf("got %d results for %d seeds", len(batched), len(seeds))
	}
	for s, seed := range seeds {
		// A fresh engine per reference run keeps counters independent;
		// results must not depend on engine state anyway.
		want := ACL(core.NewMultiplier(a, core.Options{Threads: 1, SortOutput: true}), degrees, seed, opt)
		got := batched[s]
		if got.Rounds != want.Rounds {
			t.Fatalf("seed %d: rounds %d != %d", seed, got.Rounds, want.Rounds)
		}
		if len(got.ActiveCounts) != len(want.ActiveCounts) {
			t.Fatalf("seed %d: active counts %v != %v", seed, got.ActiveCounts, want.ActiveCounts)
		}
		for r := range want.ActiveCounts {
			if got.ActiveCounts[r] != want.ActiveCounts[r] {
				t.Fatalf("seed %d round %d: active %d != %d",
					seed, r, got.ActiveCounts[r], want.ActiveCounts[r])
			}
		}
		if len(got.PPR) != len(want.PPR) {
			t.Fatalf("seed %d: PPR support %d != %d", seed, len(got.PPR), len(want.PPR))
		}
		for v, mass := range want.PPR {
			if math.Abs(got.PPR[v]-mass) > 1e-9 {
				t.Fatalf("seed %d: PPR[%d] = %g, want %g", seed, v, got.PPR[v], mass)
			}
		}
		if math.Abs(got.Conductance-want.Conductance) > 1e-12 {
			t.Fatalf("seed %d: conductance %g != %g", seed, got.Conductance, want.Conductance)
		}
		if len(got.Cluster) != len(want.Cluster) {
			t.Fatalf("seed %d: cluster size %d != %d", seed, len(got.Cluster), len(want.Cluster))
		}
	}
}

// TestMultiClusterThroughRegistryBatch drives MultiCluster through a
// registry-built engine's native batch path (bucket shares one
// Estimate pass) and checks the seeds' PPR mass invariant
// ‖p‖+‖r‖=1, which after convergence means ‖p‖ ≈ 1 up to the pushed-
// residual tail.
func TestMultiClusterThroughRegistryBatch(t *testing.T) {
	a := graphgen.RMAT(graphgen.DefaultRMAT(9), 23)
	eng, err := engine.New(a, engine.Bucket, engine.Options{Threads: 2, SortOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	degrees := Degrees(a)
	seeds := SpreadSources(a.NumCols, 0, 4)
	results := MultiCluster(eng, degrees, seeds, ACLOptions{Epsilon: 1e-5})
	for s, res := range results {
		if res.Rounds == 0 {
			t.Fatalf("seed %d never pushed", seeds[s])
		}
		var mass float64
		for _, m := range res.PPR {
			mass += m
		}
		if mass <= 0 || mass > 1+1e-9 {
			t.Fatalf("seed %d: PPR mass %g outside (0,1]", seeds[s], mass)
		}
	}
}

// TestMultiClusterEveryEngine runs the batched push rounds and the
// sweep cuts on every engine, including the bitmap-reading GraphMat and
// a Hybrid pinned to its matrix-driven side, and pins each against the
// bucket engine. Both loops rebuild their input vectors in place, so an
// engine that read a stale input bitmap would push from vertices
// drained in earlier rounds (breaking ‖p‖+‖r‖=1) and probe earlier
// sweep vertices' neighborhoods (skewing every cut).
func TestMultiClusterEveryEngine(t *testing.T) {
	a := symmetrize(t, graphgen.RMAT(graphgen.DefaultRMAT(9), 29))
	degrees := Degrees(a)
	seeds := SpreadSources(a.NumCols, 3, 4)
	opt := ACLOptions{Epsilon: 1e-4}
	engines := allEngines(a, 2)
	engines["hybrid-matrix"] = hybrid.NewWithThreshold(a, engine.Options{Threads: 2}, 0)
	want := MultiCluster(engines["bucket"], degrees, seeds, opt)
	for name, eng := range engines {
		got := MultiCluster(eng, degrees, seeds, opt)
		for s, seed := range seeds {
			w, g := want[s], got[s]
			if g.Rounds != w.Rounds {
				t.Fatalf("%s seed %d: rounds %d, bucket %d", name, seed, g.Rounds, w.Rounds)
			}
			if len(g.PPR) != len(w.PPR) {
				t.Fatalf("%s seed %d: PPR support %d, bucket %d", name, seed, len(g.PPR), len(w.PPR))
			}
			for v, mass := range w.PPR {
				if math.Abs(g.PPR[v]-mass) > 1e-9 {
					t.Fatalf("%s seed %d: PPR[%d] = %g, bucket %g", name, seed, v, g.PPR[v], mass)
				}
			}
			if math.Abs(g.Conductance-w.Conductance) > 1e-9 || len(g.Cluster) != len(w.Cluster) {
				t.Fatalf("%s seed %d: cluster of %d at conductance %g, bucket %d at %g",
					name, seed, len(g.Cluster), g.Conductance, len(w.Cluster), w.Conductance)
			}
		}
	}
}

// TestMultiClusterOutOfRangeSeed matches ACL's empty-result behavior.
func TestMultiClusterOutOfRangeSeed(t *testing.T) {
	a := graphgen.Grid2D(8, 8)
	mult := core.NewMultiplier(a, core.Options{Threads: 1})
	degrees := Degrees(a)
	results := MultiCluster(mult, degrees, []int32{-1, 5, 1 << 20}, ACLOptions{})
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, s := range []int{0, 2} {
		if len(results[s].PPR) != 0 || !math.IsInf(results[s].Conductance, 1) {
			t.Fatalf("out-of-range seed %d produced a non-empty result", s)
		}
	}
	if len(results[1].PPR) == 0 {
		t.Fatal("valid seed produced no PPR mass")
	}
}
