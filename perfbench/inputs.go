package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	spmspv "spmspv"
	"spmspv/internal/baselines"
	"spmspv/internal/graphgen"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// Index is the library's vertex/row index type.
type Index = spmspv.Index

// poolSeed draws every workload's input pools — BFS sources, captured
// frontiers, upload matrices — so that each run serves the same mix of
// work and runs differ only by noise. The run's --seed draws the
// request stream from the pool: which source or frontier each op uses,
// in what order, and when open-loop ops arrive.
const poolSeed = 1

// sizes are the input scales of one mode: the benchmark's own, or the
// tiny smoke scales.
type sizes struct {
	rmat, mesh, web, upload int
	// mixRate is the open-loop arrival rate of mult-mix-sharded.
	mixRate float64
	// uploadEvery is the period of the matrix write cycle.
	uploadEvery float64
}

func sizesFor(smoke bool) sizes {
	if smoke {
		return sizes{rmat: 9, mesh: 7, web: 9, upload: 6, mixRate: 800, uploadEvery: 0.25}
	}
	return sizes{rmat: 16, mesh: 13, web: 16, upload: 12, mixRate: 400, uploadEvery: 2}
}

// buildProblem generates a graphgen Table IV stand-in.
func buildProblem(name string, scale int) (*spmspv.Matrix, error) {
	p, ok := graphgen.FindProblem(name)
	if !ok {
		return nil, fmt.Errorf("unknown graphgen problem %q", name)
	}
	return p.Build(scale), nil
}

// bfsOracle is the sequential reference BFS of one source.
type bfsOracle struct {
	source  Index
	parents []Index
	levels  []int32
	depth   int32 // largest level reached
	reached int
}

// referenceBFS runs the masked-BFS contract level by level with the
// sequential baselines.Reference multiply over (min, select2nd): the
// frontier holds x(v) = v, each newly reached vertex takes its minimum
// frontier in-neighbour as parent, and visited vertices are dropped.
func referenceBFS(a *spmspv.Matrix, src Index) *bfsOracle {
	n := a.NumCols
	o := &bfsOracle{source: src, parents: make([]Index, n), levels: make([]int32, n)}
	for i := range o.parents {
		o.parents[i], o.levels[i] = -1, -1
	}
	o.parents[src], o.levels[src] = src, 0
	o.reached = 1
	x := spmspv.NewVector(n, 1)
	x.Append(src, float64(src))
	for level := int32(1); x.NNZ() > 0; level++ {
		y := baselines.Reference(a, x, semiring.MinSelect2nd)
		next := spmspv.NewVector(n, 0)
		for k, i := range y.Ind {
			if o.levels[i] >= 0 {
				continue
			}
			o.levels[i], o.parents[i] = level, Index(y.Val[k])
			next.Append(i, float64(i))
		}
		if next.NNZ() > 0 {
			o.depth = level
			o.reached += next.NNZ()
		}
		x = next
	}
	return o
}

// check compares a BFS result with the oracle, bit for bit.
func (o *bfsOracle) check(r *spmspv.BFSResult) error {
	if r == nil {
		return fmt.Errorf("source %d: no result", o.source)
	}
	if len(r.Parents) != len(o.parents) || len(r.Levels) != len(o.levels) {
		return fmt.Errorf("source %d: result has %d parents, want %d", o.source, len(r.Parents), len(o.parents))
	}
	for v := range o.parents {
		if r.Parents[v] != o.parents[v] || r.Levels[v] != o.levels[v] {
			return fmt.Errorf("source %d: vertex %d has parent %d level %d, oracle says %d level %d",
				o.source, v, r.Parents[v], r.Levels[v], o.parents[v], o.levels[v])
		}
	}
	return nil
}

// steps rebuilds the per-level multiplies a masked BFS performs, as
// replay steps: each level's frontier x (x(v) = v) under the mask of
// the vertices visited so far, wanting the oracle's next level (value
// = parent). The last step's product is empty.
func (o *bfsOracle) steps() []kernelStep {
	n := Index(len(o.levels))
	byLevel := make([][]Index, o.depth+2)
	for v, l := range o.levels {
		if l >= 0 {
			byLevel[l] = append(byLevel[l], Index(v))
		}
	}
	visited := spmspv.NewVector(n, o.reached)
	out := make([]kernelStep, 0, o.depth+1)
	for l := int32(0); l <= o.depth; l++ {
		x := spmspv.NewVector(n, len(byLevel[l]))
		for _, v := range byLevel[l] {
			x.Append(v, float64(v))
			visited.Append(v, float64(v))
		}
		x.Sorted = true
		mask := spmspv.NewBitVector(n)
		mask.SetFrom(visited)
		want := spmspv.NewVector(n, len(byLevel[l+1]))
		for _, v := range byLevel[l+1] {
			want.Append(v, float64(o.parents[v]))
		}
		want.Sorted = true
		out = append(out, kernelStep{x: x, mask: mask, sr: spmspv.MinSelect2nd, want: want})
	}
	return out
}

// pickSources draws k distinct sources from rng whose BFS reaches at
// least minFrac of the graph (0 accepts any vertex).
func pickSources(a *spmspv.Matrix, rng *rand.Rand, k int, minFrac float64) ([]Index, error) {
	n := int(a.NumCols)
	seen := map[Index]bool{}
	var out []Index
	for tries := 0; len(out) < k; tries++ {
		if tries > 50*k+1000 {
			return nil, fmt.Errorf("found only %d of %d sources reaching %.0f%% of the graph", len(out), k, 100*minFrac)
		}
		s := Index(rng.Intn(n))
		if seen[s] {
			continue
		}
		seen[s] = true
		if minFrac > 0 {
			levels, _, _ := sparse.BFSLevels(a, s)
			reached := 0
			for _, l := range levels {
				if l >= 0 {
					reached++
				}
			}
			if float64(reached) < minFrac*float64(n) {
				continue
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// sameVector reports whether got equals want bit for bit, after sorting
// got's entries by index when it carries them unsorted.
func sameVector(got, want *spmspv.Vector) error {
	if got == nil {
		return fmt.Errorf("no vector")
	}
	if got.N != want.N || got.NNZ() != want.NNZ() {
		return fmt.Errorf("vector has dim %d nnz %d, want dim %d nnz %d", got.N, got.NNZ(), want.N, want.NNZ())
	}
	g := got
	if !sort.SliceIsSorted(got.Ind, func(i, j int) bool { return got.Ind[i] < got.Ind[j] }) {
		g = got.Clone()
		g.Sort()
	}
	for k := range want.Ind {
		if g.Ind[k] != want.Ind[k] || math.Float64bits(g.Val[k]) != math.Float64bits(want.Val[k]) {
			return fmt.Errorf("entry %d is (%d, %v), want (%d, %v)", k, g.Ind[k], g.Val[k], want.Ind[k], want.Val[k])
		}
	}
	return nil
}

// sameBits reports whether a bitmap result holds exactly want's
// entries, bit for bit.
func sameBits(got *spmspv.BitVector, want *spmspv.Vector) error {
	if got == nil {
		return fmt.Errorf("no bitmap")
	}
	if got.N != want.N || got.Count() != want.NNZ() {
		return fmt.Errorf("bitmap has dim %d count %d, want dim %d nnz %d", got.N, got.Count(), want.N, want.NNZ())
	}
	for k, i := range want.Ind {
		v, ok := got.Get(i)
		if !ok || math.Float64bits(v) != math.Float64bits(want.Val[k]) {
			return fmt.Errorf("bitmap entry %d is (%v, %v), want %v", i, v, ok, want.Val[k])
		}
	}
	return nil
}

// maskedReference is the oracle of a complement-masked multiply.
func maskedReference(a *spmspv.Matrix, x *spmspv.Vector, sr spmspv.Semiring, mask *spmspv.BitVector) *spmspv.Vector {
	y := baselines.Reference(a, x, sr)
	out := spmspv.NewVector(y.N, y.NNZ())
	for k, i := range y.Ind {
		if !mask.Test(i) {
			out.Append(i, y.Val[k])
		}
	}
	out.Sorted = true
	return out
}
