package algorithms

import (
	"math"
	"sort"

	"spmspv/internal/engine"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// ACLOptions configures the Andersen–Chung–Lang local clustering
// algorithm (the paper's §I, ref [9]: "local graph clustering methods
// … essentially perform one SpMSpV at each step").
type ACLOptions struct {
	// Alpha is the teleport probability of the personalized PageRank
	// (default 0.15).
	Alpha float64
	// Epsilon is the push threshold: vertices whose residual-per-degree
	// exceeds it remain active (default 1e-6).
	Epsilon float64
	// MaxIter bounds the push rounds (default 1000).
	MaxIter int
}

func (o ACLOptions) withDefaults() ACLOptions {
	if o.Alpha == 0 {
		o.Alpha = 0.15
	}
	if o.Epsilon == 0 {
		o.Epsilon = 1e-6
	}
	if o.MaxIter == 0 {
		o.MaxIter = 1000
	}
	return o
}

// ACLResult reports the approximate personalized PageRank vector, the
// sweep-cut cluster, and iteration statistics.
type ACLResult struct {
	// PPR holds the approximate personalized PageRank mass per vertex
	// (sparse; only touched vertices appear).
	PPR map[sparse.Index]float64
	// Cluster is the best sweep-cut prefix by conductance.
	Cluster []sparse.Index
	// Conductance of the returned cluster (lower is better).
	Conductance float64
	// ActiveCounts is nnz of the frontier per push round — the shrinking
	// working set served by SpMSpV.
	ActiveCounts []int
	Rounds       int
}

// ACL computes an approximate personalized PageRank from the seed
// vertex with batched push iterations, then extracts a low-conductance
// cluster with a sweep cut. degrees must hold the (out-)degree of every
// vertex of the undirected graph; mult must be bound to the adjacency
// matrix of the same graph.
//
// Each round pushes all active vertices at once: the frontier x holds
// rᵤ/deg(u) for every active u, one SpMSpV spreads it to the neighbors
// ("essentially perform one SpMSpV at each step"), and the residuals
// and PPR estimates are updated from y. The invariant ‖p‖ + ‖r‖ = 1 is
// preserved up to floating-point error.
//
// ACL is the single-seed form of MultiCluster; the per-seed push
// rounds and the sweep cut are shared.
func ACL(mult Multiplier, degrees []int64, seed sparse.Index, opt ACLOptions) *ACLResult {
	return MultiCluster(mult, degrees, []sparse.Index{seed}, opt)[0]
}

// aclState is one seed's push-iteration state inside MultiCluster.
type aclState struct {
	p, r map[sparse.Index]float64
	res  *ACLResult
	// pushed holds the vertices drained this round, reused across
	// rounds.
	pushed []sparse.Index
}

// gather collects the seed's active vertices (residual over threshold)
// into x and commits the α·r share of each pushed vertex to the PPR
// estimate. It reports whether the seed pushed anything this round.
func (st *aclState) gather(x *sparse.SpVec, degrees []int64, opt ACLOptions) bool {
	st.pushed = st.pushed[:0]
	for u, ru := range st.r {
		if degrees[u] == 0 {
			// Dangling vertex: all residual becomes PPR mass.
			st.p[u] += ru
			delete(st.r, u)
			continue
		}
		if ru > opt.Epsilon*float64(degrees[u]) {
			// Push: keep α·r as PPR, spread (1-α)·r/deg to the
			// neighbors, keep nothing in the residual.
			x.Append(u, (1-opt.Alpha)*ru/float64(degrees[u]))
			st.pushed = append(st.pushed, u)
		}
	}
	if x.NNZ() == 0 {
		return false
	}
	st.res.Rounds++
	st.res.ActiveCounts = append(st.res.ActiveCounts, x.NNZ())
	for _, u := range st.pushed {
		st.p[u] += opt.Alpha * st.r[u]
		delete(st.r, u)
	}
	return true
}

// absorb folds one round's product back into the seed's residuals.
func (st *aclState) absorb(y *sparse.SpVec) {
	for k, v := range y.Ind {
		st.r[v] += y.Val[k]
	}
}

// sweepCut orders the touched vertices by p(v)/deg(v) and stores the
// lowest-conductance prefix into res. The per-prefix cut update probes
// each added vertex's neighborhood with one singleton SpMSpV through
// the caller's compiled list-output plan.
func sweepCut(plan *engine.Plan, degrees []int64, totalVol int64, p map[sparse.Index]float64, res *ACLResult, x *sparse.SpVec, xf, yf *sparse.Frontier) {
	n := sparse.Index(len(degrees))
	type pv struct {
		v     sparse.Index
		score float64
	}
	order := make([]pv, 0, len(p))
	for v, mass := range p {
		if degrees[v] > 0 {
			order = append(order, pv{v, mass / float64(degrees[v])})
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].score > order[j].score })
	res.Conductance = math.Inf(1)
	if len(order) == 0 {
		return
	}

	inSet := map[sparse.Index]bool{}
	var vol, cut int64
	best := 0
	bestCond := math.Inf(1)
	for k, e := range order {
		// Adding e.v: volume grows by deg; cut changes by (external −
		// internal) edges of v, evaluated with one sparse column probe
		// via SpMSpV on a singleton vector. The previous probe's bitmap
		// is dropped (SetList) before x is rebuilt in place.
		xf.SetList(x)
		x.Reset(n)
		x.Append(e.v, 1)
		plan.Mult(xf, yf, semiring.Arithmetic, engine.Desc{Output: engine.OutputList})
		var internal int64
		for _, u := range yf.List().Ind {
			if inSet[u] {
				internal++
			}
		}
		deg := degrees[e.v]
		vol += deg
		cut += deg - 2*internal
		inSet[e.v] = true
		denom := vol
		if totalVol-vol < denom {
			denom = totalVol - vol
		}
		if denom <= 0 {
			continue
		}
		cond := float64(cut) / float64(denom)
		if cond < bestCond {
			bestCond = cond
			best = k + 1
		}
	}
	res.Conductance = bestCond
	res.Cluster = make([]sparse.Index, best)
	for k := 0; k < best; k++ {
		res.Cluster[k] = order[k].v
	}
}

// Degrees returns the column degrees of an adjacency matrix as int64s,
// the shape ACL expects.
func Degrees(a *sparse.CSC) []int64 {
	out := make([]int64, a.NumCols)
	for j := sparse.Index(0); j < a.NumCols; j++ {
		out[j] = a.ColLen(j)
	}
	return out
}
