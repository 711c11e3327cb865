package algorithms

import (
	"math"

	"spmspv/internal/engine"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// MultiCluster runs the ACL local-clustering push algorithm from k
// seed vertices in lockstep, expanding every live seed's push frontier
// of a round through ONE batched SpMSpV call (the engine's
// MultiplyBatch — its native batch path when it has one, a Multiply
// loop otherwise). The per-seed iterations are independent, so the
// results are identical to running ACL once per seed; the batch
// amortizes the engine's per-call setup across the seeds, which
// dominates exactly in the small-frontier push rounds local clustering
// spends its time in.
// Seeds whose residuals all fall under the push threshold drop out of
// the batch as they converge.
//
// Results are returned in seed order. Out-of-range seeds yield the
// same empty result ACL produces for them.
func MultiCluster(mult Multiplier, degrees []int64, seeds []sparse.Index, opt ACLOptions) []*ACLResult {
	opt = opt.withDefaults()
	n := sparse.Index(len(degrees))
	results := make([]*ACLResult, len(seeds))
	states := make([]*aclState, 0, len(seeds))
	for s, seed := range seeds {
		results[s] = &ACLResult{PPR: map[sparse.Index]float64{}, Conductance: math.Inf(1)}
		if seed < 0 || seed >= n {
			continue
		}
		states = append(states, &aclState{
			p:   map[sparse.Index]float64{},
			r:   map[sparse.Index]float64{seed: 1},
			res: results[s],
		})
	}

	// live maps batch slot → state; converged seeds are compacted away.
	// The push rounds run through one compiled list-output batch plan:
	// each slot's gather rebuilds its input vector in place, so the
	// wrapping frontier drops the bitmap a bitmap-reading engine built
	// from the last round's list (SetList, while that list is intact)
	// before the rebuild, and is re-pointed after it.
	live := append([]*aclState(nil), states...)
	xs := make([]*sparse.SpVec, len(live))
	xfs := make([]*sparse.Frontier, len(live))
	yfs := make([]*sparse.Frontier, len(live))
	for q := range live {
		xs[q] = sparse.NewSpVec(n, 16)
		xfs[q] = sparse.NewFrontier(xs[q])
		yfs[q] = sparse.NewOutputFrontier(n)
	}
	d := engine.Desc{Output: engine.OutputList}
	plan := engine.CompilePlan(mult, d.Shape())

	for round := 0; round < opt.MaxIter && len(live) > 0; round++ {
		// Gather every live seed's active vertices, dropping seeds with
		// nothing to push.
		w := 0
		for q, st := range live {
			xfs[q].SetList(xs[q])
			xs[q].Reset(n)
			if st.gather(xs[q], degrees, opt) {
				live[w], xs[w] = st, xs[q]
				w++
			}
		}
		live, xs = live[:w], xs[:w]
		if len(live) == 0 {
			break
		}
		for q := range xs {
			xfs[q].SetList(xs[q])
		}
		// One batched SpMSpV spreads every seed's pushes at once.
		plan.MultBatch(xfs[:w], yfs[:w], semiring.Arithmetic, d)
		for q, st := range live {
			st.absorb(yfs[q].List())
		}
	}

	// Sweep cuts per seed (sequential: each probes single columns).
	var totalVol int64
	for _, deg := range degrees {
		totalVol += deg
	}
	x := sparse.NewSpVec(n, 1)
	xf := sparse.NewFrontier(x)
	yf := sparse.NewOutputFrontier(n)
	for _, st := range states {
		st.res.PPR = st.p
		sweepCut(plan, degrees, totalVol, st.p, st.res, x, xf, yf)
	}
	return results
}
