package algorithms

import (
	"math"
	"math/rand"

	"spmspv/internal/engine"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// MaximalIndependentSet computes a maximal independent set with Luby's
// algorithm expressed in SpMSpV rounds, one of the paper's motivating
// applications (§I, ref [4]). Each round every remaining candidate
// draws a random priority; a candidate whose priority is strictly
// smaller than every remaining neighbor's joins the set, and winners
// plus their neighbors leave the candidate pool. The expected round
// count is O(log n).
//
// The graph must be undirected (symmetric adjacency) and simple: a
// self-looped vertex would appear in its own neighbor minimum and could
// never win a round, livelocking the algorithm. Strip diagonals with
// sparse.StripSelfLoops first (the public facade does this
// automatically).
func MaximalIndependentSet(mult Multiplier, n sparse.Index, seed int64) []bool {
	rng := rand.New(rand.NewSource(seed))
	inSet := make([]bool, n)
	candidate := make([]bool, n)
	for i := range candidate {
		candidate[i] = true
	}
	remaining := int(n)

	prio := make([]float64, n)
	minNbr := make([]float64, n)
	x := sparse.NewSpVec(n, int(n))
	winners := sparse.NewSpVec(n, 0)
	xf := sparse.NewFrontier(x)
	yf := sparse.NewOutputFrontier(n)
	d := engine.Desc{Output: engine.OutputList}

	for remaining > 0 {
		// Draw fresh priorities for the candidates; ties are broken by
		// vertex id through the strict comparison plus distinct values.
		x.Reset(n)
		for i := sparse.Index(0); i < n; i++ {
			if candidate[i] {
				prio[i] = rng.Float64()
				x.Append(i, prio[i])
			}
		}

		// y(i) = min priority among candidate neighbors of i.
		xf.SetList(x)
		engine.Mult(mult, xf, yf, semiring.MinSelect2nd, d)
		y := yf.List()
		for i := range minNbr {
			minNbr[i] = math.Inf(1)
		}
		for k, i := range y.Ind {
			minNbr[i] = y.Val[k]
		}

		// Winners: candidates beating every candidate neighbor.
		winners.Reset(n)
		for i := sparse.Index(0); i < n; i++ {
			if candidate[i] && prio[i] < minNbr[i] {
				inSet[i] = true
				candidate[i] = false
				remaining--
				winners.Append(i, 1)
			}
		}
		if winners.NNZ() == 0 {
			continue // extremely unlikely all-ties round; redraw
		}

		// Remove the winners' neighbors from the pool.
		xf.SetList(winners)
		engine.Mult(mult, xf, yf, semiring.BoolOrAnd, d)
		y = yf.List()
		for _, i := range y.Ind {
			if candidate[i] {
				candidate[i] = false
				remaining--
			}
		}
	}
	return inSet
}

// ValidateMIS checks independence (no two set members adjacent) and
// maximality (every non-member has a member neighbor) of a claimed MIS;
// it returns an empty string on success. Isolated vertices must be in
// the set.
func ValidateMIS(a *sparse.CSC, inSet []bool) string {
	n := a.NumCols
	for v := sparse.Index(0); v < n; v++ {
		rows, _ := a.Col(v)
		if inSet[v] {
			for _, u := range rows {
				if u != v && inSet[u] {
					return "two adjacent vertices in set"
				}
			}
			continue
		}
		hasMember := false
		for _, u := range rows {
			if u != v && inSet[u] {
				hasMember = true
				break
			}
		}
		if !hasMember {
			return "non-member with no member neighbor (not maximal)"
		}
	}
	return ""
}
