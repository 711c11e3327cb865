package algorithms

import (
	"spmspv/internal/engine"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// MaximalMatching computes a maximal matching of a bipartite graph with
// SpMSpV rounds — the Karp–Sipser-flavored propose/accept scheme of the
// distributed bipartite matching work the paper cites as a motivating
// application (§I, ref [6]: "bipartite graph matching").
//
// The graph has nc column vertices and nr row vertices; A(i,j) ≠ 0 is
// an edge between column j and row i (mult must be bound to A, and
// multT to Aᵀ). Each round:
//
//  1. every unmatched column proposes to its unmatched row neighbors —
//     one SpMSpV over (min, select2nd) computes, for every row, the
//     minimum proposing column id;
//  2. rows accept their minimum proposer; acceptances are
//     symmetric-difference-free because a row accepts exactly one
//     column, and a column learns the minimum accepting row with one
//     SpMSpV over Aᵀ;
//  3. matched pairs leave the pool.
//
// The result maps every column to its matched row (or -1), and every
// row to its matched column (or -1). The matching is maximal: no edge
// joins two unmatched vertices on termination.
func MaximalMatching(mult, multT Multiplier, nr, nc sparse.Index) (rowMate, colMate []sparse.Index) {
	rowMate = make([]sparse.Index, nr)
	colMate = make([]sparse.Index, nc)
	for i := range rowMate {
		rowMate[i] = -1
	}
	for j := range colMate {
		colMate[j] = -1
	}

	x := sparse.NewSpVec(nc, int(nc))
	accept := sparse.NewSpVec(nr, 0)
	// Forward (A) and backward (Aᵀ) rounds each run through their own
	// compiled list-output plan.
	d := engine.Desc{Output: engine.OutputList}
	plan := engine.CompilePlan(mult, d.Shape())
	planT := engine.CompilePlan(multT, d.Shape())
	xf := sparse.NewFrontier(x)
	yf := sparse.NewOutputFrontier(nr)
	acceptf := sparse.NewFrontier(accept)
	backf := sparse.NewOutputFrontier(nc)

	// Candidate columns that may still find a partner.
	active := make([]sparse.Index, 0, nc)
	for j := sparse.Index(0); j < nc; j++ {
		active = append(active, j)
	}

	for len(active) > 0 {
		// Step 1: unmatched columns propose; y(i) = min proposing
		// column for every unmatched row i. Both inputs are rebuilt in
		// place each round, so each frontier first drops the bitmap a
		// bitmap-reading engine built from the last round's list.
		xf.SetList(x)
		x.Reset(nc)
		for _, j := range active {
			x.Append(j, float64(j))
		}
		plan.Mult(xf, yf, semiring.MinSelect2nd, d)
		y := yf.List()

		// Step 2: unmatched rows accept their minimum proposer.
		acceptf.SetList(accept)
		accept.Reset(nr)
		progress := false
		for k, i := range y.Ind {
			if rowMate[i] >= 0 {
				continue
			}
			j := sparse.Index(y.Val[k])
			if colMate[j] >= 0 {
				// Column already taken by an earlier row this round?
				// Acceptance conflicts are resolved by the backward
				// pass; skip here only if matched in a prior round.
				continue
			}
			accept.Append(i, float64(i))
		}
		// Backward SpMSpV: for every proposing column, the minimum
		// accepting row among its neighbors; matching (j, back(j)) is
		// conflict-free because each row accepts at most one column and
		// each column takes at most one row.
		planT.Mult(acceptf, backf, semiring.MinSelect2nd, d)
		back := backf.List()
		for k, j := range back.Ind {
			if colMate[j] >= 0 {
				continue
			}
			i := sparse.Index(back.Val[k])
			if rowMate[i] >= 0 {
				continue
			}
			// Only bind the pair if the row's chosen column is j, to
			// keep the acceptance single-valued.
			if chosen, ok := lookupMin(y, i); ok && chosen == j {
				rowMate[i] = j
				colMate[j] = i
				progress = true
			}
		}

		// Shrink the pool: drop matched columns and columns with no
		// unmatched neighbors left (detected by absence of progress).
		next := active[:0]
		for _, j := range active {
			if colMate[j] < 0 {
				next = append(next, j)
			}
		}
		active = next
		if !progress {
			// Remaining columns have no unmatched neighbors: maximal.
			break
		}
	}
	return rowMate, colMate
}

// lookupMin finds row i's value in the (sorted or unsorted) proposal
// vector y.
func lookupMin(y *sparse.SpVec, i sparse.Index) (sparse.Index, bool) {
	if y.Sorted {
		lo, hi := 0, len(y.Ind)
		for lo < hi {
			mid := (lo + hi) / 2
			if y.Ind[mid] < i {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(y.Ind) && y.Ind[lo] == i {
			return sparse.Index(y.Val[lo]), true
		}
		return 0, false
	}
	for k, ind := range y.Ind {
		if ind == i {
			return sparse.Index(y.Val[k]), true
		}
	}
	return 0, false
}

// ValidateMatching checks that the claimed matching is consistent
// (mutual, over existing edges) and maximal (no edge joins two
// unmatched vertices); it returns an empty string on success.
func ValidateMatching(a *sparse.CSC, rowMate, colMate []sparse.Index) string {
	for j := sparse.Index(0); j < a.NumCols; j++ {
		i := colMate[j]
		if i < 0 {
			continue
		}
		if rowMate[i] != j {
			return "matching not mutual"
		}
		if a.At(i, j) == 0 {
			return "matched pair is not an edge"
		}
	}
	for i := sparse.Index(0); i < a.NumRows; i++ {
		j := rowMate[i]
		if j >= 0 && colMate[j] != i {
			return "matching not mutual (row side)"
		}
	}
	// Maximality: every edge must have a matched endpoint.
	for j := sparse.Index(0); j < a.NumCols; j++ {
		if colMate[j] >= 0 {
			continue
		}
		rows, _ := a.Col(j)
		for _, i := range rows {
			if rowMate[i] < 0 {
				return "unmatched edge remains (not maximal)"
			}
		}
	}
	return ""
}
