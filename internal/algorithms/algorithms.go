// Package algorithms implements the graph algorithms the paper cites as
// the consumers of SpMSpV (§I): breadth-first search, connected
// components, maximal independent set, data-driven PageRank, and
// single-source shortest paths. Each is written in the GraphBLAS style
// — a loop of SpMSpV calls over an appropriate semiring — and each is
// validated against a classical sequential implementation in the tests.
//
// All algorithms accept any SpMSpV engine through the Multiplier
// interface, so the benchmark harness can run the same BFS over
// SpMSpV-bucket, CombBLAS-SPA, CombBLAS-heap and GraphMat, exactly as
// the paper's Figs. 4 and 5 do.
package algorithms

import (
	"spmspv/internal/engine"
)

// Multiplier is the uniform engine contract of internal/engine: compute
// y ← ⟨A·x, mask⟩ over sr, where A was bound at construction time. All
// registered implementations (internal/core.Multiplier, the
// internal/baselines engines and internal/hybrid's engine) satisfy it,
// and all of them are safe for concurrent calls.
type Multiplier = engine.Engine
