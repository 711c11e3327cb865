// Package core implements SpMSpV-bucket, the work-efficient parallel
// sparse matrix–sparse vector multiplication algorithm of Azad & Buluç
// (IPDPS 2017) — the primary contribution of the paper this repository
// reproduces.
//
// The algorithm computes y ← A·x over a semiring in three steps plus a
// preprocessing pass:
//
//	Estimate (Algorithm 2): each thread counts how many scaled matrix
//	  entries it will write into each bucket, so that Step 1 can run
//	  without any synchronization.
//	Step 1 (bucketing): the columns A(:,j) with x(j) ≠ 0 are scaled by
//	  x(j) and scattered into nb buckets by row id (bucket ⌊i·nb/m⌋),
//	  each thread writing through private, precomputed cursors.
//	Step 2 (merge): each bucket — a disjoint row range — is merged
//	  independently with a partially-initialized sparse accumulator,
//	  recording the unique row indices it produced.
//	Step 3 (output): a prefix sum over per-bucket unique counts places
//	  every bucket's results at its final offset in y without locks.
//
// Total work is O(df) for an Erdős–Rényi G(n, d/n) matrix and an input
// with f nonzeros, matching the problem's lower bound; the parallel
// depth is O(df/t) for t ≤ f threads.
//
// Each call picks its own t before Step 1. The requested thread count
// (Options.Threads) is an upper bound: a call runs on one thread per
// grain of its flops, Σ nnz(A(:,j)) over x, and never on more threads
// than x has nonzeros. A call below the grain — every level of a
// high-diameter BFS — runs inline on the caller, with no fork-join.
// Sorted outputs, and every count perf.Counters.Work sums except
// SyncEvents, are the same at any t; an unsorted output lists its
// entries in the order of the t the call ran on.
package core

import "spmspv/internal/engine"

// Sched re-exports engine.Sched; the option set lives in
// internal/engine so that every registered algorithm shares one
// construction signature.
type Sched = engine.Sched

const (
	// SchedDynamic claims buckets via an atomic counter (the paper's
	// default, §III-A).
	SchedDynamic = engine.SchedDynamic
	// SchedStatic assigns contiguous bucket ranges up front.
	SchedStatic = engine.SchedStatic
	// SchedStealing runs Step 2 on the work-stealing executor with
	// entry-weighted initial shares.
	SchedStealing = engine.SchedStealing
)

// Options re-exports engine.Options, which documents each knob. The
// zero value asks for the paper's defaults.
type Options = engine.Options
