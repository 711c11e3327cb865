// Package perf provides deterministic work counters and per-step timers
// for SpMSpV algorithms.
//
// The paper's central claim is about work-efficiency: the total work
// performed by all threads should stay proportional to the number of
// required arithmetic operations as the thread count grows. Wall-clock
// time on a machine with few cores cannot demonstrate that, but the work
// quantities of Table I/II of the paper can be measured exactly. Every
// algorithm in this repository feeds one Counters value per worker, and
// the harness aggregates them to reproduce the paper's who-wins shapes
// deterministically.
package perf

import (
	"fmt"
	"time"
)

// Counters accumulates the work quantities of one or more SpMSpV
// invocations. Each worker owns a private Counters value (no sharing, no
// atomics); callers aggregate with Merge after the parallel section.
//
// The fields correspond directly to the cost terms in Tables I and II of
// the paper:
//
//   - XScanned: input-vector nonzeros examined, counting re-scans. The
//     row-split algorithms scan all of x once per thread, so this term
//     grows as O(t·f) — the paper's work-inefficiency.
//   - ColumnsProbed: matrix column lookups, including probes of columns
//     that turn out to be irrelevant. Matrix-driven algorithms probe all
//     nzc columns, producing the O(nzc) floor of GraphMat in Fig. 3.
//   - MatrixTouched: matrix nonzeros read (the df term).
//   - SPAInit: sparse-accumulator slots initialized. CombBLAS-SPA
//     initializes the entire SPA (O(m) total), the bucket algorithm only
//     the slots it will use (O(nnz(y))).
//   - BucketWrites: entries staged into buckets (bucket algorithm only).
//   - SPAUpdates: accumulations into a SPA slot.
//   - HeapOps: heap pushes+pops (CombBLAS-heap only).
//   - SortedElements: elements that passed through a sorting routine.
//   - OutputWritten: entries written to the output vector.
//   - SyncEvents: synchronization points (barriers, atomic fetch-adds
//     for dynamic scheduling).
type Counters struct {
	XScanned      int64
	ColumnsProbed int64
	MatrixTouched int64
	SPAInit       int64
	SPAUpdates    int64
	BucketWrites  int64
	HeapOps       int64
	SortedElems   int64
	OutputWritten int64
	SyncEvents    int64

	// DirectionSwitches counts hybrid-engine calls routed to the
	// matrix-driven side (paper §V's direction switch). A routing
	// statistic, not a work term: excluded from Work.
	DirectionSwitches int64
	// FrontierConversions counts list→bitmap frontier
	// materializations performed on behalf of the engine. The O(f)
	// scatter cost itself is charged to XScanned; this field tracks
	// how often the conversion could not be shared.
	FrontierConversions int64
	// OutputConversions counts the subset of FrontierConversions whose
	// frontier was produced by an engine output pass (Engine.Multiply) —
	// the conversions the output-representation layer exists to
	// eliminate. An engine that emits its output bitmap natively while
	// writing the list keeps this at zero for every consumer of that
	// output; a frontier pipeline (BFS feeding each level's output back
	// as the next input) reports 0 here on its dense phases.
	OutputConversions int64

	// Scheduling statistics from the work-stealing executor, excluded
	// from Work like the routing stats. ChunkClaims counts chunks a
	// worker popped from its own deque and Steals chunks it took from a
	// sibling's; ChunkClaims+Steals summed over workers equals the
	// number of chunks scheduled (deterministic), while the split
	// between them and IdleNs — nanoseconds spent waiting at join
	// barriers after the worker's last chunk — depend on runtime timing.
	ChunkClaims int64
	Steals      int64
	IdleNs      int64
}

// Merge adds o into c.
func (c *Counters) Merge(o *Counters) {
	c.XScanned += o.XScanned
	c.ColumnsProbed += o.ColumnsProbed
	c.MatrixTouched += o.MatrixTouched
	c.SPAInit += o.SPAInit
	c.SPAUpdates += o.SPAUpdates
	c.BucketWrites += o.BucketWrites
	c.HeapOps += o.HeapOps
	c.SortedElems += o.SortedElems
	c.OutputWritten += o.OutputWritten
	c.SyncEvents += o.SyncEvents
	c.DirectionSwitches += o.DirectionSwitches
	c.FrontierConversions += o.FrontierConversions
	c.OutputConversions += o.OutputConversions
	c.ChunkClaims += o.ChunkClaims
	c.Steals += o.Steals
	c.IdleNs += o.IdleNs
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// Work returns the total work proxy: the sum of all counted work
// quantities. For a work-efficient algorithm, Work stays O(df)
// independent of the number of threads. The routing statistics
// (DirectionSwitches, FrontierConversions, OutputConversions) are not
// work and are excluded.
func (c Counters) Work() int64 {
	return c.XScanned + c.ColumnsProbed + c.MatrixTouched + c.SPAInit +
		c.SPAUpdates + c.BucketWrites + c.HeapOps + c.SortedElems +
		c.OutputWritten + c.SyncEvents
}

// String formats the counters as a compact single-line summary.
func (c Counters) String() string {
	return fmt.Sprintf(
		"xscan=%d probes=%d mat=%d spainit=%d spaupd=%d bucket=%d heap=%d sort=%d out=%d sync=%d switch=%d conv=%d outconv=%d claims=%d steals=%d idlens=%d work=%d",
		c.XScanned, c.ColumnsProbed, c.MatrixTouched, c.SPAInit, c.SPAUpdates,
		c.BucketWrites, c.HeapOps, c.SortedElems, c.OutputWritten, c.SyncEvents,
		c.DirectionSwitches, c.FrontierConversions, c.OutputConversions,
		c.ChunkClaims, c.Steals, c.IdleNs, c.Work())
}

// MergeAll aggregates a slice of per-worker counters into one.
func MergeAll(per []Counters) Counters {
	var out Counters
	for i := range per {
		out.Merge(&per[i])
	}
	return out
}

// StepTimes records the wall-clock duration of each phase of the
// SpMSpV-bucket algorithm, reproducing the breakdown of Fig. 6.
type StepTimes struct {
	Estimate time.Duration // Alg. 2 preprocessing (ESTIMATE-BUCKETS)
	Bucket   time.Duration // Step 1: gather scaled columns into buckets
	Merge    time.Duration // Step 2: per-bucket SPA merge
	Output   time.Duration // Step 3: concatenate into y
	Sort     time.Duration // optional per-bucket uind sorting
}

// Total returns the sum of all step durations.
func (s StepTimes) Total() time.Duration {
	return s.Estimate + s.Bucket + s.Merge + s.Output + s.Sort
}

// Add accumulates o into s (for averaging over repeated runs).
func (s *StepTimes) Add(o StepTimes) {
	s.Estimate += o.Estimate
	s.Bucket += o.Bucket
	s.Merge += o.Merge
	s.Output += o.Output
	s.Sort += o.Sort
}

// Scale divides every step by n (average of n runs). n <= 0 is a no-op.
func (s *StepTimes) Scale(n int) {
	if n <= 0 {
		return
	}
	d := time.Duration(n)
	s.Estimate /= d
	s.Bucket /= d
	s.Merge /= d
	s.Output /= d
	s.Sort /= d
}

func (s StepTimes) String() string {
	return fmt.Sprintf("estimate=%v bucket=%v merge=%v output=%v sort=%v total=%v",
		s.Estimate, s.Bucket, s.Merge, s.Output, s.Sort, s.Total())
}

// Timer is a minimal helper for measuring phases without polluting call
// sites with time.Now bookkeeping.
type Timer struct{ start time.Time }

// Start begins (or restarts) the timer.
func (t *Timer) Start() { t.start = time.Now() }

// Lap returns the elapsed duration and restarts the timer.
func (t *Timer) Lap() time.Duration {
	now := time.Now()
	d := now.Sub(t.start)
	t.start = now
	return d
}
