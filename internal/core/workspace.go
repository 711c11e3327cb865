package core

import (
	"spmspv/internal/par"
	"spmspv/internal/perf"
	"spmspv/internal/sparse"
)

// Workspace holds every buffer the SpMSpV-bucket algorithm needs, so
// that repeated multiplications — the common case in iterative graph
// algorithms like BFS — allocate nothing ("we allocate enough memory for
// all buckets and for the SPA in advance and pass them to the
// SpMSpV-bucket algorithm", paper §III-A).
//
// A Workspace may be reused across calls with different matrices,
// vectors, batch sizes, thread counts and options; every buffer grows
// on demand and never shrinks. It must not be shared by concurrent
// Multiply calls.
//
// Buckets are indexed over the whole batch: a batch of k frontiers
// has NB = k·nb buckets, bucket q·nb + b holding frontier q's entries
// for row range b (a single multiply is k = 1).
type Workspace struct {
	// Per-(chunk,bucket) write cursors: boffset[c·NB+bq] is where
	// Step-1 chunk c writes its next entry for bucket bq (Algorithm 2's
	// Boffset after the prefix-sum pass). Chunks over-decompose the
	// input split ~8 per worker so the executor can steal them; at
	// t = 1 there is exactly one chunk.
	boffset []int64
	// bucketStart[bq] is the first entry slot of bucket bq; length NB+1.
	bucketStart []int64
	// entries is the bucket storage: bucket bq occupies
	// entries[bucketStart[bq]:bucketStart[bq+1]]. A single call needs at
	// most nnz(A) (paper §III-A), reached only when x selects every
	// column. Once a bucket is merged its entries are dead, and a batch
	// parks the bucket's unique values in their Val fields for Step 3.
	entries []sparse.Entry
	// uind stores each bucket's unique indices in the bucket's own slot
	// range (unique count ≤ entry count, so the same offsets fit).
	uind []sparse.Index
	// uindCount[bq] / uindOffset[bq]: per-bucket unique counts and their
	// exclusive prefix over the batch, frontier-major (the Step-3
	// offsets of Algorithm 1, line 20).
	uindCount  []int64
	uindOffset []int64

	// SPA: values plus epoch tags for O(1) partial initialization. Slot
	// i is live iff spaTag[i] is the epoch of the frontier being merged;
	// epoch is the last one handed out.
	spaVal []float64
	spaTag []uint32
	epoch  uint32

	// xcum holds the cumulative column weights of the call's inputs:
	// their total is the call's flops, which set its thread count, and
	// the nonzero-balanced split partitions by them. ranges holds the
	// resulting per-chunk x ranges.
	xcum   []int64
	ranges [][2]int

	// batchOff (length k+1) holds the frontier boundaries of the
	// batch's inputs in their concatenation, which Step 1 splits over.
	batchOff []int64

	// xs, ys, masks and outBits are the batch of the call in progress,
	// nil between calls; oneX, oneY, oneMask and oneBits are the
	// one-slot arrays through which a single multiply runs as a batch
	// of one.
	xs, ys           []*sparse.SpVec
	masks, outBits   []*sparse.BitVec
	oneX, oneY       [1]*sparse.SpVec
	oneMask, oneBits [1]*sparse.BitVec

	// staging is the optional per-worker Step-1 staging slab
	// (StagingEntries × nb entries each) with fill counts.
	staging      []sparse.Entry
	stagingCount []int32

	// scratch is per-worker radix-sort scratch for SortOutput.
	scratch [][]sparse.Index

	// sync collects per-worker dynamic-scheduling events before they are
	// merged into Counters.
	sync []int64

	// sched accumulates the executor's per-slot scheduling stats (chunk
	// claims, steals, join-barrier idle time) across the call's parallel
	// regions; foldSched merges them into Counters before retirement.
	sched par.JobStats

	// Counters accumulates per-worker work counters across calls; reset
	// with ResetCounters. Steps holds the per-phase wall-clock times of
	// the most recent call (Fig. 6's breakdown).
	Counters []perf.Counters
	Steps    perf.StepTimes
}

// NewWorkspace returns an empty workspace; buffers are allocated on
// first use. Providing m and nnz capacity hints up front avoids growth
// reallocations during the first call.
func NewWorkspace(m sparse.Index, nnzCap int64) *Workspace {
	ws := &Workspace{}
	if m > 0 {
		ws.spaVal = make([]float64, m)
		ws.spaTag = make([]uint32, m)
	}
	if nnzCap > 0 {
		ws.entries = make([]sparse.Entry, nnzCap)
		ws.uind = make([]sparse.Index, nnzCap)
	}
	return ws
}

// ResetCounters zeroes the accumulated per-worker counters.
func (ws *Workspace) ResetCounters() {
	for i := range ws.Counters {
		ws.Counters[i].Reset()
	}
}

// TotalCounters aggregates the per-worker counters.
func (ws *Workspace) TotalCounters() perf.Counters {
	return perf.MergeAll(ws.Counters)
}

// ensure grows the workspace for an m-row matrix, t workers, nb buckets
// (over the whole batch) and nc Step-1 chunks.
func (ws *Workspace) ensure(m sparse.Index, t, nb, nc int) {
	if len(ws.spaVal) < int(m) {
		ws.spaVal = make([]float64, m)
		ws.spaTag = make([]uint32, m)
		ws.epoch = 0
	}
	if len(ws.boffset) < nc*nb {
		ws.boffset = make([]int64, nc*nb)
	}
	if len(ws.bucketStart) < nb+1 {
		ws.bucketStart = make([]int64, nb+1)
		ws.uindCount = make([]int64, nb)
		ws.uindOffset = make([]int64, nb+1)
	}
	if len(ws.Counters) < t {
		old := ws.Counters
		ws.Counters = make([]perf.Counters, t)
		copy(ws.Counters, old)
	}
	if len(ws.sync) < t {
		ws.sync = make([]int64, t)
	}
	ws.sched.Ensure(t)
	if len(ws.scratch) < t {
		old := ws.scratch
		ws.scratch = make([][]sparse.Index, t)
		copy(ws.scratch, old)
	}
}

// foldSched merges the executor's accumulated scheduling stats into the
// per-worker counters and clears them for the next call.
func (ws *Workspace) foldSched(t int) {
	for w := 0; w < t && w < len(ws.sched.Claims); w++ {
		ws.Counters[w].ChunkClaims += ws.sched.Claims[w]
		ws.Counters[w].Steals += ws.sched.Steals[w]
		ws.Counters[w].IdleNs += ws.sched.IdleNs[w]
	}
	ws.sched.Reset()
}

// stepChunks returns the Step-1 over-decomposition for a call running
// on t threads (its requested count after the grain and nnz(x) clamps,
// see callThreads): ~chunksPerWorker chunks per worker so the executor
// can steal them, clamped to the f splittable input nonzeros, and
// exactly one chunk when t == 1 — every call below the grain — so the
// serial path carries no scheduling machinery at all.
func stepChunks(t, f int) int {
	if t <= 1 {
		return 1
	}
	nc := t * chunksPerWorker
	if nc > f {
		nc = f
	}
	return nc
}

// chunksPerWorker is the Step-1 over-decomposition factor — the paper
// over-decomposes into buckets at 4-8 per thread for the same reason:
// enough pieces that stealing can rebalance a skewed split, few enough
// that per-chunk cursor rows stay cheap.
const chunksPerWorker = 8

// ensureEntries grows the bucket and uind storage to hold total entries.
func (ws *Workspace) ensureEntries(total int64) {
	if int64(len(ws.entries)) < total {
		ws.entries = make([]sparse.Entry, total)
		ws.uind = make([]sparse.Index, total)
	}
}

// ensureStaging grows the staging slab for t workers × nb buckets × cap
// entries each.
func (ws *Workspace) ensureStaging(t, nb, capEntries int) {
	need := t * nb * capEntries
	if len(ws.staging) < need {
		ws.staging = make([]sparse.Entry, need)
	}
	if len(ws.stagingCount) < t*nb {
		ws.stagingCount = make([]int32, t*nb)
	}
}

// epochBlock reserves k consecutive SPA epochs (one per frontier of a
// batch) and returns the first, wiping the tags on 32-bit wraparound
// (amortized O(1) per call).
func (ws *Workspace) epochBlock(k uint32) uint32 {
	if ws.epoch > ^uint32(0)-k {
		for i := range ws.spaTag {
			ws.spaTag[i] = 0
		}
		ws.epoch = 0
	}
	base := ws.epoch + 1
	ws.epoch += k
	return base
}
