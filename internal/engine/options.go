package engine

import "spmspv/internal/par"

// Sched selects how the bucket engine's Step 2 distributes buckets over
// threads.
type Sched int

const (
	// SchedDynamic claims buckets via an atomic counter (OpenMP
	// "schedule(dynamic)"), the paper's choice for load balance on
	// skewed matrices (§III-A).
	SchedDynamic Sched = iota
	// SchedStatic assigns contiguous bucket ranges up front. Exposed for
	// the scheduling ablation benchmark.
	SchedStatic
	// SchedStealing gives each worker a contiguous bucket share weighted
	// by entry count and lets idle workers steal from stragglers' deques
	// — the executor-native schedule (see internal/par's Executor).
	SchedStealing
)

// Options configures engine construction. Threads applies to every
// algorithm; the remaining fields tune the SpMSpV-bucket engine and are
// ignored by the baselines (whose published designs they do not
// appear in). The zero value asks for the paper's defaults: GOMAXPROCS
// threads, 4 buckets per thread, epoch-tag merging, dynamic bucket
// scheduling, and the nonzero-balanced Step-1 split.
type Options struct {
	// Threads is the most worker threads t a call runs on; ≤ 0 means
	// GOMAXPROCS. Following the paper's analysis the effective t never
	// exceeds nnz(x), and the bucket engine also holds it to
	// ⌈flops/grain⌉, where flops = Σ nnz(A(:,j)) over x: a call too
	// small to share runs inline on one thread (see internal/core).
	// The grain is the measured crossover between one and two
	// threads; that each further thread needs another grain is
	// unverified.
	Threads int

	// BucketsPerThread sets nb = BucketsPerThread·t. The paper uses 4
	// ("we use 4t buckets when using t threads", §III-A); 0 means 4.
	BucketsPerThread int

	// SortOutput produces y with strictly increasing indices by radix
	// sorting each bucket's unique indices. Because buckets partition
	// the row space in order, per-bucket sorting yields a globally
	// sorted vector (paper Fig. 1, "sorted uind").
	SortOutput bool

	// StagingEntries, when positive, routes Step-1 writes through a
	// small per-(thread,bucket) staging buffer that is flushed to the
	// bucket when full — the paper's cache-locality optimization ("a
	// thread first fills its private buffer … and copies data from the
	// private buffer to buckets when the local buffer is full",
	// §III-A) — and at the end of each chunk's share of each frontier,
	// so it applies to single and batched multiplies alike. Zero writes
	// directly.
	StagingEntries int

	// UseInfSentinel switches Step 2 to the paper-faithful two-pass
	// merge that marks first touches with ∞ (Algorithm 1, lines 11-18)
	// instead of the default one-pass epoch-tag merge, for single and
	// batched multiplies alike (a masked frontier keeps the epoch-tag
	// merge that carries the mask test). The sentinel variant cannot
	// distinguish a stored +Inf from an uninitialized slot, exactly as
	// in the paper; it exists for fidelity comparisons.
	UseInfSentinel bool

	// MergeSched selects dynamic (default), static or work-stealing
	// scheduling of buckets in Step 2.
	MergeSched Sched

	// SplitEvenly disables the nonzero-weighted Step-1 work split. By
	// default work is split "based on nonzeros, as opposed to [entries],
	// of x" — the paper's §III-B fix that bounds the span on skewed
	// matrices. Setting SplitEvenly gives each thread an equal count of
	// x entries instead.
	SplitEvenly bool

	// HybridThreshold tunes the Hybrid engine's per-call direction
	// switch: the matrix-driven side runs when nnz(x)/n reaches the
	// threshold. Zero (the default) asks construction to calibrate the
	// threshold from a few probe multiplies on the bound matrix; a
	// negative value pins the vector-driven side (never switch). The
	// other engines ignore this field.
	HybridThreshold float64

	// CalibrationCache, when non-empty, is the path of an on-disk JSON
	// cache of calibrated hybrid thresholds keyed by a matrix
	// fingerprint (dimensions, nonzero count, column-degree sketch).
	// Construction with HybridThreshold == 0 first consults the cache —
	// a hit skips the probe multiplies entirely — and stores a freshly
	// calibrated threshold back on a miss. Empty (the default) disables
	// persistence; the other engines ignore this field.
	CalibrationCache string

	// Recalibrate forces calibration to re-run its probe multiplies
	// even when CalibrationCache holds a threshold for the matrix; the
	// fresh result overwrites the cached entry (the CLIs' -recalibrate
	// knob).
	Recalibrate bool
}

// WithDefaults resolves zero values to the paper's defaults.
func (o Options) WithDefaults() Options {
	o.Threads = par.Threads(o.Threads)
	if o.BucketsPerThread <= 0 {
		o.BucketsPerThread = 4
	}
	return o
}
