package spmspv

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"spmspv/internal/algorithms"
	"spmspv/internal/engine"
	"spmspv/internal/graphgen"
	"spmspv/internal/par"
	"spmspv/internal/perf"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"

	// The engine implementations register themselves with the
	// internal/engine registry from init; importing them is what makes
	// every Algorithm constructible through NewMultiplier. hybrid is
	// additionally imported by name for the calibration-cache helpers.
	"spmspv/internal/hybrid"

	_ "spmspv/internal/baselines"
	_ "spmspv/internal/core"
)

// Core data types, aliased from the implementation packages so the
// whole public surface lives in one import.
type (
	// Index is the row/column index type (int32).
	Index = sparse.Index
	// Triples is a coordinate-format matrix under construction.
	Triples = sparse.Triples
	// Matrix is a CSC sparse matrix.
	Matrix = sparse.CSC
	// Vector is a list-format sparse vector.
	Vector = sparse.SpVec
	// BitVector is a bitmap-format sparse vector (GraphBLAS mask).
	BitVector = sparse.BitVec
	// Semiring is the algebraic structure multiplication runs over.
	Semiring = semiring.Semiring
	// Options configures engine construction (thread count, plus the
	// bucket engine's knobs: buckets per thread, sorted output, merge
	// scheduling...).
	Options = engine.Options
	// Counters are the deterministic work counters every engine
	// reports (see EXPERIMENTS.md).
	Counters = perf.Counters
	// Stats summarizes a matrix (vertices, edges, pseudo-diameter).
	Stats = sparse.Stats
	// Frontier is a sparse vector carried in whichever representation
	// the consuming engine prefers (list or bitmap), with the bitmap
	// materialized lazily at most once and shared across consumers.
	// Frontiers are also the engines' output format (Mult): bucket,
	// GraphMat and Hybrid emit list and bitmap in one pass.
	Frontier = sparse.Frontier
	// Desc is the GraphBLAS-style descriptor that parameterizes Mult
	// and MultBatch: mask + complement, accumulate, transpose (left
	// multiplication), requested output representation, batch width and
	// semiring name in one JSON-serializable value — the wire contract
	// of a multiply request (see Request).
	Desc = engine.Desc
	// OutputMode is a Desc's output-representation request.
	OutputMode = engine.OutputMode
	// BFSResult is the output of the matrix-based BFS.
	BFSResult = algorithms.BFSResult
	// MultiBFSResult is the output of the batched multi-source BFS.
	MultiBFSResult = algorithms.MultiBFSResult
	// PageRankResult is the output of the data-driven PageRank.
	PageRankResult = algorithms.PageRankResult
	// PageRankOptions configures PageRank.
	PageRankOptions = algorithms.PageRankOptions
)

// The predefined semirings.
var (
	// Arithmetic is (+, ×): ordinary multiplication.
	Arithmetic = semiring.Arithmetic
	// MinPlus is (min, +): shortest-path relaxation.
	MinPlus = semiring.MinPlus
	// MaxPlus is (max, +): longest/critical paths.
	MaxPlus = semiring.MaxPlus
	// BoolOrAnd is (∨, ∧): reachability.
	BoolOrAnd = semiring.BoolOrAnd
	// MinSelect2nd is (min, select2nd): BFS parent assignment.
	MinSelect2nd = semiring.MinSelect2nd
	// MaxSelect2nd is (max, select2nd): max-label propagation.
	MaxSelect2nd = semiring.MaxSelect2nd
	// MinSelect1st is (min, select1st): pull edge attributes.
	MinSelect1st = semiring.MinSelect1st
)

// The bucket engine's Step-2 merge schedules (Options.MergeSched).
const (
	// SchedDynamic claims buckets via an atomic counter (the paper's
	// default, §III-A).
	SchedDynamic = engine.SchedDynamic
	// SchedStatic assigns contiguous bucket ranges up front.
	SchedStatic = engine.SchedStatic
	// SchedStealing runs the merge on the persistent work-stealing
	// executor with entry-weighted initial shares (see internal/par).
	SchedStealing = engine.SchedStealing
)

// The OutputMode values a Desc can request (see engine.OutputMode).
const (
	// OutputAuto asks for the richest representation the engine emits
	// natively (list+bitmap for the output-capable engines).
	OutputAuto = engine.OutputAuto
	// OutputList asks for the list only; the bitmap stays lazy.
	OutputList = engine.OutputList
	// OutputBitmap guarantees a materialized bitmap on return.
	OutputBitmap = engine.OutputBitmap
)

// SetExecutorWorkers resizes the process-wide persistent executor that
// every parallel region runs on (see internal/par): n is the number of
// long-lived pool workers backing fork-join calls beyond the caller
// itself (the default is GOMAXPROCS-1), and n ≤ 0 forces every
// parallel region inline on its calling goroutine. Call it at startup,
// before parallel work begins. Serving hosts use it (-par-workers on
// spmspv-serve) to cap total multiply fan-out independently of
// per-call Options.Threads.
func SetExecutorWorkers(n int) { par.SetDefaultWorkers(n) }

// ParseSemiring resolves a semiring name — a short alias
// ("arithmetic", "minplus", "maxplus", "boolean", "bfs", ...) or a
// predefined semiring's canonical Name — to its Semiring, matched
// case-insensitively. This is the decoder behind Desc.Semiring: wire
// requests name their semiring because function values do not
// serialize.
func ParseSemiring(name string) (Semiring, bool) { return semiring.ByName(name) }

// SemiringNames returns every short alias ParseSemiring accepts — the
// list the CLIs print in their -semiring help.
func SemiringNames() []string { return semiring.Names() }

// NewTriples returns an empty m×n coordinate list with capacity nnzCap.
func NewTriples(m, n Index, nnzCap int) *Triples { return sparse.NewTriples(m, n, nnzCap) }

// NewMatrix compiles triples into CSC form, summing duplicates.
func NewMatrix(t *Triples) (*Matrix, error) { return sparse.NewCSCFromTriples(t) }

// NewVector returns an empty sparse vector of dimension n.
func NewVector(n Index, nnzCap int) *Vector { return sparse.NewSpVec(n, nnzCap) }

// ReadMatrixMarket parses a Matrix Market coordinate file.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) {
	t, err := sparse.ReadMatrixMarket(r)
	if err != nil {
		return nil, err
	}
	return sparse.NewCSCFromTriples(t)
}

// WriteMatrixMarket writes a matrix in Matrix Market format.
func WriteMatrixMarket(w io.Writer, a *Matrix) error { return sparse.WriteMatrixMarket(w, a) }

// ReadVector / WriteVector handle the simple "index value" text format.
func ReadVector(r io.Reader) (*Vector, error)  { return sparse.ReadVector(r) }
func WriteVector(w io.Writer, v *Vector) error { return sparse.WriteVector(w, v) }

// DecodeVector reads a vector in any supported encoding — the SPVB
// binary frame, JSON, or the "index value" text form — sniffed from
// the leading bytes, mirroring DecodeMatrix. CLI and file paths use it
// so either wire encoding works without a flag.
func DecodeVector(r io.Reader) (*Vector, error) { return sparse.DecodeVector(r) }

// EncodeVectorBinary writes v as the framed SPVB binary form — the
// compact encoding the binary serving wire carries vectors in.
func EncodeVectorBinary(w io.Writer, v *Vector) error { return sparse.EncodeVectorBinary(w, v) }

// ComputeStats derives Table IV-style statistics for an adjacency
// matrix (pseudo-diameter via double-sweep BFS from source).
func ComputeStats(name string, a *Matrix, source Index) Stats {
	return sparse.ComputeStats(name, a, source)
}

// Algorithm selects the SpMSpV engine. Engines are constructed through
// the internal/engine registry, where each implementation registers
// itself; String() reports the registered Table I name.
type Algorithm = engine.Algorithm

const (
	// Bucket is the paper's SpMSpV-bucket algorithm (default; the only
	// work-efficient, synchronization-avoiding choice).
	Bucket = engine.Bucket
	// CombBLASSPA is the row-split, fully-initialized-SPA baseline.
	CombBLASSPA = engine.CombBLASSPA
	// CombBLASHeap is the row-split heap-merge baseline.
	CombBLASHeap = engine.CombBLASHeap
	// GraphMat is the matrix-driven, bitvector-input baseline.
	GraphMat = engine.GraphMat
	// SortBased is the gather–radix-sort–reduce baseline.
	SortBased = engine.SortBased
	// Hybrid switches per call between the vector-driven bucket
	// algorithm and the matrix-driven GraphMat algorithm on input
	// density (paper §V). The switch point is Options.HybridThreshold;
	// zero calibrates it from probe multiplies at construction.
	Hybrid = engine.Hybrid
)

// Algorithms returns the registered algorithm identifiers in ascending
// order — everything constructible through NewMultiplier.
func Algorithms() []Algorithm { return engine.Registered() }

// ParseAlgorithm resolves an algorithm name — a registered name
// matched case-insensitively ("CombBLAS-SPA", "graphmat", ...) or a
// registered short CLI alias ("bucket", "sort", "hybrid") — to its
// Algorithm. Names and aliases both live in the engine registry (one
// Register call per engine is the single source of truth), so anything
// registered is reachable here without touching this function. An
// unknown name returns (0, false); callers must check ok rather than
// use the zero Algorithm, which happens to be Bucket.
func ParseAlgorithm(name string) (Algorithm, bool) { return engine.Parse(name) }

// EngineNames returns every engine name ParseAlgorithm accepts, in a
// stable order: the registered short CLI aliases first, then the
// registered Table I names (lowercased) that are not already covered
// by an alias. CLIs derive their -engine/-algorithm help strings from
// this, so a newly registered engine shows up without touching any
// flag text.
func EngineNames() []string { return engine.Names() }

// DefaultCalibrationCachePath returns the conventional on-disk
// location for the Hybrid engine's calibrated-threshold cache
// (Options.CalibrationCache), or "" when the platform reports no user
// cache directory.
func DefaultCalibrationCachePath() string { return hybrid.DefaultCachePath() }

// FrontierOutputStats reports the process-wide count of list→bitmap
// conversions performed on engine-produced output frontiers (the
// conversions native output emission avoids) and the count of outputs
// whose bitmap was emitted natively. See also Counters'
// OutputConversions, the per-engine attribution of the same events.
func FrontierOutputStats() (outputConversions, nativeOutputs int64) {
	return sparse.FrontierOutputStats()
}

// ResetFrontierStats zeroes the process-wide frontier conversion and
// output instrumentation.
func ResetFrontierStats() { sparse.ResetFrontierConversions() }

// Multiplier is a reusable SpMSpV engine bound to one matrix. Reuse
// across calls is the intended pattern — iterative graph algorithms
// call Mult thousands of times and all buffers are recycled, per the
// paper's preallocation strategy (§III-A).
//
// A Multiplier is safe for concurrent use by multiple goroutines: the
// underlying engines pool their per-call workspaces, the lazily-built
// transpose engine is constructed exactly once, and work counters are
// aggregated race-free. Parallelism also exists inside each call, so a
// single caller still saturates the machine.
type Multiplier struct {
	a   *Matrix
	eng engine.Engine
	alg Algorithm
	opt Options

	leftOnce sync.Once
	left     *Multiplier // lazily built Aᵀ engine for Desc.Transpose

	// inputs recycles the input frontiers the serving paths wrap each
	// request vector in (see wrapInput); outputs recycles the output
	// frontiers of stored programs' multiplies (see getOutput).
	inputs, outputs *sparse.FrontierPool
}

// Option configures NewMultiplier. Options compose left to right;
// WithEngineOptions replaces the whole engine-options struct, so apply
// it before the field-level options it would otherwise overwrite.
type Option func(*multiplierConfig)

type multiplierConfig struct {
	alg Algorithm
	opt Options
}

// WithAlgorithm selects the SpMSpV engine (default Bucket).
func WithAlgorithm(alg Algorithm) Option {
	return func(c *multiplierConfig) { c.alg = alg }
}

// WithEngineOptions replaces the engine-construction options wholesale
// — the escape hatch for the long tail of bucket-engine knobs
// (staging, scheduling, the ∞-sentinel ablation...).
func WithEngineOptions(opt Options) Option {
	return func(c *multiplierConfig) { c.opt = opt }
}

// WithThreads sets the most worker threads a multiply runs on (≤ 0
// means GOMAXPROCS). The bucket engine runs each call on fewer when
// the call is small: one thread per grain of its flops, and never more
// than nnz(x) (see Options.Threads).
func WithThreads(n int) Option {
	return func(c *multiplierConfig) { c.opt.Threads = n }
}

// WithSortOutput selects whether results carry strictly increasing
// indices.
func WithSortOutput(sorted bool) Option {
	return func(c *multiplierConfig) { c.opt.SortOutput = sorted }
}

// WithHybridThreshold pins the Hybrid engine's direction-switch
// threshold (zero calibrates at construction, negative pins the
// vector-driven side).
func WithHybridThreshold(th float64) Option {
	return func(c *multiplierConfig) { c.opt.HybridThreshold = th }
}

// WithCalibrationCache sets the on-disk calibrated-threshold cache the
// Hybrid engine consults at construction; recalibrate forces the probe
// multiplies to re-run even on a cache hit.
func WithCalibrationCache(path string, recalibrate bool) Option {
	return func(c *multiplierConfig) {
		c.opt.CalibrationCache = path
		c.opt.Recalibrate = recalibrate
	}
}

// NewMultiplier returns a multiplier for a, configured by functional
// options. Construction reports failure: an unregistered algorithm
// (usually a missing import of the implementing package) or a nil
// matrix is an error, not a different engine than the one asked for.
// For the row-split baselines the matrix partitioning is performed
// here ("preprocessing"), as in the original systems.
func NewMultiplier(a *Matrix, opts ...Option) (*Multiplier, error) {
	if a == nil {
		return nil, errors.New("spmspv: NewMultiplier with nil matrix")
	}
	cfg := multiplierConfig{alg: Bucket}
	for _, o := range opts {
		o(&cfg)
	}
	eng, err := engine.New(a, cfg.alg, cfg.opt)
	if err != nil {
		return nil, fmt.Errorf("spmspv: constructing engine: %w", err)
	}
	return &Multiplier{a: a, eng: eng, alg: cfg.alg, opt: cfg.opt,
		inputs: sparse.NewFrontierPool(a.NumCols), outputs: sparse.NewFrontierPool(a.NumRows)}, nil
}

// Mult is the single descriptor-driven multiply: y ← ⟨op(A)·x, mask⟩
// over sr, where every capability is a Desc field instead of a method —
// op(A) is Aᵀ under d.Transpose (paper §II-A left multiplication), the
// mask is pushed into the engine's merge step (§V), d.Accum switches
// overwrite to y ← y ⊕ product, and d.Output selects the result
// representation. The zero Desc is a plain multiply with the engine's
// richest native output.
//
// A zero-valued sr resolves d.Semiring by name (the wire form); an
// explicit sr always wins.
//
// Mult panics on an inconsistent descriptor (Complement without a
// mask, an unresolvable semiring) exactly as the slice-length checks
// panic: these are programming errors, not runtime conditions. Network
// servers validate with Desc.Validate / Request first.
func (m *Multiplier) Mult(x, y *Frontier, sr Semiring, d Desc) {
	if d.Transpose {
		d.Transpose = false
		m.transposed().Mult(x, y, sr, d)
		return
	}
	engine.Mult(m.eng, x, y, resolveSemiring(sr, d), d)
}

// MultBatch is Mult over a batch: ys[q] ← ⟨op(A)·xs[q], mask_q⟩ for
// every q, with per-slot masks from d.Masks (or d.Mask shared).
// Engines with a native batch path amortize their per-call setup
// across the slots (the bucket engine shares one Estimate/sizing pass
// and emits every slot's output bitmap from the batched Step 3; the
// hybrid engine routes each slot by its own density). Results are
// always exactly those of the equivalent loop of Mult calls.
func (m *Multiplier) MultBatch(xs, ys []*Frontier, sr Semiring, d Desc) {
	if d.Transpose {
		d.Transpose = false
		m.transposed().MultBatch(xs, ys, sr, d)
		return
	}
	engine.MultBatch(m.eng, xs, ys, resolveSemiring(sr, d), d)
}

// transposed returns the multiplier bound to Aᵀ with the same algorithm
// and options, building it exactly once — concurrent first callers
// block until it is ready.
func (m *Multiplier) transposed() *Multiplier {
	m.leftOnce.Do(func() { m.left = m.rebind(m.a.Transpose()) })
	return m.left
}

// rebind returns a multiplier running m's algorithm and options over b
// (the transpose, a self-loop-stripped copy). m's algorithm is
// registered — it constructed m — so construction cannot fail.
func (m *Multiplier) rebind(b *Matrix) *Multiplier {
	r, err := NewMultiplier(b, WithAlgorithm(m.alg), WithEngineOptions(m.opt))
	if err != nil {
		panic(err)
	}
	return r
}

// wrapInput borrows a pooled input frontier holding x for a multiply
// by op(A) — Aᵀ under transpose. The serving paths wrap every request
// vector this way, so a bitmap-reading engine (GraphMat, Hybrid's
// matrix-driven side) reuses one pooled O(n) bitmap per concurrent
// request instead of allocating one per request. The caller Releases
// the frontier once the multiply has returned.
func (m *Multiplier) wrapInput(x *Vector, transpose bool) *Frontier {
	if transpose {
		return m.transposed().inputs.Wrap(x)
	}
	return m.inputs.Wrap(x)
}

// getOutput borrows a pooled output frontier for a multiply by op(A) —
// Aᵀ under transpose. Program loops Release each multiply output they
// leave dead, so a level loop reuses one list and one O(n) bitmap
// instead of allocating them per iteration.
func (m *Multiplier) getOutput(transpose bool) *Frontier {
	if transpose {
		return m.transposed().outputs.GetOutput()
	}
	return m.outputs.GetOutput()
}

// resolveSemiring applies the precedence rule: an explicit semiring
// argument wins; a zero-valued argument falls back to the descriptor's
// semiring name.
func resolveSemiring(sr Semiring, d Desc) Semiring {
	if sr.Add != nil || sr.Mul != nil {
		return sr
	}
	if d.Semiring == "" {
		panic("spmspv: Mult requires a semiring (pass one, or name one in Desc.Semiring)")
	}
	named, ok := semiring.ByName(d.Semiring)
	if !ok {
		panic(fmt.Sprintf("spmspv: unknown semiring %q in Desc", d.Semiring))
	}
	return named
}

// NewFrontier wraps a list-format vector as a Frontier. Feed it to Mult
// (possibly across several multipliers) so that a bitmap-preferring
// engine's list→bitmap conversion runs at most once per frontier
// instead of once per call.
func NewFrontier(x *Vector) *Frontier { return sparse.NewFrontier(x) }

// NewOutputFrontier returns an empty frontier of dimension n with
// private list storage, ready to receive a result from Mult. Frontier
// pipelines (see BFS) keep two of these and
// swap them, allocating nothing per iteration.
func NewOutputFrontier(n Index) *Frontier { return sparse.NewOutputFrontier(n) }

// NewOutputFrontier returns an output frontier sized for this
// multiplier's results (the matrix's row dimension).
func (m *Multiplier) NewOutputFrontier() *Frontier {
	return sparse.NewOutputFrontier(m.a.NumRows)
}

// Algorithm reports which engine this multiplier runs.
func (m *Multiplier) Algorithm() Algorithm { return m.alg }

// Matrix returns the bound matrix.
func (m *Multiplier) Matrix() *Matrix { return m.a }

// Counters returns the work performed since the last ResetCounters —
// the quantities behind the paper's work-efficiency analysis.
func (m *Multiplier) Counters() Counters { return m.eng.Counters() }

// ResetCounters zeroes the work counters.
func (m *Multiplier) ResetCounters() { m.eng.ResetCounters() }

// BFS runs a breadth-first search from source over the multiplier's
// matrix (columns are out-neighbor lists) and returns parents, levels
// and per-level frontier sizes.
func BFS(m *Multiplier, source Index) *BFSResult {
	return algorithms.BFS(m.eng, m.a.NumCols, source, false)
}

// BFSMasked runs BFS with the visited-set filter pushed into the
// multiply as an output mask (paper §V's GraphBLAS masking) and the
// levels pipelined through output frontiers: each level's result is
// fed back as the next input, with zero list→bitmap conversions when
// the engine emits output bitmaps natively. Results are identical to
// BFS; every registered engine is supported.
func BFSMasked(m *Multiplier, source Index) *BFSResult {
	return algorithms.BFSMasked(m.eng, m.a.NumCols, source)
}

// MultiBFS runs one breadth-first search per source concurrently,
// expanding all live frontiers of a level through one batched multiply
// (see Multiplier.MultBatch). The trees are identical to running BFS
// per source; the batch amortizes per-call engine setup across the
// sources.
func MultiBFS(m *Multiplier, sources []Index) *MultiBFSResult {
	return algorithms.MultiBFS(m.eng, m.a.NumCols, sources, false)
}

// MultiBFSMasked is MultiBFS with every search's visited filter pushed
// into the batched multiply as a per-slot output mask and the levels
// pipelined through output frontiers — the multi-source form of
// BFSMasked. With a batch-output engine (bucket, hybrid) every slot's
// output bitmap is emitted natively by the batched Step 3, so a
// direction-optimized multi-source pipeline performs zero list→bitmap
// output conversions. Trees are identical to running BFS per source.
func MultiBFSMasked(m *Multiplier, sources []Index) *MultiBFSResult {
	return algorithms.MultiBFSMasked(m.eng, m.a.NumCols, sources)
}

// SpreadSources picks k BFS roots spread evenly across the vertex
// range starting at base — the default source selection for MultiBFS
// workloads.
func SpreadSources(n, base Index, k int) []Index {
	return algorithms.SpreadSources(n, base, k)
}

// PageRank runs the data-driven PageRank on a multiplier bound to a
// column-normalized matrix (see NormalizeColumns).
func PageRank(m *Multiplier, opt PageRankOptions) *PageRankResult {
	return algorithms.PageRank(m.eng, m.a.NumCols, opt)
}

// NormalizeColumns returns a copy of a with columns scaled to sum to 1.
func NormalizeColumns(a *Matrix) *Matrix { return algorithms.NormalizeColumns(a) }

// ConnectedComponents labels every vertex of an undirected graph with
// its component's minimum vertex id.
func ConnectedComponents(m *Multiplier) []Index {
	return algorithms.ConnectedComponents(m.eng, m.a.NumCols)
}

// MaximalIndependentSet computes a maximal independent set of an
// undirected graph with Luby's algorithm (deterministic given seed).
// Self-loops are ignored: when the matrix has diagonal entries, a
// stripped copy is multiplied instead (Luby's rounds require a simple
// graph).
func MaximalIndependentSet(m *Multiplier, seed int64) []bool {
	eng := m.eng
	if m.a.HasSelfLoops() {
		eng = m.rebind(sparse.StripSelfLoops(m.a)).eng
	}
	return algorithms.MaximalIndependentSet(eng, m.a.NumCols, seed)
}

// SSSP computes single-source shortest path distances over non-negative
// edge weights (A(i,j) is the weight of edge j→i); unreachable vertices
// get +Inf.
func SSSP(m *Multiplier, source Index) []float64 {
	return algorithms.SSSP(m.eng, m.a.NumCols, source)
}

// Local clustering and matching (paper §I motivating applications).

type (
	// ACLOptions configures Andersen–Chung–Lang local clustering.
	ACLOptions = algorithms.ACLOptions
	// ACLResult is the PPR vector plus the sweep-cut cluster.
	ACLResult = algorithms.ACLResult
)

// LocalCluster runs the ACL push algorithm from seed on the
// multiplier's (undirected) graph and returns the sweep-cut cluster.
func LocalCluster(m *Multiplier, seed Index, opt ACLOptions) *ACLResult {
	return algorithms.ACL(m.eng, algorithms.Degrees(m.a), seed, opt)
}

// MultiCluster runs the ACL push algorithm from k seeds in lockstep,
// expanding all live push frontiers of a round through one batched
// multiply (see Multiplier.MultBatch). Results are identical to
// running LocalCluster per seed; the batch amortizes per-call engine
// setup across the seeds' small push frontiers.
func MultiCluster(m *Multiplier, seeds []Index, opt ACLOptions) []*ACLResult {
	return algorithms.MultiCluster(m.eng, algorithms.Degrees(m.a), seeds, opt)
}

// MaximalMatching computes a maximal matching of the bipartite graph
// whose adjacency is the multiplier's matrix (rows and columns are the
// two vertex sides). The transposed engine needed for the backward
// rounds is built internally with the same algorithm and options.
func MaximalMatching(m *Multiplier) (rowMate, colMate []Index) {
	return algorithms.MaximalMatching(m.eng, m.transposed().eng, m.a.NumRows, m.a.NumCols)
}

// Element-wise vector operations (GraphBLAS-style combinators).

// EwiseAdd returns the element-wise union of a and b (nil add means +).
func EwiseAdd(a, b *Vector, add func(x, y float64) float64) *Vector {
	return sparse.EwiseAdd(a, b, add)
}

// EwiseMult returns the element-wise intersection (nil mul means ×).
func EwiseMult(a, b *Vector, mul func(x, y float64) float64) *Vector {
	return sparse.EwiseMult(a, b, mul)
}

// Filter keeps the entries satisfying the predicate.
func Filter(v *Vector, keep func(i Index, val float64) bool) *Vector {
	return sparse.Filter(v, keep)
}

// Reduce folds all stored values of v.
func Reduce(v *Vector, init float64, combine func(acc, val float64) float64) float64 {
	return sparse.Reduce(v, init, combine)
}

// Graph generators (the Table IV stand-in suite; see internal/graphgen).

// ErdosRenyi samples a directed G(n, d/n) adjacency matrix.
func ErdosRenyi(n Index, d float64, seed int64) *Matrix { return graphgen.ErdosRenyi(n, d, seed) }

// RMATConfig parameterizes the scale-free R-MAT generator.
type RMATConfig = graphgen.RMATConfig

// DefaultRMAT returns the Graph500 parameterization at a scale.
func DefaultRMAT(scale int) RMATConfig { return graphgen.DefaultRMAT(scale) }

// RMAT generates a scale-free graph.
func RMAT(cfg RMATConfig, seed int64) *Matrix { return graphgen.RMAT(cfg, seed) }

// Grid2D generates a 5-point-stencil lattice (high-diameter regime).
func Grid2D(rows, cols int) *Matrix { return graphgen.Grid2D(rows, cols) }

// TriangularMesh generates a triangulated lattice; jitterSeed != 0
// randomizes diagonal orientation.
func TriangularMesh(rows, cols int, jitterSeed int64) *Matrix {
	return graphgen.TriangularMesh(rows, cols, jitterSeed)
}

// RGG generates a random geometric graph on the unit square.
func RGG(n Index, radius float64, seed int64) *Matrix { return graphgen.RGG(n, radius, seed) }

// NewBitVector returns an all-zero mask of dimension n.
func NewBitVector(n Index) *BitVector { return sparse.NewBitVec(n) }

// Matrix manipulation utilities.

// RowSlice extracts global rows [lo, hi) of a as a standalone matrix
// with local row ids (global − lo) — the unit of distribution of the
// sharded serving layer. Piece w of an n-way row split is
// RowSlice(a, PieceBounds(a.NumRows, n)[w], PieceBounds(a.NumRows, n)[w+1]).
func RowSlice(a *Matrix, lo, hi Index) *Matrix { return sparse.RowSlice(a, lo, hi) }

// PieceBounds returns the n+1 row bounds of the canonical n-way row
// decomposition of an m-row matrix — the same split RowSplit uses
// intra-process and ShardedStore uses across shards, so a worker can
// compute which rows it owns without talking to the coordinator.
func PieceBounds(m Index, n int) []Index { return sparse.PieceBounds(m, n) }

// PermuteRows returns P·A (row i moves to perm[i]).
func PermuteRows(a *Matrix, perm []Index) (*Matrix, error) { return sparse.PermuteRows(a, perm) }

// PermuteCols returns A·Pᵀ (column j moves to perm[j]).
func PermuteCols(a *Matrix, perm []Index) (*Matrix, error) { return sparse.PermuteCols(a, perm) }

// PermuteSymmetric returns P·A·Pᵀ (vertex relabeling).
func PermuteSymmetric(a *Matrix, perm []Index) (*Matrix, error) {
	return sparse.PermuteSymmetric(a, perm)
}

// ExtractColumns returns the submatrix of the selected columns.
func ExtractColumns(a *Matrix, cols []Index) (*Matrix, error) { return sparse.ExtractColumns(a, cols) }

// ExtractSubmatrix returns A(r0:r1, c0:c1) with local indices.
func ExtractSubmatrix(a *Matrix, r0, r1, c0, c1 Index) (*Matrix, error) {
	return sparse.ExtractSubmatrix(a, r0, r1, c0, c1)
}

// StripSelfLoops returns a copy without diagonal entries (a itself when
// none exist).
func StripSelfLoops(a *Matrix) *Matrix { return sparse.StripSelfLoops(a) }
