// Package engine defines the uniform SpMSpV engine abstraction: the
// Engine interface every algorithm implements, the Algorithm
// identifiers, the construction Options, and a registry through which
// implementations make themselves constructible.
//
// The registry inverts the dependency the facade used to hard-code: the
// implementing packages (internal/core for SpMSpV-bucket,
// internal/baselines for the Table I competitors) register a
// constructor from init, and every consumer — the public facade,
// internal/algorithms, internal/bench, cmd/ — builds engines through
// New without knowing the concrete types. Importing an implementing
// package (directly or blank) is what populates the registry, the same
// pattern as database/sql drivers.
package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"spmspv/internal/perf"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// Engine is the one contract of an SpMSpV implementation bound to one
// matrix: compute y ← ⟨A·x, mask⟩ over a semiring, for one frontier or
// a batch, and report the deterministic work counters behind the
// paper's work-efficiency analysis.
//
// Both multiplies read the input frontier in the representation the
// engine's inner loop consumes (the list for the vector-driven engines,
// the shared, lazily built bitmap for GraphMat) and write the output
// frontier through its BeginOutput/FinishOutput protocol. A non-nil
// mask is pushed into the engine's merge/accumulate step (paper §V): a
// row survives iff mask.Test(row) != complement. bitmap asks the engine
// to emit the output bitmap in the same pass that writes the list;
// engines whose output step never visits a bitmap-shaped structure
// (CombBLAS-SPA, CombBLAS-heap, SpMSpV-sort) ignore it and leave the
// bitmap lazy. With bitmap false no engine writes a bitmap.
//
// Concurrency: every Engine constructed through this registry is safe
// for concurrent calls from multiple goroutines; per-call scratch state
// is pooled internally and counters are aggregated race-free.
type Engine interface {
	// Multiply computes y ← ⟨A·x, mask⟩ over sr into the output
	// frontier (a nil mask multiplies unmasked). x and y must not alias.
	Multiply(x, y *sparse.Frontier, sr semiring.Semiring, mask *sparse.BitVec, complement, bitmap bool)
	// MultiplyBatch computes ys[q] ← ⟨A·xs[q], masks[q]⟩ for every q
	// (nil masks, or a nil slot, multiply unmasked). Results are exactly
	// those of the loop of Multiply calls, which engines without a
	// native batch path run through BatchLoop. len(xs) must equal
	// len(ys); the ys must be pairwise distinct and alias no x.
	MultiplyBatch(xs, ys []*sparse.Frontier, sr semiring.Semiring, masks []*sparse.BitVec, complement, bitmap bool)
	// Counters returns the work performed since the last ResetCounters.
	Counters() perf.Counters
	// ResetCounters zeroes the work counters.
	ResetCounters()
	// Name identifies the algorithm in benchmark tables.
	Name() string
}

// BatchLoop is the batch multiply of engines with no native batch
// path: one e.Multiply call per slot, with the slot's mask.
func BatchLoop(e Engine, xs, ys []*sparse.Frontier, sr semiring.Semiring, masks []*sparse.BitVec, complement, bitmap bool) {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("engine: MultiplyBatch with %d inputs but %d outputs", len(xs), len(ys)))
	}
	for q := range xs {
		var mask *sparse.BitVec
		if masks != nil {
			mask = masks[q]
		}
		e.Multiply(xs[q], ys[q], sr, mask, complement, bitmap)
	}
}

// Algorithm selects an SpMSpV engine.
type Algorithm int

const (
	// Bucket is the paper's SpMSpV-bucket algorithm (default; the only
	// work-efficient, synchronization-avoiding choice).
	Bucket Algorithm = iota
	// CombBLASSPA is the row-split, fully-initialized-SPA baseline.
	CombBLASSPA
	// CombBLASHeap is the row-split heap-merge baseline.
	CombBLASHeap
	// GraphMat is the matrix-driven, bitvector-input baseline.
	GraphMat
	// SortBased is the gather–radix-sort–reduce baseline.
	SortBased
	// Hybrid switches per call between the vector-driven bucket
	// algorithm and the matrix-driven GraphMat algorithm on input
	// density (the paper's §V direction-switch extension).
	Hybrid
)

// String names the algorithm as registered (the paper's Table I names),
// or "unknown" when nothing is registered under it.
func (a Algorithm) String() string {
	regMu.RLock()
	defer regMu.RUnlock()
	if e, ok := registry[a]; ok {
		return e.name
	}
	return "unknown"
}

// Constructor builds an engine bound to a matrix. Construction performs
// the per-matrix preprocessing (row-splitting, workspace sizing) that
// the paper excludes from multiply timings.
type Constructor func(a *sparse.CSC, opt Options) Engine

type regEntry struct {
	name    string
	ctor    Constructor
	aliases []string
}

var (
	regMu    sync.RWMutex
	registry = map[Algorithm]regEntry{}
)

// Register makes an algorithm constructible through New and resolvable
// through Parse. It is intended to be called from the implementing
// package's init; registering the same Algorithm twice panics, as with
// database/sql drivers.
//
// aliases are optional short CLI names ("bucket", "sort") registered
// alongside the canonical Table I name: Parse accepts them and Names
// lists them first, so the one registration call is the single source
// of truth for construction, parsing, and flag help — there is no
// separate alias table to keep in sync.
func Register(alg Algorithm, name string, ctor Constructor, aliases ...string) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[alg]; dup {
		panic(fmt.Sprintf("engine: Register called twice for %q", name))
	}
	if ctor == nil {
		panic("engine: Register with nil constructor")
	}
	registry[alg] = regEntry{name: name, ctor: ctor, aliases: aliases}
}

// Parse resolves an engine name — a registered canonical name matched
// case-insensitively ("CombBLAS-SPA", "graphmat", ...) or a registered
// short alias ("bucket", "sort", "hybrid") — to its Algorithm. Anything
// that registers is reachable here without touching this function. An
// unknown name returns (0, false); callers must check ok rather than
// use the zero Algorithm, which happens to be Bucket.
func Parse(name string) (Algorithm, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	for _, alg := range registeredLocked() {
		e := registry[alg]
		if strings.EqualFold(e.name, name) {
			return alg, true
		}
		for _, a := range e.aliases {
			if strings.EqualFold(a, name) {
				return alg, true
			}
		}
	}
	return 0, false
}

// Names returns every name Parse accepts, in a stable order: the
// registered short aliases first (in ascending Algorithm order), then
// the canonical names (lowercased) not already covered by an alias.
// CLIs derive their -engine/-algorithm help from this, so a newly
// registered engine shows up without touching any flag text.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	var names []string
	seen := map[string]bool{}
	add := func(n string) {
		n = strings.ToLower(n)
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	algs := registeredLocked()
	for _, alg := range algs {
		for _, a := range registry[alg].aliases {
			add(a)
		}
	}
	for _, alg := range algs {
		add(registry[alg].name)
	}
	return names
}

// registeredLocked returns the registered algorithms in ascending
// order; the caller must hold regMu.
func registeredLocked() []Algorithm {
	algs := make([]Algorithm, 0, len(registry))
	for a := range registry {
		algs = append(algs, a)
	}
	sort.Slice(algs, func(i, j int) bool { return algs[i] < algs[j] })
	return algs
}

// New constructs the selected algorithm's engine for a. It returns an
// error when nothing is registered under alg — usually a missing import
// of the implementing package.
func New(a *sparse.CSC, alg Algorithm, opt Options) (Engine, error) {
	regMu.RLock()
	e, ok := registry[alg]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: no constructor registered for algorithm %d (missing import of the implementing package?)", int(alg))
	}
	return e.ctor(a, opt), nil
}

// Registered returns the registered algorithm identifiers in ascending
// order.
func Registered() []Algorithm {
	regMu.RLock()
	defer regMu.RUnlock()
	return registeredLocked()
}
