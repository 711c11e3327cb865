package sparse

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Frontier is a sparse vector carried in whichever representation the
// consuming engine wants: the list format of paper §II-C (SpVec, the
// vector-driven algorithms' native input) or GraphMat's bitvector
// format (BitVec, the matrix-driven algorithm's native input). The
// list is authoritative; the bitmap is materialized lazily, once, on
// first demand, and then shared by every bitmap consumer of the same
// frontier — so a BFS level probed by both sides of a hybrid engine
// pays for at most one list→bitmap conversion, and callers that only
// ever feed list-format engines never pay for the bitmap at all. The
// one exception is an accumulator: UnionInPlace writes the bitmap and
// queues its new indices, and the list catches up (is settled) only
// when List, UpdateValues or Refine next reads it, so a loop that
// reads its visited set only as a mask never merges the list.
//
// A Frontier is also the engines' output format: an engine writes its
// result into a frontier through BeginOutput/OutputBits/FinishOutput
// (see engine.Engine), populating the bitmap natively when its output
// pass already visits one — so a direction-optimized BFS feeding
// each level's output frontier back as the next input pays zero
// list→bitmap conversions on dense phases.
//
// Reading a Frontier concurrently is safe — Materialize/Bits
// serialize the one-time conversion internally, and List/NNZ the
// settling of queued union entries, so several engines (or one
// engine's concurrent calls) may share a frontier. Mutation
// (SetList, BeginOutput, UpdateValues, Refine, UnionInPlace, Release)
// requires exclusive access.
type Frontier struct {
	list *SpVec
	// mu serializes the lazy bitmap materialization and the settling of
	// the queue; it is taken once per Bits/Materialize/List/NNZ call,
	// never per entry.
	mu   sync.Mutex
	bits *BitVec
	// queue holds the indices UnionInPlace added that the list does not
	// hold yet, each once, in arrival order; their bits and values are
	// already on bits. stale marks that a union added into the bitmap's
	// value of an entry the list holds. settle folds both into the list.
	queue []Index
	stale bool
	// bitsValid marks that bits currently mirrors list. When a pooled
	// frontier is released, the set bits are erased in O(nnz) and the
	// flag cleared, so the O(n) bitmap allocation is reused without an
	// O(n) wipe.
	bitsValid bool
	// isOutput marks a frontier whose current contents were produced by
	// an engine's output pass (BeginOutput ran). Materializing the
	// bitmap of such a frontier means the producing engine did NOT emit
	// it natively — the conversion the output layer exists to avoid —
	// so those conversions are counted separately (OutputConversions).
	isOutput bool
	// ownsList marks that list is private storage the frontier may keep
	// across pool cycles (output frontiers), as opposed to a borrowed
	// caller vector that must be dropped on release.
	ownsList bool
	home     *FrontierPool
}

// NewFrontier wraps a list-format vector as a frontier with no pool
// backing; the bitmap, if ever demanded, is allocated privately.
func NewFrontier(x *SpVec) *Frontier {
	if x == nil {
		panic("sparse: NewFrontier with nil vector")
	}
	return &Frontier{list: x}
}

// NewOutputFrontier returns an empty frontier of dimension n with
// private list storage, ready to receive an engine's result through
// BeginOutput/FinishOutput. The bitmap is allocated on first demand
// (by the engine's native output pass or a later consumer).
func NewOutputFrontier(n Index) *Frontier {
	return &Frontier{list: NewSpVec(n, 0), ownsList: true}
}

// N returns the logical dimension.
func (f *Frontier) N() Index { return f.list.N }

// NNZ returns the number of stored entries, queued ones included; it
// does not settle the list.
func (f *Frontier) NNZ() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.list.NNZ() + len(f.queue)
}

// List returns the list-format representation (always present),
// settling any entries UnionInPlace queued first.
func (f *Frontier) List() *SpVec {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.settle()
	return f.list
}

// HasBits reports whether the bitmap representation is currently
// materialized, without triggering a conversion.
func (f *Frontier) HasBits() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bitsValid
}

// Materialize ensures the bitmap representation exists and reports
// whether a list→bitmap conversion actually ran — false means a
// previous consumer already paid for it. Engines use the return value
// to attribute the O(nnz) conversion cost in their work counters.
// Concurrent callers serialize on the frontier's lock; exactly one
// performs the conversion.
func (f *Frontier) Materialize() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.bitsValid {
		return false
	}
	if f.bits == nil || f.bits.N < f.list.N {
		f.bits = NewBitVec(f.list.N)
	}
	f.bits.SetFrom(f.list)
	f.bitsValid = true
	frontierConversions.Add(1)
	frontierConvertedEntries.Add(int64(f.list.NNZ()))
	if f.isOutput {
		// The producing engine did not emit the bitmap natively; this
		// is the conversion the output layer exists to eliminate.
		frontierOutputConversions.Add(1)
	}
	return true
}

// Bits returns the bitmap representation, materializing it on first
// use.
func (f *Frontier) Bits() *BitVec {
	f.Materialize()
	return f.bits
}

// IsOutput reports whether the frontier's current contents were
// produced by an engine output pass (BeginOutput ran and no SetList
// has replaced the contents since). Engines consult it when a
// Materialize they trigger should be attributed to the output layer's
// conversion counter.
func (f *Frontier) IsOutput() bool { return f.isOutput }

// SetList replaces the frontier's contents with a new list vector,
// erasing any stale bitmap state in O(nnz(old)) so the backing bitmap
// can be rebuilt (or never built) for the new contents. The erase walks
// the list the frontier currently holds, so a caller that rebuilds that
// same vector in place must call SetList before mutating it (and again
// after, to re-point the frontier); otherwise the old entries' bits
// stay set.
func (f *Frontier) SetList(x *SpVec) {
	if x == nil {
		panic("sparse: Frontier.SetList with nil vector")
	}
	f.dropBits()
	f.list = x
	f.isOutput = false
	f.ownsList = false
}

// BeginOutput prepares the frontier to receive an engine's result and
// returns the list vector the engine fills (the engine resets it to
// the output dimension itself, exactly as it does a caller-supplied
// output vector). Any stale bitmap state is erased in O(nnz(old)).
// Engines that populate the bitmap while writing the list call
// OutputBits for the backing bitmap; every output ends with
// FinishOutput.
func (f *Frontier) BeginOutput() *SpVec {
	f.dropBits()
	if f.list == nil {
		f.list = NewSpVec(0, 0)
		f.ownsList = true
	}
	f.isOutput = true
	return f.list
}

// OutputBits returns the backing bitmap sized for an m-row output,
// growing it if needed, so a native output pass can set bits while it
// writes the list. Valid only between BeginOutput and FinishOutput;
// the returned bitmap is all-clear for the rows the output can touch.
func (f *Frontier) OutputBits(m Index) *BitVec {
	if f.bits == nil || f.bits.N < m {
		f.bits = NewBitVec(m)
	}
	return f.bits
}

// FinishOutput completes an output pass. bitsNative reports that the
// engine populated the bitmap (obtained from OutputBits) to mirror the
// list exactly — the frontier then serves bitmap consumers with no
// conversion ever. With bitsNative false the bitmap stays
// unmaterialized and is built lazily (and counted as an output
// conversion) only if a consumer demands it.
func (f *Frontier) FinishOutput(bitsNative bool) {
	if bitsNative {
		f.bits.setCount(f.list.NNZ())
		f.bitsValid = true
		frontierNativeOutputs.Add(1)
	}
}

// UpdateValues rewrites every stored value in place. The support is
// unchanged, so a natively-emitted (or previously materialized) bitmap
// stays valid — the pattern BFS uses to turn a level's output (values
// = parent ids) into the next input (values = the vertices' own ids)
// without dropping the bitmap.
func (f *Frontier) UpdateValues(fn func(i Index, v float64) float64) {
	l := f.List()
	for k, i := range l.Ind {
		v := fn(i, l.Val[k])
		l.Val[k] = v
		if f.bitsValid {
			f.bits.Val[i] = v
		}
	}
}

// Refine compacts the frontier's list in place, keeping only the
// entries for which fn returns true (with the returned value stored).
// The support may shrink, so any materialized bitmap is dropped in
// O(nnz(old)); use UpdateValues when every entry is kept.
func (f *Frontier) Refine(fn func(i Index, v float64) (float64, bool)) {
	l := f.List()
	f.dropBits()
	w := 0
	for k, i := range l.Ind {
		if v, keep := fn(i, l.Val[k]); keep {
			l.Ind[w], l.Val[w] = i, v
			w++
		}
	}
	l.Ind = l.Ind[:w]
	l.Val = l.Val[:w]
}

// UnionInPlace sets f to the element-wise union of f and y, collisions
// added: once settled, bit for bit what EwiseAdd(f.List(), y, nil)
// returns, including the Sorted flag. It touches only the bitmap: each
// new index of y sets its bit and value on f's retained bitmap and is
// queued, and each collision adds into the bitmap's copy of its value.
// The bitmap is materialized first if it is not already, so later Bits
// calls convert nothing. The cost is O(nnz(y)); Bits and NNZ read the
// result at once. The list is merged only when a list reader settles
// it (see settle). This is the accumulator step of a loop: a visited
// set, which y never collides with, or a rank vector.
//
// f's list must be private to f and sorted, as an EwiseAdd result is.
// y is read only and may be unsorted or hold duplicate indices.
func (f *Frontier) UnionInPlace(y *SpVec) {
	if f.list.N != y.N {
		panic("sparse: Frontier.UnionInPlace dimension mismatch")
	}
	if !f.list.Sorted {
		panic("sparse: Frontier.UnionInPlace into an unsorted list")
	}
	f.Materialize()
	f.isOutput = false
	b := f.bits
	for k, i := range y.Ind {
		w, bit := int(i)>>6, uint64(1)<<(uint(i)&63)
		if b.Words[w]&bit != 0 {
			b.Val[i] += y.Val[k]
			f.stale = true
			continue
		}
		b.Words[w] |= bit
		b.nset++
		b.Val[i] = y.Val[k]
		f.queue = append(f.queue, i)
	}
}

// settle brings the list up to date with the unions queued on the
// bitmap: it copies the collided sums back, then sorts the queue and
// merges it in. It costs O(nnz(f)) when a union collided, plus the
// sort, plus a merge that moves only the list entries above the
// queue's smallest index. Callers hold f.mu.
func (f *Frontier) settle() {
	if len(f.queue) == 0 && !f.stale {
		return
	}
	l, b := f.list, f.bits
	entries := 0
	if f.stale { // the sums are in the bitmap; copy them to the list
		for k, i := range l.Ind {
			l.Val[k] = b.Val[i]
		}
		entries = len(l.Ind)
		f.stale = false
	}
	fresh := f.queue
	slices.Sort(fresh)
	// Merge from the back. Each new index fresh[q], largest first, scans
	// down to its place among the m old entries not yet moved. The old
	// entries above it move up q+1 slots, one for each of fresh[0..q],
	// in one copy.
	m := len(l.Ind)
	l.Ind = grown(l.Ind, m+len(fresh))
	l.Val = grown(l.Val, len(l.Ind))
	for q := len(fresh) - 1; q >= 0; q-- {
		i := fresh[q]
		p := m
		for p > 0 && l.Ind[p-1] > i {
			p--
		}
		copy(l.Ind[p+q+1:], l.Ind[p:m])
		copy(l.Val[p+q+1:], l.Val[p:m])
		l.Ind[p+q], l.Val[p+q] = i, b.Val[i]
		entries += m - p + 1
		m = p
	}
	f.queue = fresh[:0]
	frontierSettledEntries.Add(int64(entries))
}

// grown returns s extended to length n, at least doubling the capacity
// when it has to reallocate, so an accumulator grown one level at a
// time copies O(final size) in total.
func grown[E any](s []E, n int) []E {
	if n > cap(s) {
		t := make([]E, len(s), max(n, 2*cap(s)))
		copy(t, s)
		s = t
	}
	return s[:n]
}

// dropBits erases the materialized bitmap cheaply (O(nnz), not O(n)),
// the queued entries' bits included, and drops the queue.
func (f *Frontier) dropBits() {
	if f.bitsValid {
		f.bits.ClearFrom(f.list)
		f.bits.clear(f.queue)
		f.bitsValid = false
	}
	f.queue, f.stale = f.queue[:0], false
}

// Release returns a pool-backed frontier to its home pool, erasing the
// bitmap in O(nnz). It is a no-op for frontiers built with NewFrontier.
// The frontier must not be used after Release.
func (f *Frontier) Release() {
	if f.home != nil {
		f.home.put(f)
	}
}

// FrontierPool recycles frontiers — most importantly their O(n)
// bitmaps — for one vector dimension, the per-matrix analogue of the
// engines' workspace pools: a caller that wraps each incoming list
// vector in a pooled frontier pays one bitmap allocation per concurrent
// call ever, not one per call, and the erase on release is O(nnz)
// thanks to BitVec.ClearFrom. A pooled frontier allocates its bitmap
// on first demand, so wrapping for an engine that reads only the list
// costs no bitmap at all. The pool is safe for concurrent use.
type FrontierPool struct {
	n    Index
	pool sync.Pool // *Frontier
}

// NewFrontierPool returns a pool of frontiers of dimension n.
func NewFrontierPool(n Index) *FrontierPool {
	p := &FrontierPool{n: n}
	p.pool.New = func() any {
		return &Frontier{home: p}
	}
	return p
}

// Wrap borrows a pooled frontier holding x. The vector's dimension
// must match the pool's.
func (p *FrontierPool) Wrap(x *SpVec) *Frontier {
	if x.N != p.n {
		panic(fmt.Sprintf("sparse: FrontierPool.Wrap dimension mismatch: pool %d, vector %d", p.n, x.N))
	}
	f := p.pool.Get().(*Frontier)
	f.list = x
	f.ownsList = false
	return f
}

// GetOutput borrows an empty pooled output frontier: its list storage
// and, once first demanded, its bitmap are private and recycled with
// the frontier, so a steady-state pipeline of multiplies into it
// allocates nothing.
func (p *FrontierPool) GetOutput() *Frontier {
	f := p.pool.Get().(*Frontier)
	if f.list == nil {
		f.list = NewSpVec(p.n, 0)
	} else {
		f.list.Reset(p.n)
	}
	f.ownsList = true
	return f
}

// put erases the frontier's bitmap and returns it to the pool. Private
// (output) list storage rides along for reuse; borrowed lists are
// dropped.
func (p *FrontierPool) put(f *Frontier) {
	f.dropBits()
	if f.ownsList {
		f.list.Reset(p.n)
	} else {
		f.list = nil
	}
	f.isOutput = false
	p.pool.Put(f)
}

// Process-wide conversion instrumentation: every list→bitmap
// materialization is counted, with the number of entries scattered.
// Benchmarks and tests read these to verify that frontier sharing
// actually eliminates conversions (e.g. that a hybrid engine's
// matrix-driven calls reuse one bitmap per level).
var (
	frontierConversions       atomic.Int64
	frontierConvertedEntries  atomic.Int64
	frontierOutputConversions atomic.Int64
	frontierNativeOutputs     atomic.Int64
	frontierSettledEntries    atomic.Int64
)

// FrontierConversions returns the process-wide count of list→bitmap
// conversions and the total entries converted since process start (or
// the last ResetFrontierConversions).
func FrontierConversions() (conversions, entries int64) {
	return frontierConversions.Load(), frontierConvertedEntries.Load()
}

// FrontierOutputStats returns the process-wide count of list→bitmap
// conversions performed on engine-produced output frontiers (the
// conversions the output layer failed to avoid) and the count of
// outputs whose bitmap was emitted natively by the producing engine's
// output pass (no conversion can ever run for those).
func FrontierOutputStats() (outputConversions, nativeOutputs int64) {
	return frontierOutputConversions.Load(), frontierNativeOutputs.Load()
}

// FrontierSettledEntries returns the process-wide count of list
// entries that settling moved or wrote: the accumulator's deferred
// merge and collision copy-back (see UnionInPlace).
func FrontierSettledEntries() int64 { return frontierSettledEntries.Load() }

// ResetFrontierConversions zeroes the conversion instrumentation and
// the settled-entry count.
func ResetFrontierConversions() {
	frontierConversions.Store(0)
	frontierConvertedEntries.Store(0)
	frontierOutputConversions.Store(0)
	frontierNativeOutputs.Store(0)
	frontierSettledEntries.Store(0)
}
