package sparse

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// SpVec is a sparse vector in the list format of paper §II-C: a compact
// array of (index, value) pairs, stored as parallel slices for cache
// efficiency ("in contrast to its name, the actual data structure is
// often an array of pairs for maximizing cache performance"). The list
// may be sorted or unsorted; Sorted tracks which, because the paper's
// two algorithm variants differ exactly on this property and the output
// must be produced in the same format as the input.
type SpVec struct {
	N      Index // logical dimension
	Ind    []Index
	Val    []float64
	Sorted bool
}

// NewSpVec returns an empty sparse vector of dimension n with capacity
// for nnzCap entries. An empty vector is considered sorted.
func NewSpVec(n Index, nnzCap int) *SpVec {
	return &SpVec{
		N:      n,
		Ind:    make([]Index, 0, nnzCap),
		Val:    make([]float64, 0, nnzCap),
		Sorted: true,
	}
}

// NNZ returns the number of stored entries.
func (v *SpVec) NNZ() int { return len(v.Ind) }

// Append adds one (index, value) entry, maintaining the Sorted flag.
func (v *SpVec) Append(i Index, val float64) {
	if n := len(v.Ind); n > 0 && v.Ind[n-1] >= i {
		v.Sorted = false
	}
	v.Ind = append(v.Ind, i)
	v.Val = append(v.Val, val)
}

// Reset empties the vector in place, keeping capacity, and sets the
// dimension to n.
func (v *SpVec) Reset(n Index) {
	v.N = n
	v.Ind = v.Ind[:0]
	v.Val = v.Val[:0]
	v.Sorted = true
}

// Clone returns a deep copy.
func (v *SpVec) Clone() *SpVec {
	c := &SpVec{
		N:      v.N,
		Ind:    append([]Index(nil), v.Ind...),
		Val:    append([]float64(nil), v.Val...),
		Sorted: v.Sorted,
	}
	return c
}

// Validate checks index bounds and, when Sorted, strict monotonicity.
func (v *SpVec) Validate() error {
	for k, i := range v.Ind {
		if i < 0 || i >= v.N {
			return fmt.Errorf("sparse: vector index %d out of range [0,%d) at entry %d", i, v.N, k)
		}
		if v.Sorted && k > 0 && v.Ind[k-1] >= i {
			return fmt.Errorf("sparse: vector marked sorted but Ind[%d]=%d ≥ Ind[%d]=%d", k-1, v.Ind[k-1], k, i)
		}
	}
	return nil
}

// Sort orders the entries by index in place and sets Sorted. Duplicate
// indices keep their relative order (stable).
func (v *SpVec) Sort() {
	if v.Sorted {
		return
	}
	sort.Stable(spvecSorter{v})
	v.Sorted = true
}

type spvecSorter struct{ v *SpVec }

func (s spvecSorter) Len() int           { return len(s.v.Ind) }
func (s spvecSorter) Less(a, b int) bool { return s.v.Ind[a] < s.v.Ind[b] }
func (s spvecSorter) Swap(a, b int) {
	v := s.v
	v.Ind[a], v.Ind[b] = v.Ind[b], v.Ind[a]
	v.Val[a], v.Val[b] = v.Val[b], v.Val[a]
}

// ToDense scatters the vector into a fresh dense slice with absent
// entries equal to zero.
func (v *SpVec) ToDense() []float64 {
	d := make([]float64, v.N)
	for k, i := range v.Ind {
		d[i] = v.Val[k]
	}
	return d
}

// FromDense gathers the nonzero entries (≠ zero) of d into sorted list
// format.
func FromDense(d []float64, zero float64) *SpVec {
	v := NewSpVec(Index(len(d)), 0)
	for i, x := range d {
		if x != zero {
			v.Append(Index(i), x)
		}
	}
	v.Sorted = true
	return v
}

// EqualValues reports whether v and o represent the same mathematical
// vector within tol, independent of entry order. Entries whose value is
// within tol of 0 are treated as absent, so an explicit zero equals a
// structural zero.
func (v *SpVec) EqualValues(o *SpVec, tol float64) bool {
	if v.N != o.N {
		return false
	}
	a := map[Index]float64{}
	for k, i := range v.Ind {
		a[i] += v.Val[k]
	}
	for k, i := range o.Ind {
		a[i] -= o.Val[k]
	}
	for _, diff := range a {
		if math.Abs(diff) > tol {
			return false
		}
	}
	return true
}

// String summarizes the vector for logs.
func (v *SpVec) String() string {
	return fmt.Sprintf("SpVec{n=%d, nnz=%d, sorted=%v}", v.N, v.NNZ(), v.Sorted)
}

// BitVec is the bitvector sparse-vector format of GraphMat (paper §II-C,
// ref [14]): an O(n)-length bitmap marking which indices are nonzero,
// paired with the values. The matrix-driven algorithm needs O(1)
// membership tests and value lookups, so values are kept in a dense
// array; the storage is O(n) either way because of the bitmap, and the
// work profile (O(1) probe per column) matches GraphMat's.
//
// A BitVec is reused across SpMSpV calls: ClearFrom erases only the f
// set bits instead of the whole bitmap, keeping per-call overhead O(f).
type BitVec struct {
	N     Index
	Words []uint64
	Val   []float64
	nset  int
}

// NewBitVec returns an all-zero bitvector of dimension n.
func NewBitVec(n Index) *BitVec {
	return &BitVec{
		N:     n,
		Words: make([]uint64, (int(n)+63)/64),
		Val:   make([]float64, n),
	}
}

// SetFrom loads the entries of x into the bitvector in O(nnz(x)).
// Duplicate indices in x overwrite (last one wins), matching an unsorted
// list being scattered.
func (b *BitVec) SetFrom(x *SpVec) {
	for k, i := range x.Ind {
		w, bit := int(i)>>6, uint(i)&63
		if b.Words[w]&(1<<bit) == 0 {
			b.nset++
		}
		b.Words[w] |= 1 << bit
		b.Val[i] = x.Val[k]
	}
}

// SetRangeFrom scatters the (ind[k], val[k]) pairs into the bitvector,
// where every index lies in the half-open row range [lo, hi) that the
// caller owns exclusively — the per-bucket (or per-piece) fill engines
// use to emit an output bitmap natively from inside their parallel
// output step. Words fully interior to the range cannot be touched by
// any other range and are written plainly; the at-most-two words
// straddling a range boundary are set atomically, so adjacent disjoint
// ranges may be filled concurrently regardless of 64-bit alignment.
// Value writes are per-row and inherently race-free.
//
// The set-bit count is NOT maintained (it would need cross-range
// coordination); the caller repairs it afterwards —
// Frontier.FinishOutput does.
func (b *BitVec) SetRangeFrom(ind []Index, val []float64, lo, hi Index) {
	if len(ind) == 0 || hi <= lo {
		return
	}
	loWord := int(lo) >> 6
	hiWord := int(hi-1) >> 6
	for k, i := range ind {
		w, bit := int(i)>>6, uint(i)&63
		if w == loWord || w == hiWord {
			atomic.OrUint64(&b.Words[w], 1<<bit)
		} else {
			b.Words[w] |= 1 << bit
		}
		b.Val[i] = val[k]
	}
}

// setCount overwrites the set-bit tally, repairing it after a
// SetRangeFrom-based fill whose caller knows the exact support size.
func (b *BitVec) setCount(n int) { b.nset = n }

// ClearFrom erases exactly the bits set by a previous SetFrom(x) in
// O(nnz(x)), so the bitvector can be reused without an O(n) wipe.
func (b *BitVec) ClearFrom(x *SpVec) { b.clear(x.Ind) }

// clear erases the bits of the given indices in O(len(ind)).
func (b *BitVec) clear(ind []Index) {
	for _, i := range ind {
		w, bit := int(i)>>6, uint(i)&63
		if b.Words[w]&(1<<bit) != 0 {
			b.nset--
		}
		b.Words[w] &^= 1 << bit
	}
}

// Test reports whether index i is present.
func (b *BitVec) Test(i Index) bool {
	return b.Words[int(i)>>6]&(1<<(uint(i)&63)) != 0
}

// Get returns the value at i and whether it is present.
func (b *BitVec) Get(i Index) (float64, bool) {
	if !b.Test(i) {
		return 0, false
	}
	return b.Val[i], true
}

// Count returns the number of set bits.
func (b *BitVec) Count() int { return b.nset }
