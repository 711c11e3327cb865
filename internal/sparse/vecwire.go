package sparse

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Vector wire encodings — the SPVB frame, the vector analogue of the
// matrix SPMB frame. This is the hot serving format: a multiply
// response is one or more vectors, and profiling attributes ~40% of
// per-request serving cost to JSON float formatting (strconv's ryu) of
// exactly those payloads — a cost coalescing cannot amortize because
// it is paid per response, not per batch. The binary frame writes raw
// little-endian words instead, so encode cost is a memory copy.
//
// One frame carries one vector in one of three payload kinds, chosen
// by the encoder for the representation the value already has:
//
//   - sparse: (index, value) pairs — the list format, 12 bytes/entry.
//   - dense: all n values back to back, 8 bytes/index — smaller than
//     sparse once nnz exceeds 2n/3, and what a dense iteration vector
//     (PageRank ranks) wants anyway.
//   - bitmap: the raw uint64 words of a BitVec plus (only when any
//     set value is nonzero) the set entries' values — a support-only
//     bitmap response never touches floats at all.
//
// DecodeVector sniffs SPVB against the JSON form and the "index
// value" text form, so every vector entry point accepts all three
// encodings without a flag — mirroring DecodeMatrix.

const (
	vectorMagic   = "SPVB"
	vectorVersion = 1

	vecKindSparse = uint8(0)
	vecKindDense  = uint8(1)
	vecKindBitmap = uint8(2)
)

// DefaultMaxBitVecDim is the default decode-side bound on the
// dimension of a bitmap the wire decoders will materialize. The list
// decoders need no such bound — their storage grows only as the stream
// actually delivers bytes — but a decoded BitVec is O(n) dense storage
// (n/64 words plus n values) sized from a header-claimed dimension, so
// without a bound a ~40-byte hostile frame could force a multi-GiB
// allocation. 1<<27 entries (≈1.1 GiB materialized) matches the
// serving layer's default 1 GiB body cap: a matrix large enough to
// make a bigger mask meaningful could not have been uploaded either.
const DefaultMaxBitVecDim = 1 << 27

// maxBitVecDim is the active bound; see SetMaxBitVecDim.
var maxBitVecDim atomic.Int64

func init() { maxBitVecDim.Store(DefaultMaxBitVecDim) }

// SetMaxBitVecDim bounds the dimension the wire decoders (binary and
// JSON alike) will materialize a bitmap for, in entries (default
// DefaultMaxBitVecDim). Deployments genuinely serving larger
// dimensions raise it; values ≤ 0 restore the default.
func SetMaxBitVecDim(n int64) {
	if n <= 0 {
		n = DefaultMaxBitVecDim
	}
	maxBitVecDim.Store(n)
}

// checkBitVecDim rejects a bitmap materialization beyond the decode
// bound before any O(n) allocation happens.
func checkBitVecDim(n int64) error {
	if lim := maxBitVecDim.Load(); n > lim {
		return fmt.Errorf("sparse: bitmap dimension %d exceeds the decode limit %d (raise with SetMaxBitVecDim)", n, lim)
	}
	return nil
}

// encWriterPool recycles the bufio.Writer every binary encoder wraps
// its destination in, so a steady-state serving loop pays zero
// allocations for encoder state.
var encWriterPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(nil, 16<<10) },
}

// getEncWriter borrows a bufio.Writer bound to w; putEncWriter
// flushes and returns it.
func getEncWriter(w io.Writer) *bufio.Writer {
	bw := encWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

func putEncWriter(bw *bufio.Writer) error {
	err := bw.Flush()
	bw.Reset(nil) // drop the destination so the pool holds no caller state
	encWriterPool.Put(bw)
	return err
}

// EncodeVectorBinary writes v as an SPVB frame, choosing the sparse or
// dense payload by size: dense (8 bytes/index) undercuts sparse
// (12 bytes/entry) once nnz > 2n/3. Dense is only chosen for sorted
// vectors with no explicitly stored zero — an unsorted list may carry
// duplicate indices a scatter would silently collapse, and a stored
// zero is indistinguishable from absence in the dense payload.
func EncodeVectorBinary(w io.Writer, v *SpVec) error {
	bw := getEncWriter(w)
	if err := encodeVector(bw, v); err != nil {
		putEncWriter(bw)
		return err
	}
	return putEncWriter(bw)
}

// BorrowEncWriter hands out a (pooled) buffered writer bound to w, and
// ReturnEncWriter flushes and recycles it — for callers embedding
// several frames in one streamed message (the spmspv binary envelope)
// that want the encoders' buffer pooling without one borrow per frame.
func BorrowEncWriter(w io.Writer) *bufio.Writer { return getEncWriter(w) }

// ReturnEncWriter flushes bw and returns it to the encoder pool.
func ReturnEncWriter(bw *bufio.Writer) error { return putEncWriter(bw) }

// EncodeVectorFrame writes one SPVB frame for v to an already-buffered
// writer (see BorrowEncWriter); EncodeVectorBinary is the one-shot
// form.
func EncodeVectorFrame(bw *bufio.Writer, v *SpVec) error { return encodeVector(bw, v) }

// EncodeBitVecFrame writes one SPVB bitmap frame for b to an
// already-buffered writer; EncodeBitVecBinary is the one-shot form.
func EncodeBitVecFrame(bw *bufio.Writer, b *BitVec) error { return encodeBitVec(bw, b) }

// encodeVector writes one SPVB frame to an already-buffered writer —
// the form envelope encoders embed (they own the buffering).
func encodeVector(bw *bufio.Writer, v *SpVec) error {
	dense := v.Sorted && int64(v.NNZ())*12 > int64(v.N)*8
	if dense {
		// The dense payload encodes absence as 0.0, so an explicitly
		// stored zero (±0, e.g. exact cancellation the semiring kept)
		// cannot ride it — the decoder would drop the entry, changing
		// nnz and support across the wire. Such vectors stay sparse.
		for _, x := range v.Val {
			if x == 0 {
				dense = false
				break
			}
		}
	}
	if _, err := bw.WriteString(vectorMagic); err != nil {
		return err
	}
	var head [13]byte
	binary.LittleEndian.PutUint32(head[0:], vectorVersion)
	if dense {
		head[4] = vecKindDense
		binary.LittleEndian.PutUint64(head[5:], uint64(int64(v.N)))
		if _, err := bw.Write(head[:13]); err != nil {
			return err
		}
		var buf [8]byte
		k := 0
		for i := Index(0); i < v.N; i++ {
			var val float64
			if k < len(v.Ind) && v.Ind[k] == i {
				val = v.Val[k]
				k++
			}
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(val))
			if _, err := bw.Write(buf[:8]); err != nil {
				return err
			}
		}
		return nil
	}
	head[4] = vecKindSparse
	binary.LittleEndian.PutUint64(head[5:], uint64(int64(v.N)))
	if _, err := bw.Write(head[:13]); err != nil {
		return err
	}
	var buf [9]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(int64(v.NNZ())))
	if v.Sorted {
		buf[8] = 1
	} else {
		buf[8] = 0
	}
	if _, err := bw.Write(buf[:9]); err != nil {
		return err
	}
	for _, i := range v.Ind {
		binary.LittleEndian.PutUint32(buf[:4], uint32(i))
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
	}
	for _, x := range v.Val {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(x))
		if _, err := bw.Write(buf[:8]); err != nil {
			return err
		}
	}
	return nil
}

// EncodeBitVecBinary writes b as an SPVB bitmap frame: the raw uint64
// words, plus the set entries' values only when any is nonzero — a
// support-only bitmap (a mask, a reachability result) is pure words
// and its encode never touches a float.
func EncodeBitVecBinary(w io.Writer, b *BitVec) error {
	bw := getEncWriter(w)
	if err := encodeBitVec(bw, b); err != nil {
		putEncWriter(bw)
		return err
	}
	return putEncWriter(bw)
}

func encodeBitVec(bw *bufio.Writer, b *BitVec) error {
	hasVals := false
	for wi, word := range b.Words {
		for word != 0 {
			bit := word & (-word)
			i := Index(wi<<6) + Index(bits.TrailingZeros64(bit))
			if b.Val[i] != 0 {
				hasVals = true
			}
			word &^= bit
		}
		if hasVals {
			break
		}
	}
	if _, err := bw.WriteString(vectorMagic); err != nil {
		return err
	}
	var head [22]byte
	binary.LittleEndian.PutUint32(head[0:], vectorVersion)
	head[4] = vecKindBitmap
	binary.LittleEndian.PutUint64(head[5:], uint64(int64(b.N)))
	binary.LittleEndian.PutUint64(head[13:], uint64(int64(b.Count())))
	if hasVals {
		head[21] = 1
	}
	if _, err := bw.Write(head[:22]); err != nil {
		return err
	}
	var buf [8]byte
	for _, word := range b.Words {
		binary.LittleEndian.PutUint64(buf[:], word)
		if _, err := bw.Write(buf[:8]); err != nil {
			return err
		}
	}
	if hasVals {
		for wi, word := range b.Words {
			for word != 0 {
				bit := word & (-word)
				i := Index(wi<<6) + Index(bits.TrailingZeros64(bit))
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(b.Val[i]))
				if _, err := bw.Write(buf[:8]); err != nil {
					return err
				}
				word &^= bit
			}
		}
	}
	return nil
}

// vecFrameHeader reads the SPVB magic, version and kind.
func vecFrameHeader(br *bufio.Reader) (kind uint8, err error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return 0, fmt.Errorf("sparse: reading vector magic: %w", err)
	}
	if string(magic[:]) != vectorMagic {
		return 0, fmt.Errorf("sparse: bad vector magic %q", magic[:])
	}
	var head [5]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return 0, fmt.Errorf("sparse: reading vector header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(head[0:]); v != vectorVersion {
		return 0, fmt.Errorf("sparse: unsupported vector wire version %d", v)
	}
	return head[4], nil
}

func readInt64(br *bufio.Reader) (int64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(buf[:])), nil
}

// DecodeVectorBinary parses an SPVB frame into list format, validating
// the result; a bitmap payload is gathered into a sorted list. It
// accepts a plain io.Reader and reads exactly one frame (buffered
// internally only when the caller's reader is unbuffered).
func DecodeVectorBinary(r io.Reader) (*SpVec, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	kind, err := vecFrameHeader(br)
	if err != nil {
		return nil, err
	}
	switch kind {
	case vecKindSparse:
		return decodeSparsePayload(br)
	case vecKindDense:
		return decodeDensePayload(br)
	case vecKindBitmap:
		b, err := decodeBitmapPayload(br)
		if err != nil {
			return nil, err
		}
		return bitVecToList(b), nil
	default:
		return nil, fmt.Errorf("sparse: unknown vector payload kind %d", kind)
	}
}

// DecodeBitVecBinary parses an SPVB frame into bitmap format,
// validating the result; sparse and dense payloads are scattered into
// a fresh bitmap (last duplicate wins, as in BitVec.SetFrom).
func DecodeBitVecBinary(r io.Reader) (*BitVec, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	kind, err := vecFrameHeader(br)
	if err != nil {
		return nil, err
	}
	switch kind {
	case vecKindBitmap:
		return decodeBitmapPayload(br)
	case vecKindSparse:
		v, err := decodeSparsePayload(br)
		if err != nil {
			return nil, err
		}
		// The list decode is bounded by delivered bytes, but NewBitVec
		// materializes O(n) from the claimed dimension — a sparse frame
		// with nnz=0 backs that claim with no body bytes at all, so it
		// gets the same decode bound as the bitmap payload.
		if err := checkBitVecDim(int64(v.N)); err != nil {
			return nil, err
		}
		b := NewBitVec(v.N)
		b.SetFrom(v)
		return b, nil
	case vecKindDense:
		v, err := decodeDensePayload(br)
		if err != nil {
			return nil, err
		}
		if err := checkBitVecDim(int64(v.N)); err != nil {
			return nil, err
		}
		b := NewBitVec(v.N)
		b.SetFrom(v)
		return b, nil
	default:
		return nil, fmt.Errorf("sparse: unknown vector payload kind %d", kind)
	}
}

func decodeSparsePayload(br *bufio.Reader) (*SpVec, error) {
	n, err := readInt64(br)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading vector dimension: %w", err)
	}
	nnz, err := readInt64(br)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading vector nnz: %w", err)
	}
	sorted, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("sparse: reading vector flags: %w", err)
	}
	if n < 0 || n > maxWireDim || nnz < 0 {
		return nil, fmt.Errorf("sparse: implausible vector header n=%d nnz=%d", n, nnz)
	}
	v := &SpVec{N: Index(n), Sorted: sorted != 0}
	var buf [8]byte
	v.Ind, err = readChunked(make([]Index, 0, min(nnz, sliceChunk)), nnz, func() (Index, error) {
		_, e := io.ReadFull(br, buf[:4])
		return Index(binary.LittleEndian.Uint32(buf[:4])), e
	})
	if err != nil {
		return nil, fmt.Errorf("sparse: reading vector indices: %w", err)
	}
	v.Val, err = readChunked(make([]float64, 0, min(nnz, sliceChunk)), nnz, func() (float64, error) {
		_, e := io.ReadFull(br, buf[:8])
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[:8])), e
	})
	if err != nil {
		return nil, fmt.Errorf("sparse: reading vector values: %w", err)
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	return v, nil
}

func decodeDensePayload(br *bufio.Reader) (*SpVec, error) {
	n, err := readInt64(br)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading vector dimension: %w", err)
	}
	if n < 0 || n > maxWireDim {
		return nil, fmt.Errorf("sparse: implausible vector dimension %d", n)
	}
	v := NewSpVec(Index(n), 0)
	var buf [8]byte
	for i := int64(0); i < n; i++ {
		if _, err := io.ReadFull(br, buf[:8]); err != nil {
			return nil, fmt.Errorf("sparse: reading dense values: %w", err)
		}
		if x := math.Float64frombits(binary.LittleEndian.Uint64(buf[:8])); x != 0 {
			v.Append(Index(i), x)
		}
	}
	v.Sorted = true
	return v, nil
}

func decodeBitmapPayload(br *bufio.Reader) (*BitVec, error) {
	n, err := readInt64(br)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading bitmap dimension: %w", err)
	}
	nset, err := readInt64(br)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading bitmap count: %w", err)
	}
	hasVals, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("sparse: reading bitmap flags: %w", err)
	}
	if n < 0 || n > maxWireDim || nset < 0 || nset > n {
		return nil, fmt.Errorf("sparse: implausible bitmap header n=%d nset=%d", n, nset)
	}
	if err := checkBitVecDim(n); err != nil {
		return nil, err
	}
	nwords := (n + 63) / 64
	b := &BitVec{N: Index(n)}
	var buf [8]byte
	b.Words, err = readChunked(make([]uint64, 0, min(nwords, sliceChunk)), nwords, func() (uint64, error) {
		_, e := io.ReadFull(br, buf[:8])
		return binary.LittleEndian.Uint64(buf[:8]), e
	})
	if err != nil {
		return nil, fmt.Errorf("sparse: reading bitmap words: %w", err)
	}
	count := 0
	for wi, word := range b.Words {
		if wi == len(b.Words)-1 && n%64 != 0 {
			if word>>(uint(n)%64) != 0 {
				return nil, fmt.Errorf("sparse: bitmap has bits set beyond dimension %d", n)
			}
		}
		count += bits.OnesCount64(word)
	}
	if int64(count) != nset {
		return nil, fmt.Errorf("sparse: bitmap header claims %d set bits, words have %d", nset, count)
	}
	b.setCount(count)
	// The O(n) value array is sized from the header too, so allocate it
	// only now — after the stream actually delivered all n/64 words —
	// never on the strength of the header alone.
	b.Val = make([]float64, n)
	if hasVals != 0 {
		for wi, word := range b.Words {
			for word != 0 {
				bit := word & (-word)
				i := Index(wi<<6) + Index(bits.TrailingZeros64(bit))
				if _, err := io.ReadFull(br, buf[:8]); err != nil {
					return nil, fmt.Errorf("sparse: reading bitmap values: %w", err)
				}
				b.Val[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:8]))
				word &^= bit
			}
		}
	}
	return b, nil
}

// bitVecToList gathers a bitmap's set entries into a sorted list.
func bitVecToList(b *BitVec) *SpVec {
	v := NewSpVec(b.N, b.Count())
	for wi, word := range b.Words {
		for word != 0 {
			bit := word & (-word)
			i := Index(wi<<6) + Index(bits.TrailingZeros64(bit))
			v.Append(i, b.Val[i])
			word &^= bit
		}
	}
	v.Sorted = true
	return v
}

// vectorWire is the JSON form of a list vector — SpVec's exported
// fields verbatim, the shape requests already carry inline.
type vectorWire struct {
	N      Index     `json:"N"`
	Ind    []Index   `json:"Ind"`
	Val    []float64 `json:"Val"`
	Sorted bool      `json:"Sorted"`
}

// DecodeVectorJSON parses the JSON wire form of a list vector and
// validates the result.
func DecodeVectorJSON(r io.Reader) (*SpVec, error) {
	var w vectorWire
	if err := json.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("sparse: decoding vector JSON: %w", err)
	}
	v := &SpVec{N: w.N, Ind: w.Ind, Val: w.Val, Sorted: w.Sorted}
	if len(v.Val) != len(v.Ind) {
		return nil, fmt.Errorf("sparse: vector JSON has %d indices but %d values", len(v.Ind), len(v.Val))
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	return v, nil
}

// DecodeVector sniffs the encoding of r — the SPVB binary magic, a
// JSON object, or the "index value" text form ReadVector accepts — and
// decodes accordingly, mirroring DecodeMatrix: one entry point behind
// every vector-accepting path (CLI -vector files, program seeds), so
// callers need no format flag.
func DecodeVector(r io.Reader) (*SpVec, error) {
	br := bufio.NewReader(r)
	for {
		head, err := br.Peek(4)
		if err != nil && len(head) == 0 {
			return nil, fmt.Errorf("sparse: sniffing vector encoding: %w", err)
		}
		if len(head) > 0 && (head[0] == ' ' || head[0] == '\t' || head[0] == '\n' || head[0] == '\r') {
			br.ReadByte()
			continue
		}
		switch {
		case string(head) == vectorMagic:
			return DecodeVectorBinary(br)
		case head[0] == '{':
			return DecodeVectorJSON(br)
		default:
			return ReadVector(br)
		}
	}
}
