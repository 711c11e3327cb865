package spmspv

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Request is the wire form of one descriptor-driven multiply — the
// JSON contract the planned cmd/spmspv-serve network service speaks,
// usable today by any caller that wants to hand a whole multiply
// around as data. A request is a matrix reference, one input vector
// (X) or a batch (Xs), and the Desc; the semiring travels by name in
// the Desc because function values do not serialize.
//
// Exactly one of X and Xs must be set: X executes through Mult, Xs
// through MultBatch.
type Request struct {
	// Matrix names the matrix the request multiplies against — a
	// server-side identifier (the per-matrix engine cache key), unused
	// for in-process execution against an explicit Multiplier.
	Matrix string `json:"matrix,omitempty"`
	// X is the input vector of a single multiply.
	X *Vector `json:"x,omitempty"`
	// Xs is the input batch of a MultBatch request.
	Xs []*Vector `json:"xs,omitempty"`
	// Desc carries every capability switch, the output-representation
	// request and the semiring name.
	Desc Desc `json:"desc"`
}

// Response is the wire form of a multiply result: Y for single
// requests, Ys for batches, plus the representation the payload
// actually carries. A request whose descriptor asks for OutputBitmap
// is answered in the bitmap wire form (YBits / YsBits, the sparse
// ind/val encoding of BitVector) with OutputRep "bitmap"; every other
// request — OutputAuto included, since "richest native representation"
// is an in-process concept the wire cannot express more cheaply than
// the list — is answered in list form with OutputRep "list".
//
// Err carries a structured wire error (code + message) when the
// request failed, so clients distinguish validation failures from
// unknown matrices from server faults without parsing transport-level
// status text.
type Response struct {
	Y         *Vector      `json:"y,omitempty"`
	Ys        []*Vector    `json:"ys,omitempty"`
	YBits     *BitVector   `json:"y_bits,omitempty"`
	YsBits    []*BitVector `json:"ys_bits,omitempty"`
	OutputRep string       `json:"output_rep,omitempty"`
	Err       *WireError   `json:"error,omitempty"`
}

// WireError is the structured error form responses carry: a stable
// machine-readable code plus a human-readable message. It implements
// error, so the same value flows through in-process Store calls and
// HTTP round trips — algorithm code sees identical failures either
// way.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// The wire error codes.
const (
	// CodeBadRequest: the payload could not be decoded at all.
	CodeBadRequest = "bad_request"
	// CodeInvalidRequest: the payload decoded but failed validation
	// (Request.Validate, Program.Validate, dimension mismatches).
	CodeInvalidRequest = "invalid_request"
	// CodeUnknownMatrix: the named matrix is not registered.
	CodeUnknownMatrix = "unknown_matrix"
	// CodeUnknownProgram: the named stored program is not registered.
	CodeUnknownProgram = "unknown_program"
	// CodeNotAcceptable: the Accept header named no wire form the
	// server can produce (offer ContentTypeJSON or ContentTypeBinary).
	CodeNotAcceptable = "not_acceptable"
	// CodeInternal: the server failed executing a well-formed request.
	CodeInternal = "internal"
)

// Error implements the error interface.
func (e *WireError) Error() string { return e.Code + ": " + e.Message }

// wireErrorf builds a WireError with a formatted message.
func wireErrorf(code, format string, args ...any) *WireError {
	return &WireError{Code: code, Message: fmt.Sprintf(format, args...)}
}

// AsWireError coerces an error into its structured wire form: a
// *WireError passes through, anything else becomes CodeInternal.
func AsWireError(err error) *WireError {
	var we *WireError
	if errors.As(err, &we) {
		return we
	}
	return &WireError{Code: CodeInternal, Message: err.Error()}
}

// DecodeRequest parses a JSON-encoded Request.
func DecodeRequest(data []byte) (*Request, error) {
	var req Request
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("spmspv: decoding request: %w", err)
	}
	return &req, nil
}

// Validate checks the request against the multiplier-independent rules
// plus the dimensions of the matrix it will run against: nrows×ncols
// are op(A)'s dimensions BEFORE the descriptor's transpose is applied.
// It returns the first violation; a valid request cannot make Do (or
// Mult underneath it) panic.
func (r *Request) Validate(nrows, ncols Index) error {
	if err := r.Desc.Validate(); err != nil {
		return err
	}
	if (r.X == nil) == (r.Xs == nil) {
		return fmt.Errorf("spmspv: request must set exactly one of x and xs")
	}
	if r.X != nil && r.Desc.Masks != nil {
		return fmt.Errorf("spmspv: single request with per-slot masks (use desc.mask)")
	}
	if r.Xs != nil && r.Desc.Accum {
		// Batch accumulate has no native engine path (it would degrade
		// to a sequential slot loop), and over the wire the accumulator —
		// the output's prior contents — cannot ride along at all: the
		// server's outputs always start empty, so the combination is at
		// best a silent plain multiply. Programs are the server-side home
		// for accumulate loops: op outputs persist between ops.
		return fmt.Errorf("spmspv: batch request with desc.accumulate (accumulator state cannot ride the wire; use a program)")
	}
	if r.Desc.Semiring == "" {
		return fmt.Errorf("spmspv: request descriptor must name a semiring")
	}
	if _, ok := ParseSemiring(r.Desc.Semiring); !ok {
		return fmt.Errorf("spmspv: unknown semiring %q", r.Desc.Semiring)
	}
	inDim, outDim := ncols, nrows
	if r.Desc.Transpose {
		inDim, outDim = nrows, ncols
	}
	// label names what a failed check rejects: field, or field[q] for
	// slot q ≥ 0 of a batch. It is formatted only on failure, so a
	// request that passes allocates nothing per slot.
	label := func(field string, q int) string {
		if q < 0 {
			return field
		}
		return fmt.Sprintf("%s[%d]", field, q)
	}
	checkVec := func(x *Vector, field string, q int) error {
		if x == nil {
			return fmt.Errorf("spmspv: nil %s in request", label(field, q))
		}
		if x.N != inDim {
			return fmt.Errorf("spmspv: %s has dimension %d, want %d", label(field, q), x.N, inDim)
		}
		return x.Validate()
	}
	if r.X != nil {
		if err := checkVec(r.X, "x", -1); err != nil {
			return err
		}
	}
	for q, x := range r.Xs {
		if err := checkVec(x, "xs", q); err != nil {
			return err
		}
	}
	if r.Xs != nil && r.Desc.BatchWidth > 0 && r.Desc.BatchWidth != len(r.Xs) {
		return fmt.Errorf("spmspv: request has %d inputs but batch_width %d", len(r.Xs), r.Desc.BatchWidth)
	}
	if r.Xs != nil && r.Desc.Masks != nil && len(r.Desc.Masks) != len(r.Xs) {
		return fmt.Errorf("spmspv: request has %d inputs but %d masks", len(r.Xs), len(r.Desc.Masks))
	}
	checkMask := func(mk *BitVector, field string, q int) error {
		if mk != nil && mk.N < outDim {
			return fmt.Errorf("spmspv: %s has dimension %d, want ≥ %d", label(field, q), mk.N, outDim)
		}
		return nil
	}
	if err := checkMask(r.Desc.Mask, "mask", -1); err != nil {
		return err
	}
	for q, mk := range r.Desc.Masks {
		if err := checkMask(mk, "masks", q); err != nil {
			return err
		}
	}
	return nil
}

// Do executes a wire request against this multiplier and returns the
// response — the in-process form of what cmd/spmspv-serve will do per
// connection. The request is validated first, so malformed requests
// come back as errors rather than panics; Request.Matrix is ignored
// (the caller already resolved it to this multiplier).
func (m *Multiplier) Do(req *Request) (*Response, error) {
	if req == nil {
		return nil, fmt.Errorf("spmspv: nil request")
	}
	if err := req.Validate(m.a.NumRows, m.a.NumCols); err != nil {
		return nil, err
	}
	outDim := m.a.NumRows
	if req.Desc.Transpose {
		outDim = m.a.NumCols
	}
	// The response serializes the representation the descriptor asked
	// for: OutputBitmap ships the bitmap wire form, everything else the
	// list — honoring "auto" with a bitmap would build one the encoder
	// immediately discards.
	d := req.Desc
	wantBits := d.Output == OutputBitmap
	if !wantBits {
		d.Output = OutputList
	}
	resp := &Response{OutputRep: d.Output.String()}
	if req.X != nil {
		xf := m.wrapInput(req.X, req.Desc.Transpose)
		yf := NewOutputFrontier(outDim)
		m.Mult(xf, yf, Semiring{}, d)
		xf.Release()
		if wantBits {
			resp.YBits = yf.Bits()
		} else {
			resp.Y = yf.List()
		}
		return resp, nil
	}
	xs := make([]*Frontier, len(req.Xs))
	ys := make([]*Frontier, len(req.Xs))
	for q, x := range req.Xs {
		xs[q] = m.wrapInput(x, req.Desc.Transpose)
		ys[q] = NewOutputFrontier(outDim)
	}
	m.MultBatch(xs, ys, Semiring{}, d)
	for _, xf := range xs {
		xf.Release()
	}
	if wantBits {
		resp.YsBits = make([]*BitVector, len(ys))
		for q, yf := range ys {
			resp.YsBits[q] = yf.Bits()
		}
	} else {
		resp.Ys = make([]*Vector, len(ys))
		for q, yf := range ys {
			resp.Ys[q] = yf.List()
		}
	}
	return resp, nil
}
