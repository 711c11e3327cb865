package spmspv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"spmspv/internal/sparse"
)

// Binary wire envelopes — the serving path's answer to the JSON tax.
// Profiling attributes ~40% of per-request serving cost to JSON
// encode/decode of the response payload (strconv's ryu float
// formatting), a per-request cost that coalescing cannot
// amortize. The envelope keeps the cheap-but-structured part of a
// message — the matrix name, the descriptor, op lists, error codes —
// as a small JSON header, and moves every vector payload into framed
// SPVB sections (internal/sparse/vecwire.go): raw little-endian words,
// encoded by memory copy, with bitmap payloads riding as raw uint64
// words so a support-only bitmap response never touches floats at all.
//
// Envelope layout (little-endian):
//
//	magic[4]  "SPRQ" | "SPRS" | "SPPG" | "SPPR"
//	version   uint32
//	headerLen uint32, then headerLen bytes of JSON (the message with
//	          its vector fields nulled)
//	nsections uint32
//	sections: role uint8, idx uint32, present uint8,
//	          then (if present) one SPVB frame
//
// Sections for slice-valued fields (xs, masks, ys, ...) appear in
// index order with contiguous idx, so the decoder rebuilds the slice —
// including nil slots (present=0), which per-slot masks legitimately
// contain — at its exact original length. Content negotiation
// (Accept / Content-Type on /v1/mult and /v1/program) picks between
// this form and JSON per message; see Server and Client.

// The wire content types the serving endpoints negotiate between.
// JSON remains the default for clients that express no preference.
const (
	// ContentTypeJSON is the JSON wire form's content type.
	ContentTypeJSON = "application/json"
	// ContentTypeBinary is the binary envelope's content type, offered
	// in Accept and Content-Type headers on /v1/mult and /v1/program.
	ContentTypeBinary = "application/x-spmspv-binary"
)

// The envelope magics, one per message type, so a body is
// self-identifying even without its Content-Type header (the server
// sniffs exactly like sparse.DecodeMatrix).
const (
	requestMagic      = "SPRQ"
	responseMagic     = "SPRS"
	programMagic      = "SPPG"
	programRespMagic  = "SPPR"
	invokeMagic       = "SPIV"
	envelopeVersion   = 1
	maxEnvelopeHeader = 1 << 26 // vectors ride in sections; a JSON header beyond 64 MiB is hostile
)

// Section roles: which field of the enclosing message a section's
// vector belongs to.
const (
	secX       = uint8(0)  // Request.X
	secXs      = uint8(1)  // Request.Xs[idx]
	secMask    = uint8(2)  // Desc.Mask
	secMasks   = uint8(3)  // Desc.Masks[idx]
	secY       = uint8(4)  // Response.Y
	secYs      = uint8(5)  // Response.Ys[idx]
	secYBits   = uint8(6)  // Response.YBits
	secYsBits  = uint8(7)  // Response.YsBits[idx]
	secOpX     = uint8(8)  // Program.Ops[idx].X
	secOpMask  = uint8(9)  // Program.Ops[idx].Desc.Mask
	secResultY = uint8(10) // ProgramResponse.Results[idx].Y
	secArgX    = uint8(11) // InvokeRequest.Args, idx = rank in sorted-name order
)

// wireSection is one vector payload awaiting encode. Exactly one of
// vec and bits is set; both nil encodes an explicit nil slot.
type wireSection struct {
	role uint8
	idx  uint32
	vec  *Vector
	bits *BitVector
}

// headerBufPool recycles the scratch buffers envelope encode uses for
// the JSON header (whose length must precede it on the wire), and that
// the server marshals a JSON reply into before committing its status.
var headerBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getHeaderBuf() *bytes.Buffer {
	b := headerBufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putHeaderBuf(b *bytes.Buffer) { headerBufPool.Put(b) }

// SetMaxBitmapDim bounds the dimension the wire decoders (binary and
// JSON alike) will materialize a bitmap payload — a request mask, a
// bitmap output — for. Bitmap decode allocates O(n) storage from a
// header-claimed dimension, so the bound is what keeps a tiny hostile
// request from forcing a huge allocation; the default
// (sparse.DefaultMaxBitVecDim, 1<<27 entries) matches the server's
// default 1 GiB body cap. Values ≤ 0 restore the default.
func SetMaxBitmapDim(n int64) { sparse.SetMaxBitVecDim(n) }

// encodeEnvelope streams one envelope: magic, version, JSON header,
// then the sections as SPVB frames, through one pooled buffered
// writer — no intermediate per-message []byte.
func encodeEnvelope(w io.Writer, magic string, header any, secs []wireSection) error {
	hb := getHeaderBuf()
	defer putHeaderBuf(hb)
	if err := json.NewEncoder(hb).Encode(header); err != nil {
		return fmt.Errorf("spmspv: encoding wire header: %w", err)
	}
	bw := sparse.BorrowEncWriter(w)
	err := func() error {
		if _, err := bw.WriteString(magic); err != nil {
			return err
		}
		var buf [8]byte
		binary.LittleEndian.PutUint32(buf[0:], envelopeVersion)
		binary.LittleEndian.PutUint32(buf[4:], uint32(hb.Len()))
		if _, err := bw.Write(buf[:8]); err != nil {
			return err
		}
		if _, err := bw.Write(hb.Bytes()); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(buf[0:], uint32(len(secs)))
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
		for _, s := range secs {
			buf[0] = s.role
			binary.LittleEndian.PutUint32(buf[1:], s.idx)
			present := s.vec != nil || s.bits != nil
			if present {
				buf[5] = 1
			} else {
				buf[5] = 0
			}
			if _, err := bw.Write(buf[:6]); err != nil {
				return err
			}
			switch {
			case s.vec != nil:
				if err := sparse.EncodeVectorFrame(bw, s.vec); err != nil {
					return err
				}
			case s.bits != nil:
				if err := sparse.EncodeBitVecFrame(bw, s.bits); err != nil {
					return err
				}
			}
		}
		return nil
	}()
	if err != nil {
		sparse.ReturnEncWriter(bw)
		return err
	}
	return sparse.ReturnEncWriter(bw)
}

// decodeEnvelope reads one envelope: the header JSON is unmarshaled
// into header, then attach is called once per section with the
// decoded payload (vec OR bits per the role's natural type; both nil
// for an explicit nil slot).
func decodeEnvelope(r io.Reader, magic string, header any, attach func(role uint8, idx uint32, vec *Vector, bits *BitVector) error) error {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var head [4]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return fmt.Errorf("spmspv: reading wire magic: %w", err)
	}
	if string(head[:]) != magic {
		return fmt.Errorf("spmspv: bad wire magic %q (want %s)", head[:], magic)
	}
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:8]); err != nil {
		return fmt.Errorf("spmspv: reading wire header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(buf[0:]); v != envelopeVersion {
		return fmt.Errorf("spmspv: unsupported wire version %d", v)
	}
	headerLen := int64(binary.LittleEndian.Uint32(buf[4:]))
	if headerLen > maxEnvelopeHeader {
		return fmt.Errorf("spmspv: implausible wire header length %d", headerLen)
	}
	hb := getHeaderBuf()
	defer putHeaderBuf(hb)
	// CopyN grows the buffer only as bytes actually arrive, so a
	// hostile length claim errors out instead of allocating up front.
	if _, err := io.CopyN(hb, br, headerLen); err != nil {
		return fmt.Errorf("spmspv: reading wire header: %w", err)
	}
	if err := json.Unmarshal(hb.Bytes(), header); err != nil {
		return fmt.Errorf("spmspv: decoding wire header: %w", err)
	}
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return fmt.Errorf("spmspv: reading section count: %w", err)
	}
	nsec := binary.LittleEndian.Uint32(buf[:4])
	for s := uint32(0); s < nsec; s++ {
		if _, err := io.ReadFull(br, buf[:6]); err != nil {
			return fmt.Errorf("spmspv: reading section %d: %w", s, err)
		}
		role := buf[0]
		idx := binary.LittleEndian.Uint32(buf[1:5])
		present := buf[5] != 0
		var vec *Vector
		var bits *BitVector
		if present {
			var err error
			if roleIsBitmap(role) {
				bits, err = sparse.DecodeBitVecBinary(br)
			} else {
				vec, err = sparse.DecodeVectorBinary(br)
			}
			if err != nil {
				return fmt.Errorf("spmspv: decoding section %d (role %d): %w", s, role, err)
			}
		}
		if err := attach(role, idx, vec, bits); err != nil {
			return err
		}
	}
	return nil
}

// roleIsBitmap reports whether a role's payload is bitmap-typed
// (masks and bitmap outputs) rather than list-typed.
func roleIsBitmap(role uint8) bool {
	switch role {
	case secMask, secMasks, secYBits, secYsBits, secOpMask:
		return true
	}
	return false
}

// appendSlot enforces the in-order, contiguous-idx contract for
// slice-valued roles and appends v (possibly nil) to the slice.
func appendSlot[T any](slice []T, idx uint32, v T, what string) ([]T, error) {
	if int(idx) != len(slice) {
		return nil, fmt.Errorf("spmspv: %s section idx %d out of order (have %d)", what, idx, len(slice))
	}
	return append(slice, v), nil
}

// EncodeRequestBinary writes req as the binary envelope: the request
// minus its vectors as the JSON header, X/Xs/mask payloads as SPVB
// sections.
func EncodeRequestBinary(w io.Writer, req *Request) error {
	if req == nil {
		return fmt.Errorf("spmspv: encoding nil request")
	}
	hdr := *req
	hdr.X, hdr.Xs = nil, nil
	hdr.Desc.Mask, hdr.Desc.Masks = nil, nil
	var secs []wireSection
	if req.X != nil {
		secs = append(secs, wireSection{role: secX, vec: req.X})
	}
	for i, x := range req.Xs {
		secs = append(secs, wireSection{role: secXs, idx: uint32(i), vec: x})
	}
	if req.Desc.Mask != nil {
		secs = append(secs, wireSection{role: secMask, bits: req.Desc.Mask})
	}
	for i, m := range req.Desc.Masks {
		secs = append(secs, wireSection{role: secMasks, idx: uint32(i), bits: m})
	}
	return encodeEnvelope(w, requestMagic, &hdr, secs)
}

// DecodeRequestBinary parses a binary-envelope request.
func DecodeRequestBinary(r io.Reader) (*Request, error) {
	var req Request
	err := decodeEnvelope(r, requestMagic, &req, func(role uint8, idx uint32, vec *Vector, bits *BitVector) error {
		var err error
		switch role {
		case secX:
			req.X = vec
		case secXs:
			req.Xs, err = appendSlot(req.Xs, idx, vec, "xs")
		case secMask:
			req.Desc.Mask = bits
		case secMasks:
			req.Desc.Masks, err = appendSlot(req.Desc.Masks, idx, bits, "masks")
		default:
			err = fmt.Errorf("spmspv: unexpected section role %d in request", role)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return &req, nil
}

// EncodeResponseBinary writes resp as the binary envelope. This is the
// hot serving write: the Y/Ys payloads ride as raw SPVB frames and a
// bitmap response (YBits/YsBits) as raw words, so the per-request
// float-formatting cost of the JSON form disappears entirely.
func EncodeResponseBinary(w io.Writer, resp *Response) error {
	if resp == nil {
		return fmt.Errorf("spmspv: encoding nil response")
	}
	hdr := *resp
	hdr.Y, hdr.Ys, hdr.YBits, hdr.YsBits = nil, nil, nil, nil
	var secs []wireSection
	if resp.Y != nil {
		secs = append(secs, wireSection{role: secY, vec: resp.Y})
	}
	for i, y := range resp.Ys {
		secs = append(secs, wireSection{role: secYs, idx: uint32(i), vec: y})
	}
	if resp.YBits != nil {
		secs = append(secs, wireSection{role: secYBits, bits: resp.YBits})
	}
	for i, b := range resp.YsBits {
		secs = append(secs, wireSection{role: secYsBits, idx: uint32(i), bits: b})
	}
	return encodeEnvelope(w, responseMagic, &hdr, secs)
}

// DecodeResponseBinary parses a binary-envelope response.
func DecodeResponseBinary(r io.Reader) (*Response, error) {
	var resp Response
	err := decodeEnvelope(r, responseMagic, &resp, func(role uint8, idx uint32, vec *Vector, bits *BitVector) error {
		var err error
		switch role {
		case secY:
			resp.Y = vec
		case secYs:
			resp.Ys, err = appendSlot(resp.Ys, idx, vec, "ys")
		case secYBits:
			resp.YBits = bits
		case secYsBits:
			resp.YsBits, err = appendSlot(resp.YsBits, idx, bits, "ys_bits")
		default:
			err = fmt.Errorf("spmspv: unexpected section role %d in response", role)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// EncodeProgramBinary writes p as the binary envelope: the op list
// (refs, descriptors, flags) stays JSON, while every op's literal
// input vector and literal mask ride as SPVB sections keyed by op
// index — so a multi-op payload (a seeded walk, an unrolled BFS)
// ships its frontiers binary exactly like a single request.
func EncodeProgramBinary(w io.Writer, p *Program) error {
	if p == nil {
		return fmt.Errorf("spmspv: encoding nil program")
	}
	hdr := *p
	hdr.Ops = make([]ProgramOp, len(p.Ops))
	copy(hdr.Ops, p.Ops)
	var secs []wireSection
	for k := range hdr.Ops {
		if x := hdr.Ops[k].X; x != nil {
			secs = append(secs, wireSection{role: secOpX, idx: uint32(k), vec: x})
			hdr.Ops[k].X = nil
		}
		if m := hdr.Ops[k].Desc.Mask; m != nil {
			secs = append(secs, wireSection{role: secOpMask, idx: uint32(k), bits: m})
			hdr.Ops[k].Desc.Mask = nil
		}
	}
	return encodeEnvelope(w, programMagic, &hdr, secs)
}

// DecodeProgramBinary parses a binary-envelope program.
func DecodeProgramBinary(r io.Reader) (*Program, error) {
	var p Program
	err := decodeEnvelope(r, programMagic, &p, func(role uint8, idx uint32, vec *Vector, bits *BitVector) error {
		if int(idx) >= len(p.Ops) {
			return fmt.Errorf("spmspv: section for op %d but program has %d ops", idx, len(p.Ops))
		}
		switch role {
		case secOpX:
			p.Ops[idx].X = vec
		case secOpMask:
			p.Ops[idx].Desc.Mask = bits
		default:
			return fmt.Errorf("spmspv: unexpected section role %d in program", role)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// EncodeInvokeRequestBinary writes inv as the binary envelope: the
// matrix override, scalar bindings and argument NAMES stay in the JSON
// header (each arg's value nulled), and the argument vectors ride as
// SPVB sections whose idx is the argument name's rank in sorted order —
// the header itself declares how many sections are legitimate, so a
// hostile section count cannot claim storage the bindings didn't.
func EncodeInvokeRequestBinary(w io.Writer, inv *InvokeRequest) error {
	if inv == nil {
		return fmt.Errorf("spmspv: encoding nil invoke request")
	}
	hdr := *inv
	var secs []wireSection
	if len(inv.Args) > 0 {
		names := make([]string, 0, len(inv.Args))
		for name := range inv.Args {
			names = append(names, name)
		}
		sort.Strings(names)
		hdr.Args = make(map[string]*Vector, len(names))
		for i, name := range names {
			hdr.Args[name] = nil
			secs = append(secs, wireSection{role: secArgX, idx: uint32(i), vec: inv.Args[name]})
		}
	}
	return encodeEnvelope(w, invokeMagic, &hdr, secs)
}

// DecodeInvokeRequestBinary parses a binary-envelope invoke request.
func DecodeInvokeRequestBinary(r io.Reader) (*InvokeRequest, error) {
	var inv InvokeRequest
	var names []string
	err := decodeEnvelope(r, invokeMagic, &inv, func(role uint8, idx uint32, vec *Vector, bits *BitVector) error {
		if role != secArgX {
			return fmt.Errorf("spmspv: unexpected section role %d in invoke request", role)
		}
		if names == nil {
			names = make([]string, 0, len(inv.Args))
			for name := range inv.Args {
				names = append(names, name)
			}
			sort.Strings(names)
		}
		if int(idx) >= len(names) {
			return fmt.Errorf("spmspv: section for arg %d but request binds %d args", idx, len(names))
		}
		inv.Args[names[idx]] = vec
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &inv, nil
}

// EncodeProgramResponseBinary writes resp as the binary envelope: the
// per-op metadata (op index, steps, error) stays JSON, each emitted
// "$k" ref output rides as an SPVB section keyed by its position in
// Results.
func EncodeProgramResponseBinary(w io.Writer, resp *ProgramResponse) error {
	if resp == nil {
		return fmt.Errorf("spmspv: encoding nil program response")
	}
	hdr := *resp
	hdr.Results = make([]ProgramResult, len(resp.Results))
	copy(hdr.Results, resp.Results)
	var secs []wireSection
	for k := range hdr.Results {
		if y := hdr.Results[k].Y; y != nil {
			secs = append(secs, wireSection{role: secResultY, idx: uint32(k), vec: y})
			hdr.Results[k].Y = nil
		}
	}
	return encodeEnvelope(w, programRespMagic, &hdr, secs)
}

// DecodeProgramResponseBinary parses a binary-envelope program
// response.
func DecodeProgramResponseBinary(r io.Reader) (*ProgramResponse, error) {
	var resp ProgramResponse
	err := decodeEnvelope(r, programRespMagic, &resp, func(role uint8, idx uint32, vec *Vector, bits *BitVector) error {
		if role != secResultY {
			return fmt.Errorf("spmspv: unexpected section role %d in program response", role)
		}
		if int(idx) >= len(resp.Results) {
			return fmt.Errorf("spmspv: section for result %d but response has %d results", idx, len(resp.Results))
		}
		resp.Results[idx].Y = vec
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &resp, nil
}
