package engine

import (
	"encoding/json"
	"fmt"

	"spmspv/internal/sparse"
)

// OutputMode is the output-representation request of a Desc: which
// representations of the result frontier a Mult call asks the engine to
// leave behind.
type OutputMode int

const (
	// OutputAuto (the default) asks for the richest representation the
	// engine emits natively: output-capable engines (bucket, GraphMat,
	// hybrid) populate list and bitmap in one pass, list-only engines
	// leave the bitmap lazy.
	OutputAuto OutputMode = iota
	// OutputList asks for the list only, even from a bitmap-capable
	// engine. Pipelines whose next step shrinks the output's support
	// (BFS's unvisited refine, components' improved-label filter) use
	// this — a natively emitted bitmap would be erased before any
	// consumer could read it.
	OutputList
	// OutputBitmap guarantees the bitmap is materialized on return:
	// natively when the engine can, otherwise by a counted list→bitmap
	// conversion. Consumers that immediately probe the bitmap (a
	// matrix-driven next hop) use this with list-only engines.
	OutputBitmap
)

// String names the mode as it appears on the wire.
func (o OutputMode) String() string {
	switch o {
	case OutputList:
		return "list"
	case OutputBitmap:
		return "bitmap"
	default:
		return "auto"
	}
}

// MarshalJSON encodes the mode as its wire name ("auto" is omitted by
// Desc's omitempty because OutputAuto is the zero value; it still
// round-trips as "auto" when written explicitly).
func (o OutputMode) MarshalJSON() ([]byte, error) {
	return json.Marshal(o.String())
}

// UnmarshalJSON accepts the wire names and, for robustness, the bare
// integers Go's default encoding would have produced.
func (o *OutputMode) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		var n int
		if err2 := json.Unmarshal(b, &n); err2 != nil {
			return fmt.Errorf("engine: bad OutputMode %s", b)
		}
		if n < int(OutputAuto) || n > int(OutputBitmap) {
			return fmt.Errorf("engine: OutputMode %d out of range", n)
		}
		*o = OutputMode(n)
		return nil
	}
	switch s {
	case "", "auto":
		*o = OutputAuto
	case "list":
		*o = OutputList
	case "bitmap":
		*o = OutputBitmap
	default:
		return fmt.Errorf("engine: unknown OutputMode %q", s)
	}
	return nil
}

// Desc is the GraphBLAS-style descriptor that parameterizes the single
// Mult/MultBatch entry point — the CombBLAS/GraphBLAS shape in which
// one primitive replaces a method per capability. Every field is
// JSON-serializable, so a Desc doubles as the wire contract of a
// network multiply request: everything the paper's extensions added
// (§V masking, §II-A left multiplication, frontier outputs, batching)
// is a field here instead of a method there.
//
// The zero Desc is a plain multiply: unmasked, overwrite, A (not Aᵀ),
// richest native output representation.
type Desc struct {
	// Mask, when non-nil, is the output mask: only rows the mask admits
	// survive the multiply, and every registered engine pushes the test
	// into its merge/accumulate step (paper §V).
	Mask *sparse.BitVec `json:"mask,omitempty"`
	// Masks, when non-nil, carries one output mask per batch slot for
	// MultBatch (len must equal the batch width; nil slots run
	// unmasked). Single Mult calls must use Mask. When both are set,
	// Masks wins for batches.
	Masks []*sparse.BitVec `json:"masks,omitempty"`
	// Complement inverts the mask test: rows present in the mask are
	// the ones dropped (BFS's "not yet visited" filter).
	Complement bool `json:"complement,omitempty"`
	// Accum switches the output from overwrite to accumulate:
	// y ← y ⊕ (A·x) where ⊕ is the semiring's Add — the GraphBLAS
	// accumulate pattern with the output's prior contents as the
	// accumulator. Accumulated outputs are list-form (the union
	// invalidates any native bitmap).
	Accum bool `json:"accumulate,omitempty"`
	// Transpose multiplies by Aᵀ instead of A, which is the row-vector
	// "left multiplication" yᵀ ← xᵀ·A of paper §II-A. The facade builds
	// and caches the transpose engine on first use.
	Transpose bool `json:"transpose,omitempty"`
	// Output selects the requested output representation (see
	// OutputMode). On the wire this also selects the Response payload:
	// OutputBitmap makes Multiplier.Do answer with the bitmap wire form
	// (Response.YBits / YsBits) and OutputRep "bitmap"; OutputAuto and
	// OutputList both serialize the list form — auto's "richest native
	// representation" is an in-process concept, and building a bitmap
	// the encoder would discard helps no one.
	Output OutputMode `json:"output,omitempty"`
	// BatchWidth, when positive, declares the batch width of a
	// MultBatch request — wire requests state it so servers can
	// validate and size before touching the payload. MultBatch checks
	// it against len(xs) when set; single Mult calls leave it zero.
	BatchWidth int `json:"batch_width,omitempty"`
	// Semiring optionally names the semiring by its registered name
	// ("arithmetic", "minplus", "bfs", ...; see semiring.ByName). Wire
	// requests must use it — function values don't serialize. In-process
	// callers passing a Semiring value may leave it empty; a non-zero
	// explicit Semiring argument always wins.
	Semiring string `json:"semiring,omitempty"`
}

// Validate checks the descriptor's internal consistency — the checks a
// network server runs on a decoded request before touching the payload.
// It does not (cannot) check agreement with call arguments; Mult and
// MultBatch enforce those at the call.
func (d Desc) Validate() error {
	if d.Complement && d.Mask == nil && d.Masks == nil {
		return fmt.Errorf("engine: Desc.Complement set without a mask")
	}
	if d.Output < OutputAuto || d.Output > OutputBitmap {
		return fmt.Errorf("engine: Desc.Output %d out of range", int(d.Output))
	}
	if d.BatchWidth < 0 {
		return fmt.Errorf("engine: negative Desc.BatchWidth %d", d.BatchWidth)
	}
	if d.Masks != nil && d.BatchWidth > 0 && len(d.Masks) != d.BatchWidth {
		return fmt.Errorf("engine: Desc.Masks has %d entries but BatchWidth is %d", len(d.Masks), d.BatchWidth)
	}
	if d.Mask != nil {
		for _, mk := range d.Masks {
			if mk != nil && mk != d.Mask {
				return fmt.Errorf("engine: Desc.Mask and Desc.Masks both set with different masks")
			}
		}
	}
	return nil
}

// batchMasks resolves the per-slot masks of a width-k batch call: Masks
// when given, otherwise Mask replicated, otherwise nil (unmasked).
func (d Desc) batchMasks(k int) []*sparse.BitVec {
	if d.Masks != nil {
		return d.Masks
	}
	if d.Mask == nil {
		return nil
	}
	masks := make([]*sparse.BitVec, k)
	for q := range masks {
		masks[q] = d.Mask
	}
	return masks
}
