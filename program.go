package spmspv

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"spmspv/internal/dataflow"
)

// Executor is the transport-agnostic serving surface: the same
// Do/Run pair is implemented by the in-process Store, and by Client
// over HTTP — so algorithm code written against an Executor (see
// ProgramBFS) runs unchanged locally or remotely, and errors surface
// as the same *WireError values either way.
type Executor interface {
	// Do executes one multiply request.
	Do(req *Request) (*Response, error)
	// Run executes a multi-op program.
	Run(p *Program) (*ProgramResponse, error)
}

// Program is the multi-op wire contract: a dataflow program whose ops'
// inputs may reference prior ops' outputs ("$0"-style refs), so an
// iterative kernel — a BFS level loop, a k-step random walk, a PageRank
// power iteration — runs server-side without shipping frontiers back
// and forth. Intermediate results live on the server as Frontiers
// (list + lazily shared bitmap), so a mask_ref consumes the producing
// op's bitmap exactly as an in-process pipeline would; reduce ops
// produce scalar registers consumed by alpha_ref parameters.
//
// Control flow is the loop op: a bounded sub-op-list with loop-carried
// values and until_empty/until_below exits, so deep searches are
// constant-size programs instead of worst-case unrolls. Execution of
// the top level is sequential and stops early when StopOnEmpty is set
// and a mult op produces an empty vector — the legacy unrolled-loop
// termination test.
//
// A program may also be registered as a stored procedure
// (PUT /v1/programs/{name}): input ops with a param name and alpha_ref
// fields naming scalar bindings are then bound per invoke, with only
// the seed vectors and scalars on the wire.
type Program struct {
	// Matrix names the default matrix mult ops run against; an op's own
	// Matrix field overrides it, and an invoke may override the default.
	Matrix string `json:"matrix,omitempty"`
	// Ops is the top-level op list; op k's output is "$k".
	Ops []ProgramOp `json:"ops"`
	// StopOnEmpty halts execution after a top-level mult op whose output
	// has no entries; the response reports how many ops executed.
	// (Inside a loop, use the until_empty exit instead.)
	StopOnEmpty bool `json:"stop_on_empty,omitempty"`
}

// ProgramOp is one step of a Program. Op selects the kind:
//
//   - "mult" (the default, also implied by ""): y ← ⟨op(A)·x, mask⟩
//     per Desc, exactly one multiply request's worth of work. The
//     input is X (literal) or XRef; MaskRef may name a prior op whose
//     output's support becomes Desc.Mask.
//   - "input": introduces a vector as this op's output — a literal X,
//     or an invoke-time argument named by Param (stored procedures).
//   - "indices": y(i) = i for every i in the input's support — the BFS
//     "frontier values become the vertices' own ids" step.
//   - "union": the element-wise union of XRef and YRef (values added
//     where both present) — visited-set maintenance, rank accumulation.
//   - "scale": y ← α·x.
//   - "axpy": y ← α·x + z, with XRef as x and YRef as z.
//   - "ewise_mult": the element-wise intersection of XRef and YRef,
//     combined with Desc.Semiring's multiply (arithmetic × when unset).
//   - "reduce": folds XRef to a scalar register per Reduce ("sum",
//     "max", "nnz"); the output is a scalar, consumable by alpha_ref.
//   - "prune": keeps the entries of XRef with |value| > α — the
//     convergence filter of data-driven iterations.
//   - "loop": runs Body up to MaxIters times with loop-carried values
//     (see the loop fields below).
//
// References: "$k" names op k of the CURRENT scope (the top level, or
// the surrounding loop body) and must point strictly backwards; "^i"
// names loop-carry slot i of the innermost enclosing loop. A loop
// body's ops see only earlier body ops and the carries — outer values
// enter a loop exclusively through Carry.
type ProgramOp struct {
	// Op is the op kind (see above); "" means "mult".
	Op string `json:"op,omitempty"`
	// Matrix overrides the program's default matrix (mult only).
	Matrix string `json:"matrix,omitempty"`
	// X is a literal input vector (input ops; mult ops without XRef).
	X *Vector `json:"x,omitempty"`
	// Param names an invoke-time vector argument bound to this input op
	// (stored procedures); mutually exclusive with a literal X.
	Param string `json:"param,omitempty"`
	// XRef names a prior op's output ("$3") or a loop carry ("^0") as
	// the input.
	XRef string `json:"x_ref,omitempty"`
	// YRef names the second operand of union/axpy/ewise_mult ops.
	YRef string `json:"y_ref,omitempty"`
	// MaskRef names a prior op whose output's support is the output
	// mask of this mult (polarity from Desc.Complement). Mutually
	// exclusive with a literal Desc.Mask.
	MaskRef string `json:"mask_ref,omitempty"`
	// Desc parameterizes a mult op exactly as in a Request; wire rules
	// apply (the semiring travels by name). For ewise_mult only the
	// semiring is consulted.
	Desc Desc `json:"desc"`
	// Alpha is the literal scalar parameter of scale/axpy/prune ops.
	Alpha *float64 `json:"alpha,omitempty"`
	// AlphaRef names the scalar parameter instead: a scalar op's output
	// ("$k"), a scalar loop carry ("^i"), or a bare name resolved from
	// the invoke's scalar bindings. Mutually exclusive with Alpha.
	AlphaRef string `json:"alpha_ref,omitempty"`
	// Reduce selects the reduce op's fold: "sum", "max" or "nnz".
	Reduce string `json:"reduce,omitempty"`
	// Emit returns this op's output in the response — per iteration for
	// ops inside a loop body, the final carry 0 for a loop op itself.
	// Ops without Emit compute server-side state only.
	Emit bool `json:"emit,omitempty"`

	// Body is the loop op's sub-op-list, a fresh "$k" scope.
	Body []ProgramOp `json:"body,omitempty"`
	// MaxIters bounds the loop (required, 1 ≤ MaxIters ≤ 1<<20).
	MaxIters int `json:"max_iters,omitempty"`
	// Carry initializes the loop-carried slots from refs of the
	// enclosing scope; inside Body, slot i reads as "^i". The loop op's
	// own output is slot 0 after the final iteration.
	Carry []string `json:"carry,omitempty"`
	// Update names the body refs rebinding each carry slot after every
	// iteration (len(Update) == len(Carry), types must match).
	Update []string `json:"update,omitempty"`
	// UntilEmpty names a body ref (vector): the loop exits after an
	// iteration leaving it empty.
	UntilEmpty string `json:"until_empty,omitempty"`
	// UntilBelow names a body ref (scalar): the loop exits after an
	// iteration leaving it below Threshold.
	UntilBelow string `json:"until_below,omitempty"`
	// Threshold is UntilBelow's exit bound.
	Threshold float64 `json:"threshold,omitempty"`
}

// ProgramResult is one emitted op output: a vector (Y) or a scalar
// register (Scalar). Results from inside a loop body carry the loop
// op's index in Op, the op's index within the body in BodyOp, and the
// 1-based iteration in Iter; top-level results leave Iter at 0.
type ProgramResult struct {
	// Op is the index of the (top-level) op that produced the result.
	Op int `json:"op"`
	// BodyOp locates the op inside the loop body when Iter > 0.
	BodyOp int `json:"body_op,omitempty"`
	// Iter is the 1-based loop iteration (0 for top-level results).
	Iter   int      `json:"iter,omitempty"`
	Y      *Vector  `json:"y,omitempty"`
	Scalar *float64 `json:"scalar,omitempty"`
}

// ProgramResponse is the wire form of a program's results: the emitted
// outputs in chronological order, plus how many top-level ops ran
// (less than len(Ops) when StopOnEmpty fired).
type ProgramResponse struct {
	Results []ProgramResult `json:"results,omitempty"`
	Steps   int             `json:"steps"`
	Err     *WireError      `json:"error,omitempty"`
}

// DecodeProgram parses a JSON-encoded Program.
func DecodeProgram(data []byte) (*Program, error) {
	var p Program
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("spmspv: decoding program: %w", err)
	}
	return &p, nil
}

// parseRef parses a "$k" op reference.
func parseRef(s string) (int, bool) {
	if len(s) < 2 || s[0] != '$' {
		return 0, false
	}
	k, err := strconv.Atoi(s[1:])
	if err != nil || k < 0 {
		return 0, false
	}
	return k, true
}

// parseCarry parses a "^i" loop-carry reference.
func parseCarry(s string) (int, bool) {
	if len(s) < 2 || s[0] != '^' {
		return 0, false
	}
	i, err := strconv.Atoi(s[1:])
	if err != nil || i < 0 {
		return 0, false
	}
	return i, true
}

// valKind is the compile-time type of one register.
type valKind uint8

const (
	valVector valKind = iota
	valScalar
)

func (v valKind) String() string {
	if v == valScalar {
		return "scalar"
	}
	return "vector"
}

// compScope is one lexical frame during compilation: the types of the
// ops compiled so far in this frame and of the enclosing loop's carry
// slots (nil at top level).
type compScope struct {
	kinds []valKind
	carry []valKind
}

// resolveRef resolves and type-checks one reference string against the
// scope: "$j" must name a strictly-earlier op of this frame, "^i" a
// carry slot of the innermost loop.
func (cs *compScope) resolveRef(s string, k int, what string, want valKind) (int, error) {
	if j, ok := parseRef(s); ok {
		if j >= k {
			return 0, fmt.Errorf("op %d: %s %q does not name an earlier op", k, what, s)
		}
		if cs.kinds[j] != want {
			return 0, fmt.Errorf("op %d: %s %q is a %s, want a %s", k, what, s, cs.kinds[j], want)
		}
		return j, nil
	}
	if i, ok := parseCarry(s); ok {
		if cs.carry == nil {
			return 0, fmt.Errorf("op %d: %s %q outside a loop body", k, what, s)
		}
		if i >= len(cs.carry) {
			return 0, fmt.Errorf("op %d: %s %q names carry slot %d of %d", k, what, s, i, len(cs.carry))
		}
		if cs.carry[i] != want {
			return 0, fmt.Errorf("op %d: %s %q is a %s, want a %s", k, what, s, cs.carry[i], want)
		}
		return dataflow.CarryRef(i), nil
	}
	return 0, fmt.Errorf("op %d: bad %s %q (want \"$k\" or \"^i\")", k, what, s)
}

// refKind reports a reference's type without requiring one.
func (cs *compScope) refKind(s string, k int, what string) (int, valKind, error) {
	if j, ok := parseRef(s); ok {
		if j >= k {
			return 0, 0, fmt.Errorf("op %d: %s %q does not name an earlier op", k, what, s)
		}
		return j, cs.kinds[j], nil
	}
	if i, ok := parseCarry(s); ok {
		if cs.carry == nil {
			return 0, 0, fmt.Errorf("op %d: %s %q outside a loop body", k, what, s)
		}
		if i >= len(cs.carry) {
			return 0, 0, fmt.Errorf("op %d: %s %q names carry slot %d of %d", k, what, s, i, len(cs.carry))
		}
		return dataflow.CarryRef(i), cs.carry[i], nil
	}
	return 0, 0, fmt.Errorf("op %d: bad %s %q (want \"$k\" or \"^i\")", k, what, s)
}

// maxParamName bounds invoke-time binding names.
const maxParamName = 64

func checkParamName(name, what string, k int) error {
	if name == "" || len(name) > maxParamName {
		return fmt.Errorf("op %d: %s name %q (want 1-%d bytes)", k, what, name, maxParamName)
	}
	if name[0] == '$' || name[0] == '^' {
		return fmt.Errorf("op %d: %s name %q may not start with %q", k, what, name, name[0])
	}
	return nil
}

// Validate checks the program's matrix-independent structure: known op
// kinds, refs that point strictly backwards and type-check (vector vs
// scalar), loop bounds and nesting depth, and the wire descriptor rules
// for every mult op. Dimension agreement with the named matrices is
// checked at execution, where the matrices are known. Validation IS
// compilation — a valid program lowers to the dataflow IR with no
// further checks — so a stored procedure pays it once at registration.
func (p *Program) Validate() error {
	_, err := compileProgram(p)
	return err
}

// compileProgram validates p and lowers it to the dataflow IR. Every
// structural property — ref scoping and typing, loop bounds, nesting
// depth, descriptor rules, literal-vector well-formedness — is checked
// here, before any execution state is allocated; Exec re-checks only
// what depends on runtime values. The caller decides whether the
// compilation is counted (ad-hoc runs and registrations are; Validate
// alone is not).
func compileProgram(p *Program) (*dataflow.Program, error) {
	if p == nil {
		return nil, fmt.Errorf("spmspv: nil program")
	}
	if len(p.Ops) == 0 {
		return nil, fmt.Errorf("spmspv: program with no ops")
	}
	ops, _, err := compileOps(p.Ops, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("spmspv: %w", err)
	}
	return &dataflow.Program{Matrix: p.Matrix, Ops: ops, StopOnEmpty: p.StopOnEmpty}, nil
}

// compileOps lowers one op list (the top level, or a loop body) inside
// the given scope frame, returning the instructions and their types.
func compileOps(ops []ProgramOp, carry []valKind, depth int) ([]dataflow.Instr, []valKind, error) {
	cs := &compScope{kinds: make([]valKind, 0, len(ops)), carry: carry}
	out := make([]dataflow.Instr, len(ops))
	for k := range ops {
		in, kind, err := compileOp(&ops[k], k, cs, depth)
		if err != nil {
			return nil, nil, err
		}
		out[k] = in
		cs.kinds = append(cs.kinds, kind)
	}
	return out, cs.kinds, nil
}

// compileOp lowers one op. k is its index in the current scope; depth
// is the loop-nesting depth (0 at top level).
func compileOp(op *ProgramOp, k int, cs *compScope, depth int) (dataflow.Instr, valKind, error) {
	in := dataflow.Instr{
		Matrix:     op.Matrix,
		XRef:       dataflow.RefNone,
		YRef:       dataflow.RefNone,
		MaskRef:    dataflow.RefNone,
		AlphaRef:   dataflow.RefNone,
		UntilEmpty: dataflow.RefNone,
		UntilBelow: dataflow.RefNone,
		Emit:       op.Emit,
	}
	fail := func(err error) (dataflow.Instr, valKind, error) { return in, valVector, err }
	if op.Emit && depth >= 2 {
		return fail(fmt.Errorf("op %d: emit inside a nested loop body (max emit depth 1)", k))
	}

	// alpha compiles the scalar parameter of scale/axpy/prune.
	alpha := func(kind string) error {
		if (op.Alpha == nil) == (op.AlphaRef == "") {
			return fmt.Errorf("op %d: %s needs exactly one of alpha and alpha_ref", k, kind)
		}
		if op.Alpha != nil {
			in.Alpha = *op.Alpha
			return nil
		}
		if _, dollar := parseRef(op.AlphaRef); dollar || op.AlphaRef[0] == '^' {
			r, err := cs.resolveRef(op.AlphaRef, k, "alpha_ref", valScalar)
			if err != nil {
				return err
			}
			in.AlphaRef = r
			return nil
		}
		if err := checkParamName(op.AlphaRef, "alpha_ref binding", k); err != nil {
			return err
		}
		in.AlphaParam = op.AlphaRef
		return nil
	}
	xref := func() error {
		if op.XRef == "" {
			return fmt.Errorf("op %d: %s needs x_ref", k, op.Op)
		}
		r, err := cs.resolveRef(op.XRef, k, "x_ref", valVector)
		in.XRef = r
		return err
	}
	yref := func() error {
		if op.YRef == "" {
			return fmt.Errorf("op %d: %s needs x_ref and y_ref", k, op.Op)
		}
		r, err := cs.resolveRef(op.YRef, k, "y_ref", valVector)
		in.YRef = r
		return err
	}

	switch op.Op {
	case "", "mult":
		in.Kind = dataflow.KMult
		if (op.X == nil) == (op.XRef == "") {
			return fail(fmt.Errorf("op %d: mult needs exactly one of x and x_ref", k))
		}
		if op.XRef != "" {
			r, err := cs.resolveRef(op.XRef, k, "x_ref", valVector)
			if err != nil {
				return fail(err)
			}
			in.XRef = r
		} else {
			in.X = op.X
		}
		if op.MaskRef != "" {
			if op.Desc.Mask != nil {
				return fail(fmt.Errorf("op %d: both mask_ref and desc.mask set", k))
			}
			r, err := cs.resolveRef(op.MaskRef, k, "mask_ref", valVector)
			if err != nil {
				return fail(err)
			}
			in.MaskRef = r
		}
		if op.Desc.Masks != nil {
			return fail(fmt.Errorf("op %d: per-slot masks in a program op (ops are single multiplies)", k))
		}
		if op.Desc.Accum {
			return fail(fmt.Errorf("op %d: desc.accumulate in a program op (accumulate with a union op instead)", k))
		}
		if op.Desc.Complement && op.Desc.Mask == nil && op.MaskRef == "" {
			return fail(fmt.Errorf("op %d: desc.complement without a mask", k))
		}
		if op.Desc.Semiring == "" {
			return fail(fmt.Errorf("op %d: mult must name a semiring", k))
		}
		if _, ok := ParseSemiring(op.Desc.Semiring); !ok {
			return fail(fmt.Errorf("op %d: unknown semiring %q", k, op.Desc.Semiring))
		}
		in.Desc = op.Desc
		return in, valVector, nil

	case "input":
		in.Kind = dataflow.KInput
		if (op.X == nil) == (op.Param == "") {
			if op.X == nil {
				return fail(fmt.Errorf("op %d: input without x", k))
			}
			return fail(fmt.Errorf("op %d: input with both x and param", k))
		}
		if op.X != nil {
			if err := op.X.Validate(); err != nil {
				return fail(fmt.Errorf("op %d: %w", k, err))
			}
			in.X = op.X
		} else {
			if err := checkParamName(op.Param, "input param", k); err != nil {
				return fail(err)
			}
			in.Param = op.Param
		}
		return in, valVector, nil

	case "indices":
		in.Kind = dataflow.KIndices
		if err := xref(); err != nil {
			return fail(err)
		}
		return in, valVector, nil

	case "union":
		in.Kind = dataflow.KUnion
		if op.XRef == "" || op.YRef == "" {
			return fail(fmt.Errorf("op %d: union needs x_ref and y_ref", k))
		}
		if err := xref(); err != nil {
			return fail(err)
		}
		if err := yref(); err != nil {
			return fail(err)
		}
		return in, valVector, nil

	case "scale":
		in.Kind = dataflow.KScale
		if err := xref(); err != nil {
			return fail(err)
		}
		if err := alpha("scale"); err != nil {
			return fail(err)
		}
		return in, valVector, nil

	case "axpy":
		in.Kind = dataflow.KAxpy
		if op.XRef == "" || op.YRef == "" {
			return fail(fmt.Errorf("op %d: axpy needs x_ref and y_ref", k))
		}
		if err := xref(); err != nil {
			return fail(err)
		}
		if err := yref(); err != nil {
			return fail(err)
		}
		if err := alpha("axpy"); err != nil {
			return fail(err)
		}
		return in, valVector, nil

	case "ewise_mult":
		in.Kind = dataflow.KEwiseMult
		if op.XRef == "" || op.YRef == "" {
			return fail(fmt.Errorf("op %d: ewise_mult needs x_ref and y_ref", k))
		}
		if err := xref(); err != nil {
			return fail(err)
		}
		if err := yref(); err != nil {
			return fail(err)
		}
		if op.Desc.Semiring != "" {
			sr, ok := ParseSemiring(op.Desc.Semiring)
			if !ok {
				return fail(fmt.Errorf("op %d: unknown semiring %q", k, op.Desc.Semiring))
			}
			in.Mul = sr.Mul
		}
		return in, valVector, nil

	case "reduce":
		in.Kind = dataflow.KReduce
		if err := xref(); err != nil {
			return fail(err)
		}
		switch op.Reduce {
		case "sum":
			in.Reduce = dataflow.ReduceSum
		case "max":
			in.Reduce = dataflow.ReduceMax
		case "nnz":
			in.Reduce = dataflow.ReduceNNZ
		default:
			return fail(fmt.Errorf("op %d: unknown reduce %q (want sum, max or nnz)", k, op.Reduce))
		}
		return in, valScalar, nil

	case "prune":
		in.Kind = dataflow.KPrune
		if err := xref(); err != nil {
			return fail(err)
		}
		if err := alpha("prune"); err != nil {
			return fail(err)
		}
		return in, valVector, nil

	case "loop":
		in.Kind = dataflow.KLoop
		if op.Emit && depth >= 1 {
			return fail(fmt.Errorf("op %d: emit on a loop inside a loop body (max emit depth 1)", k))
		}
		if depth+1 > dataflow.MaxLoopDepth {
			return fail(fmt.Errorf("op %d: loops nested deeper than %d", k, dataflow.MaxLoopDepth))
		}
		if len(op.Body) == 0 {
			return fail(fmt.Errorf("op %d: loop with an empty body", k))
		}
		if op.MaxIters < 1 || op.MaxIters > dataflow.MaxLoopIters {
			return fail(fmt.Errorf("op %d: loop max_iters %d outside [1, %d]", k, op.MaxIters, dataflow.MaxLoopIters))
		}
		if len(op.Carry) == 0 {
			return fail(fmt.Errorf("op %d: loop without carried values", k))
		}
		if len(op.Update) != len(op.Carry) {
			return fail(fmt.Errorf("op %d: loop carries %d values but updates %d", k, len(op.Carry), len(op.Update)))
		}
		carryKinds := make([]valKind, len(op.Carry))
		in.Carry = make([]int, len(op.Carry))
		for i, s := range op.Carry {
			r, kind, err := cs.refKind(s, k, fmt.Sprintf("carry[%d]", i))
			if err != nil {
				return fail(err)
			}
			in.Carry[i], carryKinds[i] = r, kind
		}
		body, bodyKinds, err := compileOps(op.Body, carryKinds, depth+1)
		if err != nil {
			return fail(fmt.Errorf("op %d body: %w", k, err))
		}
		in.Body = body
		in.MaxIters = op.MaxIters
		bodyScope := &compScope{kinds: bodyKinds, carry: carryKinds}
		n := len(op.Body)
		in.Update = make([]int, len(op.Update))
		for i, s := range op.Update {
			r, kind, err := bodyScope.refKind(s, n, fmt.Sprintf("update[%d]", i))
			if err != nil {
				return fail(fmt.Errorf("op %d: %w", k, err))
			}
			if kind != carryKinds[i] {
				return fail(fmt.Errorf("op %d: update[%d] %q is a %s but carry slot %d is a %s",
					k, i, s, kind, i, carryKinds[i]))
			}
			in.Update[i] = r
		}
		if op.UntilEmpty != "" {
			r, err := bodyScope.resolveRef(op.UntilEmpty, n, "until_empty", valVector)
			if err != nil {
				return fail(fmt.Errorf("op %d: %w", k, err))
			}
			in.UntilEmpty = r
		}
		if op.UntilBelow != "" {
			r, err := bodyScope.resolveRef(op.UntilBelow, n, "until_below", valScalar)
			if err != nil {
				return fail(fmt.Errorf("op %d: %w", k, err))
			}
			in.UntilBelow = r
			in.Threshold = op.Threshold
		}
		dataflow.PlanLoop(&in)
		return in, carryKinds[0], nil

	default:
		return fail(fmt.Errorf("op %d: unknown op kind %q", k, op.Op))
	}
}

// progMultFunc executes op k's multiply against the named matrix with
// the resolved input frontier and descriptor (mask refs already bound),
// returning the output frontier. It is the one step of program
// execution that differs between backends: the in-process Store runs
// the engine directly; the ShardedStore scatters the op across its
// shards and gathers the concatenated result.
type progMultFunc func(k int, matrix string, xf *Frontier, d Desc) (*Frontier, error)

// runProgramOps is the ad-hoc program entry shared by every backend:
// compile (counted — POST /v1/program pays a compilation per call,
// which is what invoking a stored procedure by name avoids), then
// execute with no invoke bindings.
func runProgramOps(p *Program, mult progMultFunc) (*ProgramResponse, error) {
	if p == nil {
		return nil, wireErrorf(CodeBadRequest, "nil program")
	}
	cp, err := compileProgram(p)
	if err != nil {
		return nil, wireErrorf(CodeInvalidRequest, "%v", err)
	}
	dataflow.CountCompilation()
	return execCompiled(cp, nil, mult)
}

// execCompiled executes a compiled program under the given invoke
// bindings (nil for ad-hoc runs) and folds the dataflow result into the
// wire response. Multiply errors pass through as their original
// *WireError; interpreter errors (dimension disagreement, unbound
// parameters) and an emitted scalar that is NaN or ±Inf surface as
// invalid_request. Scalars that are not emitted (loop exits, alpha_ref
// operands) may take any value.
func execCompiled(cp *dataflow.Program, inv *InvokeRequest, mult progMultFunc) (*ProgramResponse, error) {
	env := dataflow.Env{Mult: dataflow.MultFunc(mult)}
	if inv != nil {
		env.Args = inv.Args
		env.Scalars = inv.Scalars
		env.Matrix = inv.Matrix
	}
	res, err := cp.Exec(env)
	if err != nil {
		var we *WireError
		if errors.As(err, &we) {
			return nil, we
		}
		return nil, wireErrorf(CodeInvalidRequest, "%v", err)
	}
	resp := &ProgramResponse{Steps: res.Steps}
	if len(res.Emits) > 0 {
		resp.Results = make([]ProgramResult, len(res.Emits))
		for q, em := range res.Emits {
			r := ProgramResult{Op: em.Op}
			if em.Iter > 0 {
				r.BodyOp, r.Iter = em.BodyOp, em.Iter
			}
			if em.V.IsScalar {
				s := em.V.S
				if math.IsNaN(s) || math.IsInf(s, 0) {
					// Neither wire form can carry it: JSON has no
					// literal for it, and the binary envelope's header
					// is JSON too.
					return nil, wireErrorf(CodeInvalidRequest, "%s emitted the non-finite scalar %v", emitSite(em), s)
				}
				r.Scalar = &s
			} else {
				r.Y = em.V.F.List()
			}
			resp.Results[q] = r
		}
	}
	return resp, nil
}

// emitSite names the op behind an emitted result for error messages.
func emitSite(em dataflow.Emit) string {
	if em.Iter > 0 {
		return fmt.Sprintf("op %d (body op %d, iteration %d)", em.Op, em.BodyOp, em.Iter)
	}
	return fmt.Sprintf("op %d", em.Op)
}

// progMult returns the Store's multiply hook: request-level validation
// pinned to the named matrix's dimensions, then the cached engine,
// writing into a pooled output frontier that the interpreter Releases
// once a loop leaves it dead.
func (st *Store) progMult() progMultFunc {
	return func(k int, name string, xf *Frontier, d Desc) (*Frontier, error) {
		mu, stats, err := st.load(name)
		if err != nil {
			return nil, err
		}
		a := mu.Matrix()
		// Request-level validation pinned to this matrix's
		// dimensions: a valid op cannot make Mult panic.
		r := &Request{X: xf.List(), Desc: d}
		if err := r.Validate(a.NumRows, a.NumCols); err != nil {
			stats.Observe(0, true)
			return nil, wireErrorf(CodeInvalidRequest, "op %d: %v", k, err)
		}
		yf := mu.getOutput(d.Transpose)
		t := time.Now()
		mu.Mult(xf, yf, Semiring{}, d)
		stats.Observe(time.Since(t), false)
		return yf, nil
	}
}

// Run executes a program against the store's matrices — the in-process
// form of POST /v1/program. Structural validation (= compilation) runs
// first; op outputs are kept server-side as frontiers between ops (so a
// mask_ref shares the producing op's bitmap), and only Emit'd outputs
// are copied into the response. Errors come back as *WireError.
func (st *Store) Run(p *Program) (*ProgramResponse, error) {
	return runProgramOps(p, st.progMult())
}

// ref formats an op reference.
func ref(k int) string { return "$" + strconv.Itoa(k) }

// carryRef formats a loop-carry reference.
func carryRef(i int) string { return "^" + strconv.Itoa(i) }
