// Package dataflow is the server-side dataflow IR and interpreter
// behind spmspv's wire programs: a compiled, reference-resolved form of
// the multi-op program grammar (input/mult/indices/union plus the
// scalar ops scale/axpy/ewise_mult/reduce/prune and a bounded loop
// construct), executed against a backend-supplied multiply hook.
//
// The package deliberately knows nothing about matrices or transports:
// a multiply is an opaque MultFunc the caller binds (the in-process
// Store runs its engine; the sharded coordinator scatters the op across
// its shards), and everything else — elementwise vector algebra, scalar
// registers, loop-carried values, exit conditions — executes here, once,
// identically for every backend. This is the CombBLAS leap from "remote
// multiply" to "remote graph-algorithm service": a small algebraic op
// set plus control flow hosts a whole family of graph algorithms
// (BFS, PageRank, k-step walks) as constant-size programs.
//
// Programs arrive here COMPILED: references are resolved to integers,
// op kinds to enum tags, semirings to function values, and every
// structural property (ref scoping and typing, loop bounds, nesting
// depth) has been checked — so Exec performs no per-run validation
// beyond what depends on runtime values (dimension agreement, unbound
// parameters). The spmspv package owns the wire grammar and the
// lowering; the compilation counter here is the cache-effectiveness
// probe pinning that stored procedures compile once, not per invoke.
//
// Compilation also fixes each loop's register lifetimes (PlanLoop), so
// a served loop pays no O(n) allocation or conversion per iteration:
//   - accumulators run in place: a body union folding into its own
//     carry (a BFS visited set, PageRank's ranks) adds into that
//     frontier from the second iteration on, keeping its bitmap, so a
//     mask_ref on it converts nothing;
//   - dead frontiers are released: each iteration Releases the mult
//     outputs it leaves dead, and a pooling backend hands them to the
//     next iteration's multiply;
//   - emits are copied when emitted, so neither step can change a
//     result already recorded.
package dataflow

import (
	"fmt"
	"math"
	"sync/atomic"

	"spmspv/internal/engine"
	"spmspv/internal/sparse"
)

// Kind tags one instruction's operation.
type Kind uint8

const (
	// KInput introduces a vector: a compiled-in literal or an
	// invoke-time argument named by Param.
	KInput Kind = iota
	// KMult is one multiply y ← ⟨op(A)·x, mask⟩, executed by the
	// backend's MultFunc.
	KMult
	// KIndices maps y(i) = i over the input's support.
	KIndices
	// KUnion is the elementwise union (collisions add).
	KUnion
	// KScale is y ← α·x.
	KScale
	// KAxpy is y ← α·x + z (union of the scaled x with z).
	KAxpy
	// KEwiseMult is the elementwise intersection combined with the
	// semiring's multiply (arithmetic × when unset).
	KEwiseMult
	// KReduce folds a vector to a scalar register (sum, max or nnz).
	KReduce
	// KPrune keeps the entries with |value| > α — the convergence
	// filter of data-driven iterations.
	KPrune
	// KLoop runs Body up to MaxIters times with loop-carried values,
	// exiting early on UntilEmpty/UntilBelow.
	KLoop
)

// ReduceOp selects a KReduce folding operation.
type ReduceOp uint8

const (
	// ReduceSum folds with +, from 0.
	ReduceSum ReduceOp = iota
	// ReduceMax folds with max over the stored values, from -Inf.
	ReduceMax
	// ReduceNNZ counts stored entries.
	ReduceNNZ
)

// Execution limits. These bound what a hostile wire program can make
// the interpreter do before any allocation happens: the compiler (in
// package spmspv) rejects programs exceeding them, and Exec re-checks
// the run-time accumulations (total iterations, emitted results).
const (
	// MaxLoopIters bounds one loop's max_iters — generous enough for a
	// full BFS of a 10^6-vertex path graph, small enough that a hostile
	// bound cannot spin a handler forever.
	MaxLoopIters = 1 << 20
	// MaxLoopDepth bounds loop nesting.
	MaxLoopDepth = 4
	// MaxEmits bounds the total emitted results of one execution
	// (per-iteration emits inside a loop multiply fast).
	MaxEmits = 1 << 20
)

// RefNone marks an unset reference slot.
const RefNone = -1

// CarryRef encodes a reference to loop-carry slot i of the innermost
// enclosing loop. Non-negative references name an earlier instruction
// of the same scope.
func CarryRef(i int) int { return -(i + 2) }

// IsCarryRef reports whether r is a carry reference, and which slot.
func IsCarryRef(r int) (int, bool) {
	if r <= -2 {
		return -r - 2, true
	}
	return 0, false
}

// Instr is one compiled instruction. Reference fields hold instruction
// indices of the same scope (≥ 0), CarryRef encodings, or RefNone.
type Instr struct {
	Kind   Kind
	Matrix string // KMult: overrides the program default when nonempty

	X     *sparse.SpVec // KInput: literal vector
	Param string        // KInput: invoke-time argument name (X nil)

	XRef    int
	YRef    int
	MaskRef int
	Desc    engine.Desc

	// Alpha is the scalar parameter of KScale/KAxpy/KPrune; AlphaRef
	// (a scalar-typed reference) or AlphaParam (an invoke-time scalar
	// binding) override it when set.
	Alpha      float64
	AlphaRef   int
	AlphaParam string

	Mul    func(a, b float64) float64 // KEwiseMult combiner (nil = ×)
	Reduce ReduceOp

	Emit bool

	// InPlace marks a loop-body KUnion as the loop's accumulator (see
	// PlanLoop): from the second iteration on its x carry holds exactly
	// this union's previous output, which nothing else can read, so the
	// union adds y into that frontier in place.
	InPlace bool

	// Loop fields (KLoop). Carry refs resolve in the ENCLOSING scope
	// and initialize the carry slots; Update refs resolve in the body
	// scope and rebind the carries after each iteration; the exits
	// resolve in the body scope. The loop's own value is carry slot 0
	// after the final iteration.
	Body       []Instr
	MaxIters   int
	Carry      []int
	Update     []int
	UntilEmpty int // body ref (vector): exit when empty
	UntilBelow int // body ref (scalar): exit when < Threshold
	Threshold  float64

	// Register lifetimes (KLoop), computed once by PlanLoop: the body
	// mults whose outputs are dead after every iteration, and the carry
	// slots whose previous value (a body mult's output from the
	// iteration before) is dead once an iteration has rebound them.
	// runLoop Releases both, so a pooled mult output is reused by the
	// next iteration instead of reallocated.
	Dead      []int
	DeadCarry []int
}

// Program is a compiled program: the default matrix, the top-level
// instruction list, and the legacy StopOnEmpty behavior (stop after a
// top-level mult producing an empty vector).
type Program struct {
	Matrix      string
	Ops         []Instr
	StopOnEmpty bool
}

// Value is one register: a frontier-backed vector or a scalar.
type Value struct {
	F        *sparse.Frontier
	S        float64
	IsScalar bool
}

// MultFunc executes instruction op's multiply against the named matrix
// with the resolved input frontier and descriptor, returning the output
// frontier. It is the single backend-specific step of execution. The
// output belongs to the execution, which Releases it once a loop leaves
// it dead: a backend may hand out pooled frontiers, but never x or a
// frontier it still uses.
type MultFunc func(op int, matrix string, x *sparse.Frontier, d engine.Desc) (*sparse.Frontier, error)

// Env is one execution's bindings: invoke-time vector arguments and
// scalar bindings (both may be nil), the backend multiply, and an
// optional matrix override replacing the program's default.
type Env struct {
	Args    map[string]*sparse.SpVec
	Scalars map[string]float64
	Matrix  string
	Mult    MultFunc
}

// Emit is one emitted result: the top-level op index, the body-op index
// and 1-based iteration for loop-body emissions (BodyOp -1, Iter 0 for
// top-level ops), and the value.
type Emit struct {
	Op     int
	BodyOp int
	Iter   int
	V      Value
}

// Result is one execution's outcome.
type Result struct {
	// Steps is how many top-level ops executed (smaller than len(Ops)
	// when StopOnEmpty fired).
	Steps int
	// Emits are the emitted results in chronological order.
	Emits []Emit
}

// compilations counts program compilations process-wide, pinning in
// tests that warm invoke-by-name traffic recompiles nothing.
var compilations atomic.Int64

// CountCompilation records one program compilation (called by the
// lowering in package spmspv).
func CountCompilation() { compilations.Add(1) }

// Compilations reports the process-wide program compilation count.
func Compilations() int64 { return compilations.Load() }

// PlanLoop computes a compiled loop's register lifetimes once, at
// compile time, and stores them on the loop's Instr: the body unions
// that accumulate in place (InPlace) and the frontiers each iteration
// leaves dead (Dead, DeadCarry). The compiler calls it on every loop
// once the body, update and exits are lowered, so inner loops are
// planned first.
//
// A union at body index u accumulates in place when all of these hold:
//   - its x_ref is carry ^c, and update[c] names u;
//   - no other update slot names u or ^c;
//   - no later body op reads u or ^c, a nested loop's carry included;
//   - neither exit names u or ^c;
//   - its y_ref is not ^c.
//
// From the second iteration on, ^c then holds u's previous output and
// nothing else can read that frontier, so writing it changes no value
// anyone sees. A nested loop's value may be one of its carries passed
// through, so a nested loop counts as naming every ref it carries.
func PlanLoop(in *Instr) {
	body := in.Body
	// names reports whether ref r may hold target's frontier.
	var names func(r, target int) bool
	names = func(r, target int) bool {
		if r == target {
			return true
		}
		if r < 0 || body[r].Kind != KLoop {
			return false
		}
		for _, c := range body[r].Carry {
			if names(c, target) {
				return true
			}
		}
		return false
	}
	// updated reports whether an update slot other than skip names
	// target.
	updated := func(target, skip int) bool {
		for i, r := range in.Update {
			if i != skip && names(r, target) {
				return true
			}
		}
		return false
	}
	// readAfter reports whether target is read after body op u: by a
	// later op, an update slot other than skip, or an exit.
	readAfter := func(target, u, skip int) bool {
		for j := u + 1; j < len(body); j++ {
			op := &body[j]
			for _, r := range append([]int{op.XRef, op.YRef, op.MaskRef, op.AlphaRef}, op.Carry...) {
				if names(r, target) {
					return true
				}
			}
		}
		return updated(target, skip) || names(in.UntilEmpty, target) || names(in.UntilBelow, target)
	}
	for u := range body {
		op := &body[u]
		c, isCarry := IsCarryRef(op.XRef)
		op.InPlace = op.Kind == KUnion && isCarry && in.Update[c] == u &&
			!names(op.YRef, op.XRef) && !readAfter(u, u, c) && !readAfter(op.XRef, u, c)
	}
	in.Dead, in.DeadCarry = nil, nil
	for j := range body {
		if body[j].Kind == KMult && !updated(j, -1) {
			in.Dead = append(in.Dead, j)
		}
	}
	for c, r := range in.Update {
		if r >= 0 && body[r].Kind == KMult && !updated(r, c) && !updated(CarryRef(c), -1) {
			in.DeadCarry = append(in.DeadCarry, c)
		}
	}
}

// exec carries one execution's shared state across scopes.
type exec struct {
	p     *Program
	env   Env
	emits []Emit
}

// scope is one lexical frame: the values of the instructions executed
// so far in this frame, plus the enclosing loop's carries (nil at top
// level).
type scope struct {
	outs    []Value
	carries []Value
}

func (s *scope) resolve(r int) Value {
	if i, ok := IsCarryRef(r); ok {
		return s.carries[i]
	}
	return s.outs[r]
}

// Exec runs the program. Structural errors cannot occur here (the
// compiler rejected them); runtime errors — dimension disagreement,
// unbound parameters, a failing multiply — abort execution.
//
// Inside a loop, Exec follows the lifetimes PlanLoop stored on it: an
// accumulator union adds into its carry's frontier in place from the
// second iteration on, and each iteration Releases the mult outputs it
// leaves dead. Every emitted vector is copied when it is emitted, so
// neither step can change a result already recorded.
func (p *Program) Exec(env Env) (*Result, error) {
	if env.Mult == nil {
		return nil, fmt.Errorf("dataflow: Exec without a multiply hook")
	}
	e := &exec{p: p, env: env}
	sc := &scope{outs: make([]Value, len(p.Ops))}
	steps := len(p.Ops)
	for k := range p.Ops {
		in := &p.Ops[k]
		v, err := e.run(k, in, sc, k, -1, 0)
		if err != nil {
			return nil, err
		}
		sc.outs[k] = v
		if p.StopOnEmpty && in.Kind == KMult && v.F.NNZ() == 0 {
			steps = k + 1
			break
		}
	}
	res := &Result{Steps: steps, Emits: e.emits}
	return res, nil
}

// emit records one emitted value, enforcing the global cap. A vector is
// recorded as a copy: the register may be written in place or recycled
// later in the run.
func (e *exec) emit(op, bodyOp, iter int, v Value) error {
	if len(e.emits) >= MaxEmits {
		return fmt.Errorf("dataflow: more than %d emitted results", MaxEmits)
	}
	if !v.IsScalar {
		v.F = sparse.NewFrontier(v.F.List().Clone())
	}
	e.emits = append(e.emits, Emit{Op: op, BodyOp: bodyOp, Iter: iter, V: v})
	return nil
}

// run executes one instruction in sc. topOp is the enclosing top-level
// op index (for MultFunc attribution and emits); bodyOp/iter locate the
// instruction when inside a loop body (-1/0 at top level).
func (e *exec) run(k int, in *Instr, sc *scope, topOp, bodyOp, iter int) (Value, error) {
	var v Value
	switch in.Kind {
	case KInput:
		x := in.X
		if x == nil {
			bound, ok := e.env.Args[in.Param]
			if !ok || bound == nil {
				return v, fmt.Errorf("op %d: input parameter %q is not bound", topOp, in.Param)
			}
			if err := bound.Validate(); err != nil {
				return v, fmt.Errorf("op %d: argument %q: %v", topOp, in.Param, err)
			}
			x = bound
		}
		v = Value{F: sparse.NewFrontier(x)}

	case KMult:
		name := in.Matrix
		if name == "" {
			name = e.env.Matrix
		}
		if name == "" {
			name = e.p.Matrix
		}
		d := in.Desc
		var xf *sparse.Frontier
		if in.XRef != RefNone {
			xf = sc.resolve(in.XRef).F
		} else {
			xf = sparse.NewFrontier(in.X)
		}
		if in.MaskRef != RefNone {
			d.Mask = sc.resolve(in.MaskRef).F.Bits()
		}
		yf, err := e.env.Mult(topOp, name, xf, d)
		if err != nil {
			return v, err
		}
		v = Value{F: yf}

	case KIndices:
		src := sc.resolve(in.XRef).F.List()
		y := sparse.NewSpVec(src.N, src.NNZ())
		for _, i := range src.Ind {
			y.Append(i, float64(i))
		}
		y.Sorted = src.Sorted
		v = Value{F: sparse.NewFrontier(y)}

	case KUnion:
		xf := sc.resolve(in.XRef).F
		ay := sc.resolve(in.YRef).F.List()
		if xf.N() != ay.N {
			return v, fmt.Errorf("op %d: union of dimensions %d and %d", topOp, xf.N(), ay.N)
		}
		if in.InPlace && iter > 1 {
			xf.UnionInPlace(ay)
			v = Value{F: xf}
		} else {
			v = Value{F: sparse.NewFrontier(sparse.EwiseAdd(xf.List(), ay, nil))}
		}

	case KScale:
		alpha, err := e.alpha(in, sc, topOp)
		if err != nil {
			return v, err
		}
		// Scale mutates in place; the source register may be read again,
		// so scale a clone.
		v = Value{F: sparse.NewFrontier(sparse.Scale(sc.resolve(in.XRef).F.List().Clone(), alpha))}

	case KAxpy:
		alpha, err := e.alpha(in, sc, topOp)
		if err != nil {
			return v, err
		}
		ax := sc.resolve(in.XRef).F.List()
		az := sc.resolve(in.YRef).F.List()
		if ax.N != az.N {
			return v, fmt.Errorf("op %d: axpy of dimensions %d and %d", topOp, ax.N, az.N)
		}
		v = Value{F: sparse.NewFrontier(sparse.EwiseAdd(sparse.Scale(ax.Clone(), alpha), az, nil))}

	case KEwiseMult:
		ax := sc.resolve(in.XRef).F.List()
		ay := sc.resolve(in.YRef).F.List()
		if ax.N != ay.N {
			return v, fmt.Errorf("op %d: ewise_mult of dimensions %d and %d", topOp, ax.N, ay.N)
		}
		v = Value{F: sparse.NewFrontier(sparse.EwiseMult(ax, ay, in.Mul))}

	case KReduce:
		src := sc.resolve(in.XRef).F.List()
		var s float64
		switch in.Reduce {
		case ReduceSum:
			s = sparse.Reduce(src, 0, func(acc, val float64) float64 { return acc + val })
		case ReduceMax:
			s = sparse.Reduce(src, math.Inf(-1), math.Max)
		case ReduceNNZ:
			s = float64(src.NNZ())
		}
		v = Value{S: s, IsScalar: true}

	case KPrune:
		alpha, err := e.alpha(in, sc, topOp)
		if err != nil {
			return v, err
		}
		src := sc.resolve(in.XRef).F.List()
		v = Value{F: sparse.NewFrontier(sparse.Filter(src, func(_ sparse.Index, val float64) bool {
			return math.Abs(val) > alpha
		}))}

	case KLoop:
		return e.runLoop(k, in, sc, topOp)

	default:
		return v, fmt.Errorf("op %d: unknown instruction kind %d", topOp, in.Kind)
	}

	if in.Emit {
		if err := e.emit(topOp, bodyOp, iter, v); err != nil {
			return v, err
		}
	}
	return v, nil
}

// runLoop executes one KLoop: carries are initialized from the
// enclosing scope, each iteration runs the body in a fresh frame and
// rebinds the carries from the Update refs, and the exits are checked
// after the body — every loop runs at least once. After the exits, the
// iteration Releases its dead frontiers (see PlanLoop).
func (e *exec) runLoop(k int, in *Instr, sc *scope, topOp int) (Value, error) {
	carries := make([]Value, len(in.Carry))
	for i, r := range in.Carry {
		carries[i] = sc.resolve(r)
	}
	body := &scope{outs: make([]Value, len(in.Body)), carries: carries}
	next := make([]Value, len(in.Update))
	for iter := 1; ; iter++ {
		for j := range body.outs {
			body.outs[j] = Value{}
		}
		for j := range in.Body {
			bv, err := e.run(j, &in.Body[j], body, topOp, j, iter)
			if err != nil {
				return Value{}, err
			}
			body.outs[j] = bv
		}
		for i, r := range in.Update {
			next[i] = body.resolve(r)
		}
		done := iter >= in.MaxIters
		if in.UntilEmpty != RefNone && body.resolve(in.UntilEmpty).F.NNZ() == 0 {
			done = true
		}
		if in.UntilBelow != RefNone && body.resolve(in.UntilBelow).S < in.Threshold {
			done = true
		}
		for _, j := range in.Dead {
			body.outs[j].F.Release()
		}
		if iter > 1 { // the carries hold this body's outputs, not outer values
			for _, c := range in.DeadCarry {
				body.carries[c].F.Release()
			}
		}
		body.carries, next = next, body.carries
		if done {
			break
		}
	}
	v := body.carries[0]
	if in.Emit {
		if err := e.emit(topOp, -1, 0, v); err != nil {
			return v, err
		}
	}
	return v, nil
}

// alpha resolves an instruction's scalar parameter: a scalar register
// reference, an invoke-time binding, or the compiled-in literal.
func (e *exec) alpha(in *Instr, sc *scope, topOp int) (float64, error) {
	if in.AlphaRef != RefNone {
		return sc.resolve(in.AlphaRef).S, nil
	}
	if in.AlphaParam != "" {
		s, ok := e.env.Scalars[in.AlphaParam]
		if !ok {
			return 0, fmt.Errorf("op %d: scalar parameter %q is not bound", topOp, in.AlphaParam)
		}
		return s, nil
	}
	return in.Alpha, nil
}
