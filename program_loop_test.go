// Tests for the dataflow subsystem: scalar ops (scale/axpy/
// ewise_mult/reduce/prune), the bounded loop construct with
// until_empty/until_below exits, the loop-based BFS against its
// unrolled oracle, server-side PageRank bit-identity against the
// in-process iteration, and the stored-procedure registry with its
// zero-recompile contract.
package spmspv_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	spmspv "spmspv"
	"spmspv/internal/dataflow"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

func fptr(v float64) *float64 { return &v }

// TestProgramScalarOps pins the semantics of each scalar op through
// Store.Run against hand-computed expectations.
func TestProgramScalarOps(t *testing.T) {
	st := spmspv.NewStore(spmspv.WithEngineOptions(engineOptions(2)))
	x := testutil.VectorWithIndices(10, 1, 3, 5) // values 1 at 1,3,5
	x.Val[0], x.Val[1], x.Val[2] = 2, -3, 4
	z := testutil.VectorWithIndices(10, 3, 5, 7)
	z.Val[0], z.Val[1], z.Val[2] = 10, 20, 30

	resp, err := st.Run(&spmspv.Program{Ops: []spmspv.ProgramOp{
		{Op: "input", X: x}, // $0
		{Op: "input", X: z}, // $1
		{Op: "scale", XRef: "$0", Alpha: fptr(2), Emit: true},             // $2: 2x
		{Op: "axpy", XRef: "$0", YRef: "$1", Alpha: fptr(-1), Emit: true}, // $3: -x+z
		{Op: "ewise_mult", XRef: "$0", YRef: "$1", Emit: true},            // $4: x.*z
		{Op: "reduce", Reduce: "sum", XRef: "$0", Emit: true},             // $5: 3
		{Op: "reduce", Reduce: "max", XRef: "$0", Emit: true},             // $6: 4
		{Op: "reduce", Reduce: "nnz", XRef: "$0", Emit: true},             // $7: 3
		{Op: "prune", XRef: "$0", Alpha: fptr(2.5), Emit: true},           // $8: |v|>2.5
		{Op: "scale", XRef: "$0", AlphaRef: "$6", Emit: true},             // $9: max(x)·x
	}}, // scale mutates a clone: $0 must still be 2,-3,4 when $9 runs
	)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Steps != 10 {
		t.Fatalf("Steps = %d, want 10", resp.Steps)
	}
	byOp := map[int]spmspv.ProgramResult{}
	for _, r := range resp.Results {
		byOp[r.Op] = r
	}
	wantVec := func(op int, ind []spmspv.Index, val []float64) {
		t.Helper()
		y := byOp[op].Y
		if y == nil {
			t.Fatalf("op %d: no vector result", op)
		}
		if len(y.Ind) != len(ind) {
			t.Fatalf("op %d: got %v/%v, want ind %v val %v", op, y.Ind, y.Val, ind, val)
		}
		for k := range ind {
			if y.Ind[k] != ind[k] || y.Val[k] != val[k] {
				t.Fatalf("op %d: got %v/%v, want ind %v val %v", op, y.Ind, y.Val, ind, val)
			}
		}
	}
	wantScalar := func(op int, want float64) {
		t.Helper()
		s := byOp[op].Scalar
		if s == nil {
			t.Fatalf("op %d: no scalar result", op)
		}
		if *s != want {
			t.Fatalf("op %d: scalar = %v, want %v", op, *s, want)
		}
	}
	wantVec(2, []spmspv.Index{1, 3, 5}, []float64{4, -6, 8})
	wantVec(3, []spmspv.Index{1, 3, 5, 7}, []float64{-2, 13, 16, 30})
	wantVec(4, []spmspv.Index{3, 5}, []float64{-30, 80})
	wantScalar(5, 3)
	wantScalar(6, 4)
	wantScalar(7, 3)
	wantVec(8, []spmspv.Index{3, 5}, []float64{-3, 4}) // |2| ≤ 2.5 dropped
	wantVec(9, []spmspv.Index{1, 3, 5}, []float64{8, -12, 16})
}

// TestProgramLoopSemantics pins the loop construct: per-iteration body
// emits, loop-carried updates applying on the final iteration, the
// until_below scalar exit, and max_iters exhaustion.
func TestProgramLoopSemantics(t *testing.T) {
	st := spmspv.NewStore(spmspv.WithEngineOptions(engineOptions(2)))
	x := testutil.VectorWithIndices(4, 0, 2)
	x.Val[0], x.Val[1] = 8, 4

	// Halve until max < 1: iterations produce max 4, 2, 1, 0.5 → exits
	// after iteration 4 (the first whose max is below the threshold).
	halving := func(maxIters int, threshold float64) *spmspv.Program {
		return &spmspv.Program{Ops: []spmspv.ProgramOp{
			{Op: "input", X: x},
			{
				Op:         "loop",
				Emit:       true,
				Carry:      []string{"$0"},
				MaxIters:   maxIters,
				Update:     []string{"$0"},
				UntilBelow: "$1",
				Threshold:  threshold,
				Body: []spmspv.ProgramOp{
					{Op: "scale", XRef: "^0", Alpha: fptr(0.5)},
					{Op: "reduce", Reduce: "max", XRef: "$0", Emit: true},
				},
			},
		}}
	}

	resp, err := st.Run(halving(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	var maxes []float64
	var finalY *spmspv.Vector
	for _, r := range resp.Results {
		switch {
		case r.Iter > 0:
			if r.Op != 1 || r.BodyOp != 1 || r.Iter != len(maxes)+1 {
				t.Fatalf("unexpected body result %+v", r)
			}
			maxes = append(maxes, *r.Scalar)
		default:
			finalY = r.Y
		}
	}
	want := []float64{4, 2, 1, 0.5}
	if len(maxes) != len(want) {
		t.Fatalf("per-iteration maxes %v, want %v", maxes, want)
	}
	for k := range want {
		if maxes[k] != want[k] {
			t.Fatalf("per-iteration maxes %v, want %v", maxes, want)
		}
	}
	if finalY == nil {
		t.Fatal("loop with emit returned no final value")
	}
	// Final carry: x/16 (the update applied on the exit iteration too).
	if finalY.Val[0] != 0.5 || finalY.Val[1] != 0.25 {
		t.Fatalf("final carry %v/%v, want values [0.5 0.25]", finalY.Ind, finalY.Val)
	}

	// Exhaustion: a threshold no positive max reaches stops the loop at
	// max_iters, without error.
	resp, err = st.Run(halving(3, -1))
	if err != nil {
		t.Fatal(err)
	}
	iters := 0
	for _, r := range resp.Results {
		if r.Iter > 0 {
			iters++
		}
	}
	if iters != 3 {
		t.Fatalf("exhausted loop ran %d iterations, want 3", iters)
	}
}

// TestProgramValidateLoopGrammar pins the extended grammar's
// compile-time rejections: every case must error (and never panic).
func TestProgramValidateLoopGrammar(t *testing.T) {
	x := testutil.VectorWithIndices(10, 3)
	input := spmspv.ProgramOp{Op: "input", X: x}
	loop := func(mut func(*spmspv.ProgramOp)) *spmspv.Program {
		op := spmspv.ProgramOp{
			Op:         "loop",
			Carry:      []string{"$0"},
			MaxIters:   4,
			Update:     []string{"$0"},
			UntilEmpty: "$0",
			Body:       []spmspv.ProgramOp{{Op: "scale", XRef: "^0", Alpha: fptr(0.5)}},
		}
		mut(&op)
		return &spmspv.Program{Ops: []spmspv.ProgramOp{input, op}}
	}
	nested := func(depth int, emitInner bool) *spmspv.Program {
		op := spmspv.ProgramOp{Op: "scale", XRef: "^0", Alpha: fptr(0.5), Emit: emitInner}
		body := []spmspv.ProgramOp{op}
		for d := 0; d < depth; d++ {
			body = []spmspv.ProgramOp{{
				Op: "loop", Carry: []string{"^0"}, MaxIters: 2, Update: []string{"$0"}, Body: body,
			}}
		}
		outer := body[0]
		outer.Carry = []string{"$0"}
		return &spmspv.Program{Ops: []spmspv.ProgramOp{input, outer}}
	}

	cases := map[string]*spmspv.Program{
		"emptyBody":     loop(func(o *spmspv.ProgramOp) { o.Body = nil }),
		"zeroIters":     loop(func(o *spmspv.ProgramOp) { o.MaxIters = 0 }),
		"hugeIters":     loop(func(o *spmspv.ProgramOp) { o.MaxIters = 1 << 21 }),
		"noCarry":       loop(func(o *spmspv.ProgramOp) { o.Carry, o.Update = nil, nil }),
		"carryMismatch": loop(func(o *spmspv.ProgramOp) { o.Update = []string{"$0", "$0"} }),
		"carryForward":  loop(func(o *spmspv.ProgramOp) { o.Carry = []string{"$1"} }),
		"untilEmptyScalar": loop(func(o *spmspv.ProgramOp) {
			o.Body = append(o.Body, spmspv.ProgramOp{Op: "reduce", Reduce: "nnz", XRef: "$0"})
			o.UntilEmpty = "$1"
		}),
		"untilBelowVector": loop(func(o *spmspv.ProgramOp) { o.UntilEmpty = ""; o.UntilBelow = "$0" }),
		"updateScalarForVectorCarry": loop(func(o *spmspv.ProgramOp) {
			o.Body = append(o.Body, spmspv.ProgramOp{Op: "reduce", Reduce: "nnz", XRef: "$0"})
			o.Update = []string{"$1"}
		}),
		"carryOutsideLoop": {Ops: []spmspv.ProgramOp{input, {Op: "indices", XRef: "^0"}}},
		"badCarrySlot":     loop(func(o *spmspv.ProgramOp) { o.Body[0].XRef = "^3" }),
		"tooDeep":          nested(dataflow.MaxLoopDepth+1, false),
		"emitTooDeep":      nested(2, true),
		"inputBothForms":   {Ops: []spmspv.ProgramOp{{Op: "input", X: x, Param: "seed"}}},
		"badParamName":     {Ops: []spmspv.ProgramOp{{Op: "input", Param: "$seed"}}},
		"badReduce":        {Ops: []spmspv.ProgramOp{input, {Op: "reduce", Reduce: "median", XRef: "$0"}}},
		"scaleNoAlpha":     {Ops: []spmspv.ProgramOp{input, {Op: "scale", XRef: "$0"}}},
		"scaleBothAlphas":  {Ops: []spmspv.ProgramOp{input, {Op: "scale", XRef: "$0", Alpha: fptr(1), AlphaRef: "a"}}},
		"alphaRefVector":   {Ops: []spmspv.ProgramOp{input, {Op: "scale", XRef: "$0", AlphaRef: "$0"}}},
		"multScalarInput": {Ops: []spmspv.ProgramOp{
			input,
			{Op: "reduce", Reduce: "sum", XRef: "$0"},
			{XRef: "$1", Desc: spmspv.Desc{Semiring: "arithmetic"}},
		}},
	}
	for name, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}

	// The whole stored-procedure forms compile.
	if err := spmspv.BFSProgram("g", 50, nil).Validate(); err != nil {
		t.Errorf("BFSProgram rejected: %v", err)
	}
	if err := spmspv.PageRankProgram("g", spmspv.PageRankOptions{}, nil).Validate(); err != nil {
		t.Errorf("PageRankProgram rejected: %v", err)
	}
	// Deepest legal nesting compiles.
	if err := nested(dataflow.MaxLoopDepth, false).Validate(); err != nil {
		t.Errorf("depth-%d nesting rejected: %v", dataflow.MaxLoopDepth, err)
	}
}

// TestProgramBFSLoopVsUnrolled runs the loop-based BFS against the
// unrolled oracle AND the in-process algorithm on every engine — the
// loop construct must not change a single parent, level or frontier
// size.
func TestProgramBFSLoopVsUnrolled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := testutil.RandomCSC(rng, 140, 140, 3)
	for _, alg := range spmspv.Algorithms() {
		st := spmspv.NewStore(spmspv.WithAlgorithm(alg), spmspv.WithEngineOptions(engineOptions(2)))
		if err := st.Put("g", a); err != nil {
			t.Fatal(err)
		}
		mu, err := st.Load("g")
		if err != nil {
			t.Fatal(err)
		}
		want := spmspv.BFS(mu, 0)
		loop, err := spmspv.ProgramBFS(st, "g", a.NumCols, 0, 0)
		if err != nil {
			t.Fatalf("%v: loop BFS: %v", alg, err)
		}
		unrolled, err := spmspv.ProgramBFSUnrolled(st, "g", a.NumCols, 0, 0)
		if err != nil {
			t.Fatalf("%v: unrolled BFS: %v", alg, err)
		}
		compareBFS(t, alg.String()+"/loop", loop, want)
		compareBFS(t, alg.String()+"/unrolled", unrolled, want)

		// The loop program is constant-size; the unrolled one is not.
		if ops := len(spmspv.BFSProgram("g", int(a.NumCols), nil).Ops); ops != 2 {
			t.Fatalf("loop BFS program has %d ops, want 2", ops)
		}
	}
}

// comparePageRank demands bit-identity: the server-side program must
// reproduce the in-process iteration float for float.
func comparePageRank(t *testing.T, label string, got, want *spmspv.PageRankResult) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: %d iterations, want %d", label, got.Iterations, want.Iterations)
	}
	if len(got.ActiveCounts) != len(want.ActiveCounts) {
		t.Fatalf("%s: active counts %v, want %v", label, got.ActiveCounts, want.ActiveCounts)
	}
	for k := range want.ActiveCounts {
		if got.ActiveCounts[k] != want.ActiveCounts[k] {
			t.Fatalf("%s: active counts %v, want %v", label, got.ActiveCounts, want.ActiveCounts)
		}
	}
	if len(got.Ranks) != len(want.Ranks) {
		t.Fatalf("%s: %d ranks, want %d", label, len(got.Ranks), len(want.Ranks))
	}
	for i := range want.Ranks {
		if math.Float64bits(got.Ranks[i]) != math.Float64bits(want.Ranks[i]) {
			t.Fatalf("%s: rank[%d] = %v, want %v (not bit-identical)", label, i, got.Ranks[i], want.Ranks[i])
		}
	}
}

// TestProgramPageRank runs the server-side PageRank program on every
// engine, unsharded and sharded, against the in-process
// algorithms.PageRank — bit-identical ranks, active counts and
// iteration counts.
func TestProgramPageRank(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := spmspv.NormalizeColumns(testutil.RandomCSC(rng, 90, 90, 4))
	opt := spmspv.PageRankOptions{Tol: 1e-6, MaxIter: 60}
	for _, alg := range spmspv.Algorithms() {
		opts := []spmspv.Option{spmspv.WithAlgorithm(alg), spmspv.WithEngineOptions(engineOptions(2))}
		st := spmspv.NewStore(opts...)
		if err := st.Put("g", a); err != nil {
			t.Fatal(err)
		}
		mu, err := st.Load("g")
		if err != nil {
			t.Fatal(err)
		}
		want := spmspv.PageRank(mu, opt)
		if want.Iterations < 3 {
			t.Fatalf("%v: reference converged in %d iterations; graph too easy", alg, want.Iterations)
		}
		got, err := spmspv.ProgramPageRank(st, "g", a.NumCols, opt)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		comparePageRank(t, alg.String(), got, want)

		ss := newLocalSharded(t, 3, opts...)
		if err := ss.Put("g", a); err != nil {
			t.Fatal(err)
		}
		sharded, err := spmspv.ProgramPageRank(ss, "g", a.NumCols, opt)
		if err != nil {
			t.Fatalf("%v sharded: %v", alg, err)
		}
		comparePageRank(t, alg.String()+"/sharded", sharded, want)
	}
}

// TestStoredProgramRegistry pins the registry lifecycle on the Store:
// put/get/list/delete, invoking by name with seed and scalar bindings,
// and the zero-recompile contract on warm invoke traffic.
func TestStoredProgramRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := testutil.RandomCSC(rng, 100, 100, 4)
	st := spmspv.NewStore(spmspv.WithEngineOptions(engineOptions(2)))
	if err := st.Put("g", a); err != nil {
		t.Fatal(err)
	}

	if _, err := st.PutProgram("bfs", spmspv.BFSProgram("g", int(a.NumCols), nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutProgram("bad/name", spmspv.BFSProgram("g", 4, nil)); err == nil {
		t.Error("slash-named program registered")
	}
	if _, err := st.PutProgram("broken", &spmspv.Program{}); err == nil {
		t.Error("invalid program registered")
	}
	got, err := st.GetProgram("bfs")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != 2 || got.Matrix != "g" {
		t.Fatalf("stored program came back as %d ops on %q", len(got.Ops), got.Matrix)
	}
	if _, err := st.Invoke("nope", nil); spmspv.AsWireError(err).Code != spmspv.CodeUnknownProgram {
		t.Fatalf("unknown program: %v", err)
	}

	// Invoke by name: only the seed rides; results decode identically
	// to the one-shot program path.
	mu, err := st.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	want := spmspv.BFS(mu, 3)
	seed := spmspv.NewVector(a.NumCols, 1)
	seed.Append(3, 3)
	invoke := func() *spmspv.BFSResult {
		t.Helper()
		resp, err := st.Invoke("bfs", &spmspv.InvokeRequest{Args: map[string]*spmspv.Vector{"seed": seed}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := spmspv.DecodeBFSProgramResponse(resp, a.NumCols, 3, int(a.NumCols))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	compareBFS(t, "invoke", invoke(), want)

	// A missing binding is an invoke-time error, not a panic.
	if _, err := st.Invoke("bfs", nil); err == nil {
		t.Error("invoke without the seed binding succeeded")
	}

	// Warm invokes recompile no program.
	progsBefore := dataflow.Compilations()
	for i := 0; i < 5; i++ {
		compareBFS(t, "warm invoke", invoke(), want)
	}
	if d := dataflow.Compilations() - progsBefore; d != 0 {
		t.Errorf("warm invokes compiled %d programs, want 0", d)
	}

	// Per-program counters observed every invoke.
	stats := st.Programs()
	if len(stats) != 1 || stats[0].Name != "bfs" {
		t.Fatalf("Programs() = %+v, want one entry 'bfs'", stats)
	}
	if stats[0].Serve.Requests != 7 { // 6 good + the missing-binding invoke
		t.Errorf("program served %d invokes, want 7", stats[0].Serve.Requests)
	}
	if stats[0].Serve.Failures != 1 { // unknown-name invoke hit no entry, so just 1
		t.Errorf("program recorded %d failures, want 1", stats[0].Serve.Failures)
	}

	if !st.DeleteProgram("bfs") {
		t.Error("DeleteProgram(bfs) = false")
	}
	if st.DeleteProgram("bfs") {
		t.Error("second DeleteProgram(bfs) = true")
	}
}

// TestStoredProgramScalarBindings invokes the stored PageRank form —
// seed vector plus damping/tol scalar bindings on the wire — on both
// backends and demands bit-identity with the in-process run.
func TestStoredProgramScalarBindings(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := spmspv.NormalizeColumns(testutil.RandomCSC(rng, 70, 70, 4))
	opt := spmspv.PageRankOptions{Damping: 0.9, Tol: 1e-7, MaxIter: 80}
	opts := []spmspv.Option{spmspv.WithEngineOptions(engineOptions(2))}

	st := spmspv.NewStore(opts...)
	if err := st.Put("g", a); err != nil {
		t.Fatal(err)
	}
	mu, err := st.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	want := spmspv.PageRank(mu, opt)

	ss := newLocalSharded(t, 2, opts...)
	if err := ss.Put("g", a); err != nil {
		t.Fatal(err)
	}

	seed := spmspv.PageRankSeed(a.NumCols, opt.Damping)
	inv := &spmspv.InvokeRequest{
		Args:    map[string]*spmspv.Vector{"seed": seed},
		Scalars: map[string]float64{"damping": opt.Damping, "tol": opt.Tol},
	}
	for label, backend := range map[string]interface {
		PutProgram(string, *spmspv.Program) (*spmspv.ProgramStat, error)
		Invoke(string, *spmspv.InvokeRequest) (*spmspv.ProgramResponse, error)
	}{"store": st, "sharded": ss} {
		if _, err := backend.PutProgram("pagerank", spmspv.PageRankProgram("g", opt, nil)); err != nil {
			t.Fatal(err)
		}
		resp, err := backend.Invoke("pagerank", inv)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got, err := spmspv.DecodePageRankProgramResponse(resp, a.NumCols)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		comparePageRank(t, label, got, want)
	}
}

// unrollLoop appends the straight-line form of a loop run for exactly
// iters iterations to ops, with carry naming the refs the carries start
// from, and returns the refs of the final carries. Nested loops unroll
// in place for their own max_iters; exits are not modelled, so callers
// pick loops whose exits cannot fire early.
func unrollLoop(ops *[]spmspv.ProgramOp, loop spmspv.ProgramOp, carry []string, iters int) []string {
	for it := 0; it < iters; it++ {
		refs := make([]string, len(loop.Body))
		remap := func(r string) string {
			if r == "" || (r[0] != '$' && r[0] != '^') {
				return r
			}
			k, err := strconv.Atoi(r[1:])
			if err != nil {
				panic(err)
			}
			if r[0] == '^' {
				return carry[k]
			}
			return refs[k]
		}
		for j, op := range loop.Body {
			if op.Op == "loop" {
				inner := make([]string, len(op.Carry))
				for i, r := range op.Carry {
					inner[i] = remap(r)
				}
				refs[j] = unrollLoop(ops, op, inner, op.MaxIters)[0]
				continue
			}
			op.XRef, op.YRef, op.MaskRef, op.AlphaRef = remap(op.XRef), remap(op.YRef), remap(op.MaskRef), remap(op.AlphaRef)
			*ops = append(*ops, op)
			refs[j] = "$" + strconv.Itoa(len(*ops)-1)
		}
		next := make([]string, len(loop.Update))
		for i, r := range loop.Update {
			next[i] = remap(r)
		}
		carry = next
	}
	return carry
}

// sameResults demands that two program responses emit the same values
// in the same order, vectors' Sorted flags included.
func sameResults(t *testing.T, label string, got, want *spmspv.ProgramResponse) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	for q := range want.Results {
		g, w := got.Results[q], want.Results[q]
		if (g.Scalar == nil) != (w.Scalar == nil) || (g.Scalar != nil && math.Float64bits(*g.Scalar) != math.Float64bits(*w.Scalar)) {
			t.Fatalf("%s: result %d scalar %v, want %v", label, q, g.Scalar, w.Scalar)
		}
		if g.Scalar == nil {
			sameVector(t, fmt.Sprintf("%s: result %d", label, q), g.Y, w.Y)
			if g.Y.Sorted != w.Y.Sorted {
				t.Fatalf("%s: result %d sorted %v, want %v", label, q, g.Y.Sorted, w.Y.Sorted)
			}
		}
	}
}

// TestProgramLoopInPlaceGuards pins the in-place accumulator union from
// outside. An accumulating union's emits are per-iteration snapshots.
// Each loop whose union must not run in place (the carry read after the
// union, two update slots naming it, an exit naming it, y_ref equal to
// x_ref, a nested loop passing the carry through) gives exactly what
// its unrolled straight-line form gives. Invokes leave the caller's
// seed and a stored program's literal input unchanged. Concurrent
// invokes of one stored BFS share the store's output pool and must each
// match BFS.
func TestProgramLoopInPlaceGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	st := spmspv.NewStore(spmspv.WithEngineOptions(engineOptions(2)))
	const n = 40
	inputs := []spmspv.ProgramOp{
		{Op: "input", X: testutil.RandomVector(rng, n, 6, true)},  // $0
		{Op: "input", X: testutil.RandomVector(rng, n, 9, false)}, // $1
	}
	union := func(x, y string) spmspv.ProgramOp {
		return spmspv.ProgramOp{Op: "union", XRef: x, YRef: y, Emit: true}
	}
	snapshot := func(x string) spmspv.ProgramOp {
		return spmspv.ProgramOp{Op: "scale", XRef: x, Alpha: fptr(1), Emit: true}
	}
	passThrough := spmspv.ProgramOp{ // a nested loop whose value is its carry
		Op: "loop", Carry: []string{"^0"}, Update: []string{"^0"}, MaxIters: 2,
		Body: []spmspv.ProgramOp{{Op: "scale", XRef: "^0", Alpha: fptr(1)}},
	}
	loops := map[string]spmspv.ProgramOp{
		// The accumulator proper: it runs in place.
		"accumulate": {Carry: []string{"$0", "$1"}, Update: []string{"$0", "^1"},
			Body: []spmspv.ProgramOp{union("^0", "^1")}},
		"decaying": {Carry: []string{"$0", "$1"}, Update: []string{"$1", "$0"},
			Body: []spmspv.ProgramOp{
				{Op: "scale", XRef: "^1", Alpha: fptr(0.5)},
				union("^0", "$0"),
			}},
		// Guards: the union must not run in place.
		"carryReadAfter": {Carry: []string{"$0", "$1"}, Update: []string{"$0", "^1"},
			Body: []spmspv.ProgramOp{union("^0", "^1"), snapshot("^0")}},
		"twoUpdates": {Carry: []string{"$0", "$0", "$1"}, Update: []string{"$0", "$0", "^2"},
			Body: []spmspv.ProgramOp{union("^0", "^2"), snapshot("^1")}},
		"untilEmptyUnion": {Carry: []string{"$0", "$1"}, Update: []string{"$0", "^1"}, UntilEmpty: "$0",
			Body: []spmspv.ProgramOp{union("^0", "^1")}},
		"untilEmptyCarry": {Carry: []string{"$0", "$1"}, Update: []string{"$0", "^1"}, UntilEmpty: "^0",
			Body: []spmspv.ProgramOp{union("^0", "^1")}},
		"yIsX": {Carry: []string{"$0"}, Update: []string{"$0"},
			Body: []spmspv.ProgramOp{union("^0", "^0")}},
		"nestedAliasReadAfter": {Carry: []string{"$0", "$1"}, Update: []string{"$1", "^1"},
			Body: []spmspv.ProgramOp{passThrough, union("^0", "^1"), snapshot("$0")}},
		"nestedAliasAsY": {Carry: []string{"$0", "$1"}, Update: []string{"$1", "^1"},
			Body: []spmspv.ProgramOp{passThrough, union("^0", "$0")}},
	}
	const iters = 5
	for name, loop := range loops {
		loop.Op, loop.MaxIters, loop.Emit = "loop", iters, true
		got, err := st.Run(&spmspv.Program{Ops: append(append([]spmspv.ProgramOp(nil), inputs...), loop)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ops := append([]spmspv.ProgramOp(nil), inputs...)
		final := unrollLoop(&ops, loop, loop.Carry, iters)
		ops = append(ops, snapshot(final[0]))
		want, err := st.Run(&spmspv.Program{Ops: ops})
		if err != nil {
			t.Fatalf("%s unrolled: %v", name, err)
		}
		sameResults(t, name, got, want)
	}

	// Dead multiply outputs go back to the store's pool: a walk whose
	// carry is rebound to a multiply each iteration, started from a
	// top-level multiply that is read again after the loop.
	if err := st.Put("w", testutil.RandomCSC(rng, n, n, 3)); err != nil {
		t.Fatal(err)
	}
	arith := spmspv.Desc{Semiring: "arithmetic"}
	walk := spmspv.ProgramOp{Op: "loop", Carry: []string{"$1"}, Update: []string{"$1"}, MaxIters: iters, Emit: true,
		Body: []spmspv.ProgramOp{
			{XRef: "^0", Desc: arith, Emit: true},
			{XRef: "$0", Desc: arith, Emit: true},
		}}
	ops := []spmspv.ProgramOp{inputs[0], {XRef: "$0", Desc: arith}, walk, snapshot("$1")}
	got, err := st.Run(&spmspv.Program{Matrix: "w", Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	ops = ops[:2]
	final := unrollLoop(&ops, walk, walk.Carry, iters)
	ops = append(ops, snapshot(final[0]), snapshot("$1"))
	want, err := st.Run(&spmspv.Program{Matrix: "w", Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "walk", got, want)

	// Seeds and literals survive repeated invokes.
	a := testutil.RandomCSC(rng, 120, 120, 3)
	if err := st.Put("g", a); err != nil {
		t.Fatal(err)
	}
	pr := spmspv.NormalizeColumns(a)
	if err := st.Put("pr", pr); err != nil {
		t.Fatal(err)
	}
	seed := bfsSeedVec(a.NumCols, 4)
	literal := spmspv.PageRankSeed(pr.NumCols, 0.85)
	seed0, literal0 := seed.Clone(), literal.Clone()
	if _, err := st.PutProgram("bfs", spmspv.BFSProgram("g", int(a.NumCols), nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutProgram("pagerank", spmspv.PageRankProgram("pr", spmspv.PageRankOptions{Tol: 1e-6}, literal)); err != nil {
		t.Fatal(err)
	}
	mu, err := st.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	inv := &spmspv.InvokeRequest{Args: map[string]*spmspv.Vector{"seed": seed}}
	for i := 0; i < 3; i++ {
		spmspv.ResetFrontierStats()
		resp, err := st.Invoke("bfs", inv)
		if err != nil {
			t.Fatal(err)
		}
		// The visited set keeps its bitmap across levels: the seed's and
		// the accumulator's first bitmap are the only conversions.
		if conv, _ := sparse.FrontierConversions(); conv > 2 {
			t.Errorf("stored BFS converted %d frontiers, want at most 2", conv)
		}
		got, err := spmspv.DecodeBFSProgramResponse(resp, a.NumCols, 4, int(a.NumCols))
		if err != nil {
			t.Fatal(err)
		}
		compareBFS(t, "repeat invoke", got, spmspv.BFS(mu, 4))
		if _, err := st.Invoke("pagerank", nil); err != nil {
			t.Fatal(err)
		}
	}
	sameVector(t, "seed argument after invokes", seed, seed0)
	sameVector(t, "stored literal after invokes", literal, literal0)

	// Concurrent invokes of one stored BFS.
	const callers = 8
	results := make([]*spmspv.BFSResult, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src := spmspv.Index(c * 13)
			inv := &spmspv.InvokeRequest{Args: map[string]*spmspv.Vector{"seed": bfsSeedVec(a.NumCols, src)}}
			for rep := 0; rep < 3 && errs[c] == nil; rep++ {
				var resp *spmspv.ProgramResponse
				resp, errs[c] = st.Invoke("bfs", inv)
				if errs[c] == nil {
					results[c], errs[c] = spmspv.DecodeBFSProgramResponse(resp, a.NumCols, src, int(a.NumCols))
				}
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		compareBFS(t, fmt.Sprintf("concurrent caller %d", c), results[c], spmspv.BFS(mu, spmspv.Index(c*13)))
	}
}

// TestProgramLoopsUnsortedOutput runs the loop programs under unsorted
// engine output, the library default, on every engine: BFSProgram must
// match BFS, and PageRankProgram must match PageRank bit for bit. The
// other loop tests run sorted output; unsorted output is where the
// accumulator union sees operands in arbitrary order.
func TestProgramLoopsUnsortedOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	a := testutil.RandomCSC(rng, 150, 150, 3)
	pr := spmspv.NormalizeColumns(testutil.RandomCSC(rng, 90, 90, 4))
	opt := spmspv.PageRankOptions{Tol: 1e-6, MaxIter: 60}
	eo := engineOptions(2)
	eo.SortOutput = false
	unsortedLevels := 0
	for _, alg := range spmspv.Algorithms() {
		st := spmspv.NewStore(spmspv.WithAlgorithm(alg), spmspv.WithEngineOptions(eo))
		if err := st.Put("g", a); err != nil {
			t.Fatal(err)
		}
		if err := st.Put("pr", pr); err != nil {
			t.Fatal(err)
		}
		mu, err := st.Load("g")
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []spmspv.Index{0, 77} {
			resp, err := st.Run(spmspv.BFSProgram("g", int(a.NumCols), bfsSeedVec(a.NumCols, src)))
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			for _, r := range resp.Results {
				if !r.Y.Sorted {
					unsortedLevels++
				}
			}
			got, err := spmspv.DecodeBFSProgramResponse(resp, a.NumCols, src, int(a.NumCols))
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			compareBFS(t, fmt.Sprintf("%v/bfs from %d", alg, src), got, spmspv.BFS(mu, src))
		}
		mp, err := st.Load("pr")
		if err != nil {
			t.Fatal(err)
		}
		got, err := spmspv.ProgramPageRank(st, "pr", pr.NumCols, opt)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		comparePageRank(t, alg.String()+"/pagerank", got, spmspv.PageRank(mp, opt))
	}
	if unsortedLevels == 0 {
		t.Fatal("no engine produced an unsorted BFS level; the test does not exercise unsorted output")
	}
}

// bfsSeedVec is the one-entry BFS seed: the source's value is its id.
func bfsSeedVec(n, src spmspv.Index) *spmspv.Vector {
	x := spmspv.NewVector(n, 1)
	x.Append(src, float64(src))
	return x
}
