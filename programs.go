package spmspv

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"spmspv/internal/dataflow"
	"spmspv/internal/perf"
)

// InvokeRequest is the wire body of POST /v1/programs/{name}/invoke:
// everything a stored procedure needs per call — the seed vector(s)
// bound to its input params, the scalar bindings its alpha_refs name,
// and optionally a matrix overriding the program's default. The
// program itself stays server-side, already compiled; repeat callers
// ship kilobytes of seed instead of the op list every time.
type InvokeRequest struct {
	// Matrix overrides the program's default matrix for this call.
	Matrix string `json:"matrix,omitempty"`
	// Args binds vectors to the program's input params by name.
	Args map[string]*Vector `json:"args,omitempty"`
	// Scalars binds values to the program's alpha_ref names.
	Scalars map[string]float64 `json:"scalars,omitempty"`
}

// Validate checks the bindings' own well-formedness (names in the
// param charset, vectors structurally valid); whether they match the
// program's declared params is the interpreter's job, and dimension
// agreement is pinned to the matrix per mult op as always.
func (inv *InvokeRequest) Validate() error {
	if inv.Matrix != "" {
		if err := validRegistryName("matrix", inv.Matrix); err != nil {
			return err
		}
	}
	for name, x := range inv.Args {
		if err := checkParamName(name, "invoke arg", 0); err != nil {
			return err
		}
		if x == nil {
			return fmt.Errorf("spmspv: invoke arg %q is null", name)
		}
		if err := x.Validate(); err != nil {
			return fmt.Errorf("spmspv: invoke arg %q: %w", name, err)
		}
	}
	for name := range inv.Scalars {
		if err := checkParamName(name, "invoke scalar", 0); err != nil {
			return err
		}
	}
	return nil
}

// DecodeInvokeRequest parses a JSON-encoded InvokeRequest.
func DecodeInvokeRequest(data []byte) (*InvokeRequest, error) {
	var inv InvokeRequest
	if err := json.Unmarshal(data, &inv); err != nil {
		return nil, fmt.Errorf("spmspv: decoding invoke request: %w", err)
	}
	return &inv, nil
}

// ProgramStat is one stored procedure's registry entry as reported by
// GET /v1/programs: identity, size, default matrix, and the
// per-program serving counters (invokes, errors, latency).
type ProgramStat struct {
	Name   string             `json:"name"`
	Ops    int                `json:"ops"`
	Matrix string             `json:"matrix,omitempty"`
	Serve  perf.ServeSnapshot `json:"serve"`
}

// programEntry pairs a stored procedure's source (served back by GET)
// with its compiled form — validated and lowered ONCE at registration,
// so warm invoke traffic runs zero compilations (pinned by
// dataflow.Compilations in tests) — and its serving counters.
type programEntry struct {
	src      *Program
	compiled *dataflow.Program
	stats    *perf.ServeStats
}

// programRegistry is the named stored-procedure registry embedded in
// both Store and ShardedStore: the registry itself is backend-agnostic
// (a compiled program is pure dataflow), and only the mult hook passed
// to invoke differs between the in-process and scattered executions.
type programRegistry struct {
	mu    sync.RWMutex
	progs map[string]*programEntry
}

func (pr *programRegistry) put(name string, p *Program) (*ProgramStat, error) {
	if err := validRegistryName("program", name); err != nil {
		return nil, wireErrorf(CodeBadRequest, "%v", err)
	}
	cp, err := compileProgram(p)
	if err != nil {
		return nil, wireErrorf(CodeInvalidRequest, "%v", err)
	}
	dataflow.CountCompilation()
	e := &programEntry{src: p, compiled: cp, stats: &perf.ServeStats{}}
	pr.mu.Lock()
	if pr.progs == nil {
		pr.progs = make(map[string]*programEntry)
	}
	pr.progs[name] = e
	pr.mu.Unlock()
	return &ProgramStat{Name: name, Ops: len(p.Ops), Matrix: p.Matrix}, nil
}

func (pr *programRegistry) entryOf(name string) (*programEntry, error) {
	pr.mu.RLock()
	e := pr.progs[name]
	pr.mu.RUnlock()
	if e == nil {
		return nil, wireErrorf(CodeUnknownProgram, "unknown program %q", name)
	}
	return e, nil
}

func (pr *programRegistry) get(name string) (*Program, error) {
	e, err := pr.entryOf(name)
	if err != nil {
		return nil, err
	}
	return e.src, nil
}

func (pr *programRegistry) delete(name string) bool {
	pr.mu.Lock()
	_, ok := pr.progs[name]
	delete(pr.progs, name)
	pr.mu.Unlock()
	return ok
}

func (pr *programRegistry) list() []ProgramStat {
	pr.mu.RLock()
	out := make([]ProgramStat, 0, len(pr.progs))
	for name, e := range pr.progs {
		out = append(out, ProgramStat{
			Name:   name,
			Ops:    len(e.src.Ops),
			Matrix: e.src.Matrix,
			Serve:  e.stats.Snapshot(),
		})
	}
	pr.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// invoke runs a stored procedure: entry lookup, binding validation,
// then execution of the ALREADY-compiled program — no validation or
// lowering on the hot path — under the backend's mult hook, with
// wall-clock and error accounting on the program's own counters.
func (pr *programRegistry) invoke(name string, inv *InvokeRequest, mult progMultFunc) (*ProgramResponse, error) {
	e, err := pr.entryOf(name)
	if err != nil {
		return nil, err
	}
	if inv == nil {
		inv = &InvokeRequest{}
	}
	if err := inv.Validate(); err != nil {
		e.stats.Observe(0, true)
		return nil, wireErrorf(CodeInvalidRequest, "%v", err)
	}
	t := time.Now()
	resp, err := execCompiled(e.compiled, inv, mult)
	e.stats.Observe(time.Since(t), err != nil)
	return resp, err
}

// PutProgram registers (or replaces) a stored procedure: the program
// is validated and compiled here, once, and every later invoke reuses
// the compiled form. The returned stat carries the accepted size.
func (st *Store) PutProgram(name string, p *Program) (*ProgramStat, error) {
	return st.programs.put(name, p)
}

// GetProgram returns a stored procedure's source form.
func (st *Store) GetProgram(name string) (*Program, error) { return st.programs.get(name) }

// DeleteProgram removes a stored procedure, reporting whether it
// existed.
func (st *Store) DeleteProgram(name string) bool { return st.programs.delete(name) }

// Programs lists the stored procedures with their serving counters,
// sorted by name.
func (st *Store) Programs() []ProgramStat { return st.programs.list() }

// Invoke runs a stored procedure against the store's matrices with the
// request's bindings — the in-process form of
// POST /v1/programs/{name}/invoke.
func (st *Store) Invoke(name string, inv *InvokeRequest) (*ProgramResponse, error) {
	return st.programs.invoke(name, inv, st.progMult())
}

// PutProgram registers (or replaces) a stored procedure on the
// coordinator; loops run here, each body op scattering across the
// shards (see Run).
func (ss *ShardedStore) PutProgram(name string, p *Program) (*ProgramStat, error) {
	return ss.programs.put(name, p)
}

// GetProgram returns a stored procedure's source form.
func (ss *ShardedStore) GetProgram(name string) (*Program, error) { return ss.programs.get(name) }

// DeleteProgram removes a stored procedure, reporting whether it
// existed.
func (ss *ShardedStore) DeleteProgram(name string) bool { return ss.programs.delete(name) }

// Programs lists the stored procedures with their serving counters,
// sorted by name.
func (ss *ShardedStore) Programs() []ProgramStat { return ss.programs.list() }

// Invoke runs a stored procedure with every mult op scattered across
// the shards and everything else — scalar ops, loops, convergence
// exits — executed on the coordinator.
func (ss *ShardedStore) Invoke(name string, inv *InvokeRequest) (*ProgramResponse, error) {
	return ss.programs.invoke(name, inv, ss.progMult())
}
