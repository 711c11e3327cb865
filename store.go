package spmspv

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spmspv/internal/perf"
	"spmspv/internal/sparse"
)

// Store is a concurrency-safe registry of named matrices — the unit of
// service of the spmspv-serve API, in the CombBLAS tradition of
// long-lived named matrices with cached per-matrix state. Each entry
// lazily builds and caches ONE Multiplier on first Load: its engine,
// with the per-matrix preprocessing construction performs, is then
// shared by every request against that matrix — the concurrency
// contract makes the single shared Multiplier the cheap, correct shape.
//
// A Store is also an Executor: Do resolves Request.Matrix and Run
// executes programs, so in-process callers and the HTTP server share
// one code path (and one set of per-matrix request/latency counters).
type Store struct {
	opts []Option

	mu      sync.RWMutex
	entries map[string]*storeEntry

	// programs is the stored-procedure registry (see programs.go).
	programs programRegistry
}

// storeEntry pairs a registered matrix with its lazily-built
// multiplier and serving counters.
type storeEntry struct {
	a     *Matrix
	stats *perf.ServeStats

	once sync.Once
	mult *Multiplier
	err  error
	// built mirrors "once has completed successfully" for lock-free
	// Stats reads (mult itself is only read under once).
	built atomic.Bool
}

// StoreStat is one matrix's registry entry as reported by Stats/List
// endpoints: identity, shape, whether the engine has been built, and
// the serving counters.
type StoreStat struct {
	Name string `json:"name"`
	Rows Index  `json:"rows"`
	Cols Index  `json:"cols"`
	NNZ  int64  `json:"nnz"`
	// Built reports whether the multiplier (its engine) has been
	// constructed yet; Put alone leaves it false.
	Built bool               `json:"built"`
	Serve perf.ServeSnapshot `json:"serve"`
}

// NewStore returns an empty store. opts are the NewMultiplier options
// applied to every entry's lazily-built multiplier (engine selection,
// threads, hybrid threshold...).
func NewStore(opts ...Option) *Store {
	return &Store{opts: opts, entries: map[string]*storeEntry{}}
}

// validRegistryName enforces the name charset shared by every named
// registry (matrices, stored programs): path-segment and batch-key
// safe ([A-Za-z0-9._-], nonempty, ≤ 128 bytes, not "." or "..").
func validRegistryName(kind, name string) error {
	if name == "" {
		return fmt.Errorf("spmspv: empty %s name", kind)
	}
	if len(name) > 128 {
		return fmt.Errorf("spmspv: %s name longer than 128 bytes", kind)
	}
	if name == "." || name == ".." {
		return fmt.Errorf("spmspv: %s name %q is reserved", kind, name)
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("spmspv: %s name %q contains %q (allowed: letters, digits, '.', '_', '-')", kind, name, c)
		}
	}
	return nil
}

// validStoreName is validRegistryName for the matrix registry.
func validStoreName(name string) error { return validRegistryName("matrix", name) }

// Put registers (or replaces) a matrix under name. Replacement swaps
// in a fresh entry: the old multiplier keeps serving requests that
// already resolved it and is collected when they finish.
func (st *Store) Put(name string, a *Matrix) error {
	if err := validStoreName(name); err != nil {
		return err
	}
	if a == nil {
		return fmt.Errorf("spmspv: Put with nil matrix")
	}
	if err := a.Validate(); err != nil {
		return err
	}
	st.mu.Lock()
	st.entries[name] = &storeEntry{a: a, stats: &perf.ServeStats{}}
	st.mu.Unlock()
	return nil
}

// PutFile loads a matrix file — Matrix Market, the JSON wire form, or
// the binary wire form, sniffed — and registers it under name. This is
// the one matrix loader behind cmd/spmspv, cmd/graphalgo and
// spmspv-serve's -preload flag.
func (st *Store) PutFile(name, path string) error {
	a, err := ReadMatrixFile(path)
	if err != nil {
		return err
	}
	return st.Put(name, a)
}

// EncodeMatrixBinary writes a in the compact binary wire form — the
// upload format Client ships and the densest of the encodings
// DecodeMatrix accepts.
func EncodeMatrixBinary(w io.Writer, a *Matrix) error { return sparse.EncodeMatrixBinary(w, a) }

// EncodeMatrixJSON writes a in the JSON wire form ({"nrows", "ncols",
// "colptr", "rowidx", "val"}), for hand-written uploads and
// cross-language clients.
func EncodeMatrixJSON(w io.Writer, a *Matrix) error { return sparse.EncodeMatrixJSON(w, a) }

// DecodeMatrix reads a matrix in any supported encoding — Matrix
// Market, the JSON wire form, or the binary wire form, sniffed.
func DecodeMatrix(r io.Reader) (*Matrix, error) { return sparse.DecodeMatrix(r) }

// ReadMatrixFile reads a matrix file in any supported encoding:
// Matrix Market, the JSON wire form, or the binary wire form
// (sniffed, so callers need not know which they were handed).
func ReadMatrixFile(path string) (*Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := sparse.DecodeMatrix(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return a, nil
}

// entry resolves a name to its live entry.
func (st *Store) entry(name string) (*storeEntry, *WireError) {
	if name == "" {
		return nil, wireErrorf(CodeInvalidRequest, "request names no matrix")
	}
	st.mu.RLock()
	e, ok := st.entries[name]
	st.mu.RUnlock()
	if !ok {
		return nil, wireErrorf(CodeUnknownMatrix, "matrix %q is not registered", name)
	}
	return e, nil
}

// load resolves a name to its multiplier and counters, building the
// multiplier exactly once per entry — concurrent first loaders block
// until it is ready, as with the transpose engine inside a Multiplier.
func (st *Store) load(name string) (*Multiplier, *perf.ServeStats, error) {
	e, werr := st.entry(name)
	if werr != nil {
		return nil, nil, werr
	}
	e.once.Do(func() {
		e.mult, e.err = NewMultiplier(e.a, st.opts...)
		e.built.Store(e.err == nil)
	})
	if e.err != nil {
		return nil, nil, wireErrorf(CodeInternal, "building engine for %q: %v", name, e.err)
	}
	return e.mult, e.stats, nil
}

// Load returns the cached multiplier for name, building it (engine
// construction) on first use.
func (st *Store) Load(name string) (*Multiplier, error) {
	mu, _, err := st.load(name)
	return mu, err
}

// Delete removes a matrix; it reports whether the name was registered.
// In-flight requests holding the multiplier finish normally.
func (st *Store) Delete(name string) bool {
	st.mu.Lock()
	_, ok := st.entries[name]
	delete(st.entries, name)
	st.mu.Unlock()
	return ok
}

// List returns the registered names in sorted order.
func (st *Store) List() []string {
	st.mu.RLock()
	names := make([]string, 0, len(st.entries))
	for name := range st.entries {
		names = append(names, name)
	}
	st.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Stats reports one matrix's registry entry.
func (st *Store) Stats(name string) (StoreStat, error) {
	e, werr := st.entry(name)
	if werr != nil {
		return StoreStat{}, werr
	}
	return statOf(name, e), nil
}

// StatsAll reports every registered matrix, sorted by name.
func (st *Store) StatsAll() []StoreStat {
	st.mu.RLock()
	stats := make([]StoreStat, 0, len(st.entries))
	for name, e := range st.entries {
		stats = append(stats, statOf(name, e))
	}
	st.mu.RUnlock()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
	return stats
}

func statOf(name string, e *storeEntry) StoreStat {
	return StoreStat{
		Name:  name,
		Rows:  e.a.NumRows,
		Cols:  e.a.NumCols,
		NNZ:   e.a.NNZ(),
		Built: e.built.Load(),
		Serve: e.stats.Snapshot(),
	}
}

// Do executes a wire request against the matrix it names — the
// in-process form of POST /v1/mult, and the Executor implementation
// that makes a Store interchangeable with a Client. Latency and
// failure are recorded on the matrix's serving counters; errors come
// back as *WireError.
func (st *Store) Do(req *Request) (*Response, error) {
	if req == nil {
		return nil, wireErrorf(CodeBadRequest, "nil request")
	}
	mu, stats, err := st.load(req.Matrix)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	resp, err := doOn(mu, req)
	stats.Observe(time.Since(t), err != nil)
	return resp, err
}

// do is Do without the serving counters: the coalescing batcher's
// flush, whose requests were each counted as they were submitted.
func (st *Store) do(req *Request) (*Response, error) {
	mu, _, err := st.load(req.Matrix)
	if err != nil {
		return nil, err
	}
	return doOn(mu, req)
}

// doOn runs req on the multiplier Do or do resolved, answering a
// rejected request invalid_request.
func doOn(mu *Multiplier, req *Request) (*Response, error) {
	resp, err := mu.Do(req)
	if err != nil {
		return nil, wireErrorf(CodeInvalidRequest, "%v", err)
	}
	return resp, nil
}

// PutMatrix registers a matrix and reports its fresh entry — the
// in-process form of Client.PutMatrix, so a *Store satisfies the
// ShardBackend surface and a coordinator mixes local and remote shards
// freely.
func (st *Store) PutMatrix(name string, a *Matrix) (*StoreStat, error) {
	if err := st.Put(name, a); err != nil {
		return nil, err
	}
	stat, err := st.Stats(name)
	if err != nil {
		return nil, err
	}
	return &stat, nil
}

// Matrix reports one registered matrix — the in-process form of
// Client.Matrix.
func (st *Store) Matrix(name string) (*StoreStat, error) {
	stat, err := st.Stats(name)
	if err != nil {
		return nil, err
	}
	return &stat, nil
}

// DeleteMatrix unregisters a matrix, failing with unknown_matrix when
// the name is not registered — the in-process form of
// Client.DeleteMatrix.
func (st *Store) DeleteMatrix(name string) error {
	if !st.Delete(name) {
		return wireErrorf(CodeUnknownMatrix, "matrix %q is not registered", name)
	}
	return nil
}

// resolveMult resolves a name for the serving layer's pre-validation:
// the dimensions a request is checked against, and the entry's
// counters. The multiplier is built as a side effect — first touch
// pays engine construction exactly as Do would.
func (st *Store) resolveMult(name string) (nrows, ncols Index, stats *perf.ServeStats, err error) {
	mu, stats, err := st.load(name)
	if err != nil {
		return 0, 0, nil, err
	}
	a := mu.Matrix()
	return a.NumRows, a.NumCols, stats, nil
}
