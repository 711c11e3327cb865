package spmspv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"spmspv/internal/perf"
	"spmspv/internal/sparse"
)

// Server is the HTTP transport over a Store — the spmspv-serve
// surface. It mounts:
//
//	POST   /v1/matrices/{name}   upload a matrix (Matrix Market, JSON
//	                             or binary wire form, sniffed)
//	GET    /v1/matrices          list matrices with serving counters
//	GET    /v1/matrices/{name}   one matrix's entry
//	DELETE /v1/matrices/{name}   unregister
//	POST   /v1/mult              execute one Request
//	POST   /v1/program           execute one Program
//
// Concurrent single-vector mult requests against the same matrix (and
// a compatible descriptor) are coalesced into one MultBatch through a
// bounded batching window: the first request in a window waits at most
// BatchWindow for company, and a window flushes early the moment
// BatchSize requests have gathered — so the bucket engine's one
// Estimate/sizing pass (and workspace checkout) is amortized across
// the batch exactly as in the multi-source algorithms, invisible to
// each caller. Requests whose descriptor cannot ride a batch
// (accumulate, per-slot masks, bitmap responses) execute directly.
type Server struct {
	store    ServingStore
	mux      *http.ServeMux
	window   time.Duration
	maxBatch int
	maxBody  int64
	wire     string   // response form when the client expresses no preference
	batchers sync.Map // batch key (string) → *multBatcher
	start    time.Time
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithBatchWindow bounds how long the first request of a coalescing
// window waits for company (default 500µs). Zero disables coalescing.
func WithBatchWindow(d time.Duration) ServerOption {
	return func(s *Server) { s.window = d }
}

// WithBatchSize caps how many requests one MultBatch flush carries
// (default 8); a full window flushes immediately. Values ≤ 1 disable
// coalescing.
func WithBatchSize(n int) ServerOption {
	return func(s *Server) { s.maxBatch = n }
}

// WithMaxBodyBytes caps request body sizes (default 1 GiB — matrix
// uploads are the big ones).
func WithMaxBodyBytes(n int64) ServerOption {
	return func(s *Server) { s.maxBody = n }
}

// WithDefaultWire sets the response wire form used when a client
// expresses no preference — no Accept header, or "*/*". Must be
// ContentTypeJSON (the default, so unversioned clients keep working)
// or ContentTypeBinary. A client's explicit Accept always overrides
// this.
func WithDefaultWire(contentType string) ServerOption {
	return func(s *Server) {
		if contentType == ContentTypeBinary {
			s.wire = ContentTypeBinary
		} else {
			s.wire = ContentTypeJSON
		}
	}
}

// ServingStore is the storage/execution backend a Server fronts: the
// single-process *Store or the sharded *ShardedStore coordinator. The
// unexported methods — the pre-validation shapes the coalescing path
// needs and the batch-flush execution hook — keep implementations
// inside this package; everything HTTP-visible rides the exported
// surface.
type ServingStore interface {
	Executor
	Put(name string, a *Matrix) error
	Delete(name string) bool
	Stats(name string) (StoreStat, error)
	StatsAll() []StoreStat

	// The stored-procedure registry surface (see programs.go): both
	// backends embed the same programRegistry, differing only in the
	// mult hook invocations execute under.
	PutProgram(name string, p *Program) (*ProgramStat, error)
	GetProgram(name string) (*Program, error)
	DeleteProgram(name string) bool
	Programs() []ProgramStat
	Invoke(name string, inv *InvokeRequest) (*ProgramResponse, error)

	resolveMult(name string) (nrows, ncols Index, stats *perf.ServeStats, err error)
	multBatch(name string, xs []*Vector, masks []*BitVector, d Desc) ([]*Vector, error)
	health() HealthStatus
}

// NewServer returns the HTTP handler serving st — a *Store for one
// box, a *ShardedStore to coordinate a fleet.
func NewServer(st ServingStore, opts ...ServerOption) *Server {
	s := &Server{
		store:    st,
		window:   500 * time.Microsecond,
		maxBatch: 8,
		maxBody:  1 << 30,
		wire:     ContentTypeJSON,
		start:    time.Now(),
	}
	for _, o := range opts {
		o(s)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/matrices/{name}", s.handlePutMatrix)
	s.mux.HandleFunc("GET /v1/matrices", s.handleListMatrices)
	s.mux.HandleFunc("GET /v1/matrices/{name}", s.handleGetMatrix)
	s.mux.HandleFunc("DELETE /v1/matrices/{name}", s.handleDeleteMatrix)
	s.mux.HandleFunc("POST /v1/mult", s.handleMult)
	s.mux.HandleFunc("POST /v1/program", s.handleProgram)
	s.mux.HandleFunc("PUT /v1/programs/{name}", s.handlePutProgram)
	s.mux.HandleFunc("GET /v1/programs", s.handleListPrograms)
	s.mux.HandleFunc("GET /v1/programs/{name}", s.handleGetProgram)
	s.mux.HandleFunc("DELETE /v1/programs/{name}", s.handleDeleteProgram)
	s.mux.HandleFunc("POST /v1/programs/{name}/invoke", s.handleInvoke)
	s.mux.HandleFunc("GET /v1/shards", s.handleShards)
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	return s
}

// handleHealth serves the liveness probe in JSON: registry sizes,
// engine identity and uptime. It must stay cheap — the membership
// layer polls it at the probe interval against every worker.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.store.health()
	h.Status = "ok"
	h.UptimeNS = time.Since(s.start).Nanoseconds()
	writeJSON(w, http.StatusOK, &h)
}

// handleShards reports the coordinator's per-shard counters; a
// single-process server answers invalid_request.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.store.(interface{ ShardStats() []ShardStat })
	if !ok {
		writeError(w, wireErrorf(CodeInvalidRequest, "server is not a shard coordinator"))
		return
	}
	writeJSON(w, http.StatusOK, ss.ShardStats())
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// statusOf maps wire error codes to HTTP statuses.
func statusOf(we *WireError) int {
	switch we.Code {
	case CodeUnknownMatrix, CodeUnknownProgram:
		return http.StatusNotFound
	case CodeBadRequest, CodeInvalidRequest:
		return http.StatusBadRequest
	case CodeNotAcceptable:
		return http.StatusNotAcceptable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errorBody is the error envelope of the matrix-management endpoints
// (mult and program responses carry the error inline instead).
type errorBody struct {
	Err *WireError `json:"error"`
}

func writeError(w http.ResponseWriter, err error) {
	we := AsWireError(err)
	writeJSON(w, statusOf(we), errorBody{Err: we})
}

func (s *Server) handlePutMatrix(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Reject a bad name before paying for the body: uploads run to a
	// GiB, name validation is microseconds.
	if err := validStoreName(name); err != nil {
		writeError(w, wireErrorf(CodeInvalidRequest, "%v", err))
		return
	}
	a, err := sparse.DecodeMatrix(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		writeError(w, wireErrorf(CodeBadRequest, "decoding matrix: %v", err))
		return
	}
	if err := s.store.Put(name, a); err != nil {
		writeError(w, wireErrorf(CodeInvalidRequest, "%v", err))
		return
	}
	stat, err := s.store.Stats(name)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, stat)
}

func (s *Server) handleListMatrices(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.StatsAll())
}

func (s *Server) handleGetMatrix(w http.ResponseWriter, r *http.Request) {
	stat, err := s.store.Stats(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, stat)
}

func (s *Server) handleDeleteMatrix(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.store.Delete(name) {
		writeError(w, wireErrorf(CodeUnknownMatrix, "matrix %q is not registered", name))
		return
	}
	// Evict the matrix's batchers so churn (upload → serve → delete)
	// does not accumulate idle batcher entries forever. A batcher
	// holding in-flight requests still flushes — the timer closure
	// keeps it alive — and simply reports the matrix unknown.
	prefix := name + "|"
	s.batchers.Range(func(key, _ any) bool {
		if strings.HasPrefix(key.(string), prefix) {
			s.batchers.Delete(key)
		}
		return true
	})
	w.WriteHeader(http.StatusNoContent)
}

// acceptedWire negotiates the response wire form from the Accept
// header: the first supported type in listed order wins, "*/*" (and
// "application/*") selects the server default, an absent header
// selects the default, and a header naming no producible type at all
// fails negotiation (406). An element with an explicit q=0 weight is
// "not acceptable" per RFC 9110 — it is excluded rather than offered,
// including from what a wildcard may select.
func (s *Server) acceptedWire(r *http.Request) (string, bool) {
	accept := r.Header.Get("Accept")
	if accept == "" {
		return s.wire, true
	}
	wildcard := false
	var jsonRefused, binRefused bool
	for _, part := range strings.Split(accept, ",") {
		mt, qZero := acceptElem(part)
		switch mt {
		case ContentTypeJSON:
			if qZero {
				jsonRefused = true
				continue
			}
			return ContentTypeJSON, true
		case ContentTypeBinary:
			if qZero {
				binRefused = true
				continue
			}
			return ContentTypeBinary, true
		case "*/*", "application/*":
			if !qZero {
				wildcard = true
			}
		}
	}
	if wildcard {
		if s.wire == ContentTypeBinary && !binRefused {
			return ContentTypeBinary, true
		}
		if !jsonRefused {
			return ContentTypeJSON, true
		}
		if !binRefused {
			return ContentTypeBinary, true
		}
	}
	return "", false
}

// acceptElem splits one Accept element into its media type and whether
// it carries an explicit q=0 weight (in any of its RFC forms: q=0,
// q=0., q=0.000). A malformed q parameter is ignored, leaving the
// element acceptable.
func acceptElem(part string) (mt string, qZero bool) {
	params := strings.Split(part, ";")
	mt = strings.ToLower(strings.TrimSpace(params[0]))
	for _, p := range params[1:] {
		p = strings.TrimSpace(p)
		if len(p) < 2 || (p[0] != 'q' && p[0] != 'Q') || p[1] != '=' {
			continue
		}
		if q, err := strconv.ParseFloat(strings.TrimSpace(p[2:]), 64); err == nil && q == 0 {
			qZero = true
		}
	}
	return mt, qZero
}

// mediaType extracts the lowercase media type from one Accept /
// Content-Type element, dropping parameters (";q=0.9", "; charset=…").
func mediaType(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.ToLower(strings.TrimSpace(ct))
}

// reqReaderPool recycles the buffered readers request bodies are
// sniffed and decoded through.
var reqReaderPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 16<<10) }}

func getReqReader(r io.Reader) *bufio.Reader {
	br := reqReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putReqReader(br *bufio.Reader) {
	br.Reset(nil)
	reqReaderPool.Put(br)
}

// writeWire streams v to the client in the negotiated wire form. The
// binary encoders write through a pooled buffered writer straight onto
// the response — no intermediate per-response []byte — and the JSON
// encoder streams likewise.
func writeWire(w http.ResponseWriter, status int, wire string, v any) {
	if wire != ContentTypeBinary {
		writeJSON(w, status, v)
		return
	}
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.WriteHeader(status)
	switch t := v.(type) {
	case *Response:
		EncodeResponseBinary(w, t)
	case *ProgramResponse:
		EncodeProgramResponseBinary(w, t)
	case *Program:
		EncodeProgramBinary(w, t)
	default:
		// Only the two message types above negotiate binary; falling
		// here is a programming error, not a client one.
		json.NewEncoder(w).Encode(v)
	}
}

// notAcceptable is the failure of an Accept header naming no wire form
// the server produces.
func notAcceptable(r *http.Request) *WireError {
	return wireErrorf(CodeNotAcceptable, "no supported type in Accept %q (offer %s or %s)",
		r.Header.Get("Accept"), ContentTypeJSON, ContentTypeBinary)
}

// wireExchange describes one negotiated endpoint — /v1/mult,
// /v1/program or invoke — by its message pair: how the server sniffs
// and decodes the request, how the client encodes it and decodes the
// reply, and where the reply carries its structured error. The
// server's serveExchange and the client's exchange are the one
// implementation of each side of every such endpoint.
type wireExchange[Req, Resp any] struct {
	what    string // the request's name in JSON decode errors
	magic   string // the request's envelope magic
	emptyOK bool   // an empty body (a nil client request) is the zero request

	encodeReq  func(io.Writer, *Req) error
	decodeReq  func(io.Reader) (*Req, error)
	decodeResp func(io.Reader) (*Resp, error)
	errOf      func(*Resp) *WireError
	errReply   func(*WireError) *Resp
}

var (
	multExchange = wireExchange[Request, Response]{
		what: "request", magic: requestMagic,
		encodeReq: EncodeRequestBinary, decodeReq: DecodeRequestBinary, decodeResp: DecodeResponseBinary,
		errOf:    func(r *Response) *WireError { return r.Err },
		errReply: func(we *WireError) *Response { return &Response{Err: we} },
	}
	programExchange = wireExchange[Program, ProgramResponse]{
		what: "program", magic: programMagic,
		encodeReq: EncodeProgramBinary, decodeReq: DecodeProgramBinary, decodeResp: DecodeProgramResponseBinary,
		errOf: programErr, errReply: programErrReply,
	}
	// An invoke with no bindings (a program of literal inputs) is
	// legitimate, so an empty body is one.
	invokeExchange = wireExchange[InvokeRequest, ProgramResponse]{
		what: "invoke request", magic: invokeMagic, emptyOK: true,
		encodeReq: EncodeInvokeRequestBinary, decodeReq: DecodeInvokeRequestBinary, decodeResp: DecodeProgramResponseBinary,
		errOf: programErr, errReply: programErrReply,
	}
)

func programErr(r *ProgramResponse) *WireError { return r.Err }

func programErrReply(we *WireError) *ProgramResponse { return &ProgramResponse{Err: we} }

// readWire sniffs a request body's encoding — the exchange's envelope
// magic, else JSON — and decodes it accordingly, so every endpoint
// accepts both forms without a flag, exactly like the matrix upload
// endpoint.
func readWire[Req, Resp any](s *Server, w http.ResponseWriter, r *http.Request, ex wireExchange[Req, Resp]) (*Req, error) {
	br := getReqReader(http.MaxBytesReader(w, r.Body, s.maxBody))
	defer putReqReader(br)
	head, _ := br.Peek(4)
	switch {
	case len(head) == 0 && ex.emptyOK:
		return new(Req), nil
	case string(head) == ex.magic:
		return ex.decodeReq(br)
	}
	req := new(Req)
	if err := json.NewDecoder(br).Decode(req); err != nil {
		return nil, fmt.Errorf("spmspv: decoding %s: %w", ex.what, err)
	}
	return req, nil
}

// serveExchange is the server side of every negotiated endpoint: it
// negotiates the reply form from Accept, reads the body (readWire),
// runs it, and encodes the reply in the negotiated form. A failure is
// answered in the endpoint's own reply type carrying the structured
// wire error — in JSON when Accept itself was refused (406).
func serveExchange[Req, Resp any](s *Server, w http.ResponseWriter, r *http.Request, ex wireExchange[Req, Resp], run func(*Req) (*Resp, error)) {
	wire, ok := s.acceptedWire(r)
	if !ok {
		writeWire(w, http.StatusNotAcceptable, ContentTypeJSON, ex.errReply(notAcceptable(r)))
		return
	}
	var resp *Resp
	req, err := readWire(s, w, r, ex)
	if err != nil {
		err = wireErrorf(CodeBadRequest, "%v", err)
	} else if resp, err = run(req); err == nil {
		writeWire(w, http.StatusOK, wire, resp)
		return
	}
	we := AsWireError(err)
	writeWire(w, statusOf(we), wire, ex.errReply(we))
}

func (s *Server) handleMult(w http.ResponseWriter, r *http.Request) {
	serveExchange(s, w, r, multExchange, s.do)
}

func (s *Server) handleProgram(w http.ResponseWriter, r *http.Request) {
	serveExchange(s, w, r, programExchange, s.store.Run)
}

// handlePutProgram registers a stored procedure: the body (SPPG or
// JSON, sniffed) is validated AND compiled here, once, so warm invoke
// traffic runs zero program compilations. 201 answers with the
// program's registry stat.
func (s *Server) handlePutProgram(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validRegistryName("program", name); err != nil {
		writeError(w, wireErrorf(CodeInvalidRequest, "%v", err))
		return
	}
	p, err := readWire(s, w, r, programExchange)
	if err != nil {
		writeError(w, wireErrorf(CodeBadRequest, "%v", err))
		return
	}
	stat, err := s.store.PutProgram(name, p)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, stat)
}

func (s *Server) handleListPrograms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.Programs())
}

// handleGetProgram serves a stored procedure's source form back, in
// the negotiated wire encoding (SPPG or JSON).
func (s *Server) handleGetProgram(w http.ResponseWriter, r *http.Request) {
	wire, ok := s.acceptedWire(r)
	if !ok {
		writeError(w, notAcceptable(r))
		return
	}
	p, err := s.store.GetProgram(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeWire(w, http.StatusOK, wire, p)
}

func (s *Server) handleDeleteProgram(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.store.DeleteProgram(name) {
		writeError(w, wireErrorf(CodeUnknownProgram, "program %q is not registered", name))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleInvoke runs a stored procedure with the request's bindings —
// the warm path the registry exists for: no program on the wire, no
// validation or compilation server-side, just seed vectors in and
// emitted results out, in the negotiated wire form.
func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	serveExchange(s, w, r, invokeExchange, func(inv *InvokeRequest) (*ProgramResponse, error) {
		return s.store.Invoke(r.PathValue("name"), inv)
	})
}

// do routes one request: through the coalescing batcher when it
// qualifies, directly through the store otherwise.
func (s *Server) do(req *Request) (*Response, error) {
	if !s.coalescable(req) {
		return s.store.Do(req)
	}
	return s.doCoalesced(req)
}

// coalescable reports whether a request may ride a shared MultBatch:
// single-vector, list-form response, no accumulate (an accumulator
// cannot be shared), with any mask becoming a per-slot batch mask.
func (s *Server) coalescable(req *Request) bool {
	return s.maxBatch > 1 && s.window > 0 &&
		req.X != nil && !req.Desc.Accum && req.Desc.Masks == nil &&
		req.Desc.Output != OutputBitmap
}

// doCoalesced validates the request immediately (so malformed requests
// fail fast and cannot poison a batch), then submits it to the batcher
// for its (matrix, descriptor-compatibility) key.
func (s *Server) doCoalesced(req *Request) (*Response, error) {
	nrows, ncols, stats, err := s.store.resolveMult(req.Matrix)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	if err := req.Validate(nrows, ncols); err != nil {
		stats.Observe(time.Since(t), true)
		return nil, wireErrorf(CodeInvalidRequest, "%v", err)
	}
	sr, _ := ParseSemiring(req.Desc.Semiring)
	key := fmt.Sprintf("%s|%s|t=%v|c=%v", req.Matrix, strings.ToLower(sr.Name),
		req.Desc.Transpose, req.Desc.Complement)
	bi, _ := s.batchers.LoadOrStore(key, &multBatcher{server: s, matrix: req.Matrix})
	b := bi.(*multBatcher)

	out := b.submit(req.X, req.Desc)
	stats.Observe(time.Since(t), out.err != nil)
	if out.err != nil {
		return nil, out.err
	}
	return &Response{Y: out.y, OutputRep: OutputList.String()}, nil
}

// multBatcher coalesces validated single-vector requests that share a
// batch key into MultBatch flushes. The first pending request arms a
// window timer; reaching the server's batch size flushes immediately.
type multBatcher struct {
	server *Server
	matrix string

	mu      sync.Mutex
	pending []*pendingMult
}

type pendingMult struct {
	x    *Vector
	desc Desc
	done chan batchOut
}

type batchOut struct {
	y   *Vector
	err error
}

// submit enqueues one request and blocks until its slot's result.
func (b *multBatcher) submit(x *Vector, d Desc) batchOut {
	p := &pendingMult{x: x, desc: d, done: make(chan batchOut, 1)}
	b.mu.Lock()
	b.pending = append(b.pending, p)
	n := len(b.pending)
	if n >= b.server.maxBatch {
		batch := b.pending
		b.pending = nil
		b.mu.Unlock()
		b.flush(batch)
	} else {
		if n == 1 {
			time.AfterFunc(b.server.window, b.flushWindow)
		}
		b.mu.Unlock()
	}
	return <-p.done
}

// flushWindow fires when a window timer expires: it takes whatever has
// gathered (possibly nothing, if a size-triggered flush beat it).
func (b *multBatcher) flushWindow() {
	b.mu.Lock()
	batch := b.pending
	b.pending = nil
	b.mu.Unlock()
	if len(batch) > 0 {
		b.flush(batch)
	}
}

// flush executes one gathered batch through the store's multBatch hook
// and delivers each slot's result. The backend resolves the matrix per
// flush, so a matrix replaced in the store between windows is picked
// up; over a sharded backend the whole window rides one scatter.
func (b *multBatcher) flush(batch []*pendingMult) {
	defer func() {
		if r := recover(); r != nil {
			for _, p := range batch {
				p.done <- batchOut{err: wireErrorf(CodeInternal, "batched multiply: %v", r)}
			}
		}
	}()
	xs := make([]*Vector, len(batch))
	masks := make([]*BitVector, len(batch))
	for q, p := range batch {
		xs[q] = p.x
		masks[q] = p.desc.Mask
	}
	ys, err := b.server.store.multBatch(b.matrix, xs, masks, batch[0].desc)
	if err != nil {
		for _, p := range batch {
			p.done <- batchOut{err: err}
		}
		return
	}
	for q, p := range batch {
		p.done <- batchOut{y: ys[q]}
	}
}

// BatcherStats reports process-level coalescing totals summed over
// every matrix: how many requests rode shared batches and how many
// flushes were issued. (Per-matrix splits live on the StoreStats.)
func (s *Server) BatcherStats() (coalesced, batches int64) {
	for _, stat := range s.store.StatsAll() {
		coalesced += stat.Serve.Coalesced
		batches += stat.Serve.Batches
	}
	return
}
