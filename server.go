package spmspv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
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
// a compatible descriptor) are coalesced by group commit: a request
// that finds no flush in flight runs at once, and requests that arrive
// while a flush runs go together, up to BatchSize, in the next one —
// so the bucket engine's one Estimate/sizing pass (and workspace
// checkout) is shared by exactly the requests that overlap, as in the
// multi-source algorithms, invisible to each caller. No request waits
// for company, and one queued behind a flush waits at most the batch
// window before it flushes beside that flush. Requests whose
// descriptor cannot ride a batch (accumulate, per-slot masks, bitmap
// responses) execute directly.
type Server struct {
	store    ServingStore
	mux      *http.ServeMux
	window   time.Duration
	maxBatch int
	maxBody  int64
	wire     string   // response form when the client expresses no preference
	batchers sync.Map // batchKey → *multBatcher
	start    time.Time
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithBatchWindow bounds how long a coalesced request waits queued
// behind a flush still in flight (default 500µs) before it flushes
// without it. A request that finds no flush in flight never waits.
// Zero disables coalescing.
func WithBatchWindow(d time.Duration) ServerOption {
	return func(s *Server) { s.window = d }
}

// WithBatchSize caps how many requests one coalesced flush carries
// (default 8). Values ≤ 1 disable coalescing.
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
// needs and do, which runs a coalesced flush as Do does without
// counting it as a request — keep implementations inside this package;
// everything HTTP-visible rides the exported surface.
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
	do(req *Request) (*Response, error)
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

// writeJSON answers v as JSON under status. It marshals before writing
// the status: JSON has no spelling for NaN or ±Inf, so a reply holding
// one comes back as a not_acceptable *WireError for the caller to
// answer, instead of an HTTP 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) *WireError {
	buf := getHeaderBuf()
	defer putHeaderBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return wireErrorf(CodeNotAcceptable, "the reply does not encode as %s (%v); accept %s, which carries it",
			ContentTypeJSON, err, ContentTypeBinary)
	}
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.WriteHeader(status)
	w.Write(buf.Bytes())
	return nil
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
	// holding in-flight requests still flushes — its submitters keep it
	// alive — and simply reports the matrix unknown.
	s.batchers.Range(func(key, _ any) bool {
		if key.(batchKey).matrix == name {
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

// writeWire answers v in the negotiated wire form: JSON through
// writeJSON, whose not_acceptable failure it returns, and binary
// through a pooled buffered writer straight onto the response — no
// intermediate per-response []byte.
func writeWire(w http.ResponseWriter, status int, wire string, v any) *WireError {
	if wire != ContentTypeBinary {
		return writeJSON(w, status, v)
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
	return nil
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
	var we *WireError
	if req, err := readWire(s, w, r, ex); err != nil {
		we = wireErrorf(CodeBadRequest, "%v", err)
	} else if resp, err := run(req); err != nil {
		we = AsWireError(err)
	} else if we = writeWire(w, http.StatusOK, wire, resp); we == nil {
		return
	}
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
	if we := writeWire(w, http.StatusOK, wire, p); we != nil {
		writeError(w, we)
	}
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

// coalescable reports whether a request may ride a shared MultBatch:
// single-vector, list-form response, no accumulate (an accumulator
// cannot be shared), with any mask becoming a per-slot batch mask.
func (s *Server) coalescable(req *Request) bool {
	return s.maxBatch > 1 && s.window > 0 &&
		req.X != nil && !req.Desc.Accum && req.Desc.Masks == nil &&
		req.Desc.Output != OutputBitmap
}

// do routes one request: directly through the store unless it is
// coalescable, else through the batcher for its key. A coalesced
// request is validated first, so a malformed one fails fast and cannot
// fail the batch it would have joined.
func (s *Server) do(req *Request) (*Response, error) {
	if !s.coalescable(req) {
		return s.store.Do(req)
	}
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
	key := batchKey{req.Matrix, sr.Name, req.Desc.Transpose, req.Desc.Complement}
	b, ok := s.batchers.Load(key)
	if !ok {
		b, _ = s.batchers.LoadOrStore(key, &multBatcher{server: s})
	}
	out := b.(*multBatcher).submit(&pendingMult{req: req, stats: stats, done: make(chan batchOut, 2)})
	stats.Observe(time.Since(t), out.err != nil)
	if out.err != nil {
		return nil, out.err
	}
	return &Response{Y: out.y, OutputRep: OutputList.String()}, nil
}

// batchKey is what the requests of one batch share.
type batchKey struct {
	matrix, semiring      string
	transpose, complement bool
}

// multBatcher coalesces validated single-vector requests that share a
// batch key by group commit. A request that finds no lead flush in
// flight leads one at once; requests that arrive while it runs queue,
// and when it ends the first of them leads the next flush, which takes
// at most the batch size from the front of the queue. A request still
// queued a window after it arrived — the flush ahead of it is slow, as
// a coordinator's can be while a replica call times out — flushes the
// queue up to itself beside that flush.
type multBatcher struct {
	server *Server

	mu      sync.Mutex
	leading bool // a lead flush is in flight
	pending []*pendingMult
}

type pendingMult struct {
	req   *Request
	stats *perf.ServeStats // the matrix's counters, resolved at submit
	// done receives at most two messages, in order: the lead, sent only
	// while the request is queued, and its result.
	done chan batchOut
}

// batchOut answers a pending request: its result, or the lead.
type batchOut struct {
	y    *Vector
	err  error
	lead bool
}

// submit enqueues one request and blocks until its result, running on
// this goroutine every flush the request leads or overtakes.
func (b *multBatcher) submit(p *pendingMult) batchOut {
	b.mu.Lock()
	b.pending = append(b.pending, p)
	lead := !b.leading
	b.leading = true
	b.mu.Unlock()
	var late <-chan time.Time
	if lead {
		b.lead()
	} else {
		t := time.NewTimer(b.server.window)
		defer t.Stop()
		late = t.C
	}
	for {
		select {
		case out := <-p.done:
			if !out.lead {
				return out
			}
			b.lead()
		case <-late:
			b.overtake(p)
		}
	}
}

// lead runs one lead flush. It yields its processor first, so requests
// already runnable (still being decoded on a busy CPU) queue and join;
// on an idle CPU the yield returns at once. It then flushes the front
// of the queue, which an overtaking flush may have emptied, and passes
// the lead to the first request still queued, or leaves the key idle.
func (b *multBatcher) lead() {
	runtime.Gosched()
	b.mu.Lock()
	batch := b.take()
	b.mu.Unlock()
	if len(batch) > 0 {
		b.flush(batch)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.leading = len(b.pending) > 0
	if b.leading {
		// A queued request has been sent nothing else yet, so its
		// buffered channel has room.
		b.pending[0].done <- batchOut{lead: true}
	}
}

// overtake runs when p has waited a window in the queue: it flushes the
// queue from the front, a batch at a time, until p's batch has run,
// since every request ahead of p has waited longer. A p already taken
// into a flush waits for that flush.
func (b *multBatcher) overtake(p *pendingMult) {
	for {
		b.mu.Lock()
		if !slices.Contains(b.pending, p) {
			b.mu.Unlock()
			return
		}
		batch := b.take()
		b.mu.Unlock()
		b.flush(batch)
	}
}

// take removes the next batch, at most the batch size, from the front
// of the queue. b.mu must be held.
func (b *multBatcher) take() []*pendingMult {
	n := min(len(b.pending), b.server.maxBatch)
	batch := b.pending[:n:n]
	b.pending = b.pending[n:]
	return batch
}

// flush runs one batch as a single batched Request — the form /v1/mult
// serves — through the store's do, so the matrix is resolved per flush
// and a sharded backend sends the whole batch in one scatter. A failed
// flush fails every slot with the store's error, and a panicking one
// answers every slot internal.
func (b *multBatcher) flush(batch []*pendingMult) {
	defer func() {
		if r := recover(); r != nil {
			for _, p := range batch {
				p.done <- batchOut{err: wireErrorf(CodeInternal, "batched multiply: %v", r)}
			}
		}
	}()
	// Complement is in the batch key and needs a mask, so it holds for
	// every slot or none.
	first := batch[0].req
	req := &Request{Matrix: first.Matrix, Xs: make([]*Vector, len(batch)), Desc: Desc{
		Semiring: first.Desc.Semiring, Transpose: first.Desc.Transpose, Complement: first.Desc.Complement}}
	for q, p := range batch {
		req.Xs[q] = p.req.X
		if mk := p.req.Desc.Mask; mk != nil {
			if req.Desc.Masks == nil {
				req.Desc.Masks = make([]*BitVector, len(batch))
			}
			req.Desc.Masks[q] = mk
		}
	}
	resp, err := b.server.store.do(req)
	if err == nil {
		batch[0].stats.ObserveBatch(len(batch))
	}
	for q, p := range batch {
		out := batchOut{err: err}
		if err == nil {
			out.y = resp.Ys[q]
		}
		p.done <- out
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
