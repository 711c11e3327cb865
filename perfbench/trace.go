package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	spmspv "spmspv"
)

// span is one timed call into a layer. Spans of one op share Req; the
// span that caused another is its Parent (0 for a root or when the
// cause could not be attributed).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Band   int    `json:"band,omitempty"`
	// In and Out are a handler span's request and response body bytes.
	In  int64 `json:"in,omitempty"`
	Out int64 `json:"out,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// Recording is switched on only for the traced phases, so the untraced
// phase of the same in-process stack measures the tracing overhead.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	// open holds the handler spans currently running. A band call made
	// while exactly one is open belongs to it; direct is the parent of
	// band calls the benchmark makes itself, one at a time.
	openMu sync.Mutex
	open   []int64
	direct atomic.Int64

	// bodies captured from the handler, for replaying through the
	// exported codecs.
	capMu    sync.Mutex
	captured []capturedCall
}

// capturedCall is one request/response body pair seen by the handler.
type capturedCall struct {
	path       string
	req, resp  []byte
	respBinary bool
}

// maxCaptured bounds the bodies kept for codec replay.
const maxCaptured = 256

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) id() int64 { return t.nextID.Add(1) }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record times fn as a span named name and returns its duration.
func (t *tracer) record(name string, parent, req int64, fn func(id int64)) time.Duration {
	id := t.id()
	start := time.Now()
	fn(id)
	end := time.Now()
	t.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: t.ns(start), End: t.ns(end)})
	return end.Sub(start)
}

// mark returns the number of spans recorded so far, so a phase's spans
// can be selected afterwards.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns the spans recorded after mark m.
func (t *tracer) since(m int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[m:]...)
}

// call runs one client request fn under a "client.roundtrip" span,
// with ctx tagged so the handler span links to it.
func (t *tracer) call(req int64, fn func(ctx context.Context) error) error {
	var err error
	t.record("client.roundtrip", 0, req, func(id int64) { err = fn(withSpan(context.Background(), req, id)) })
	return err
}

// dump writes every span as JSON to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// awaitHandler returns the "server.handle" span of request req. A
// client can finish decoding a response before the handler has
// returned and recorded its span, so this waits for it.
func (t *tracer) awaitHandler(req int64) (span, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		t.mu.Lock()
		for i := len(t.spans) - 1; i >= 0; i-- {
			if s := t.spans[i]; s.Name == "server.handle" && s.Req == req {
				t.mu.Unlock()
				return s, nil
			}
		}
		t.mu.Unlock()
		if time.Now().After(deadline) {
			return span{}, fmt.Errorf("request %d left no handler span", req)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// soleHandler returns the only open handler span, or 0.
func (t *tracer) soleHandler() int64 {
	t.openMu.Lock()
	defer t.openMu.Unlock()
	if len(t.open) == 1 {
		return t.open[0]
	}
	return 0
}

func (t *tracer) enter(id int64) {
	t.openMu.Lock()
	t.open = append(t.open, id)
	t.openMu.Unlock()
}

func (t *tracer) leave(id int64) {
	t.openMu.Lock()
	for i, o := range t.open {
		if o == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
	t.openMu.Unlock()
}

// The headers carrying an op's request id and client span to the
// handler.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

type ctxKey struct{}

type ctxSpan struct{ req, span int64 }

// withSpan tags ctx with an op's request id and the client span.
func withSpan(ctx context.Context, req, id int64) context.Context {
	return context.WithValue(ctx, ctxKey{}, ctxSpan{req, id})
}

// handler wraps the server's http.Handler: one "server.handle" span
// per request, with the body bytes counted and a sample of the bodies
// kept for codec replay.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		id := t.id()
		keep := false
		t.capMu.Lock()
		if len(t.captured) < maxCaptured && r.Method == http.MethodPost && !strings.HasPrefix(r.URL.Path, "/v1/matrices/") {
			keep = true
		}
		t.capMu.Unlock()
		in := &countingBody{ReadCloser: r.Body}
		if keep {
			in.keep = &bytes.Buffer{}
		}
		r.Body = in
		cw := &captureWriter{ResponseWriter: w}
		if keep {
			cw.keep = &bytes.Buffer{}
		}
		start := time.Now()
		t.enter(id)
		h.ServeHTTP(cw, r)
		t.leave(id)
		end := time.Now()
		t.add(span{ID: id, Parent: parent, Req: req, Name: "server.handle", Start: t.ns(start), End: t.ns(end), In: in.n, Out: cw.n})
		if keep {
			t.capMu.Lock()
			if len(t.captured) < maxCaptured {
				t.captured = append(t.captured, capturedCall{
					path: r.URL.Path, req: in.keep.Bytes(), resp: cw.keep.Bytes(),
					respBinary: cw.Header().Get("Content-Type") == spmspv.ContentTypeBinary,
				})
			}
			t.capMu.Unlock()
		}
	})
}

// countingBody counts (and optionally keeps) a request body as the
// server reads it, so decoding still streams from the socket.
type countingBody struct {
	io.ReadCloser
	n    int64
	keep *bytes.Buffer
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	if c.keep != nil {
		c.keep.Write(p[:n])
	}
	return n, err
}

// captureWriter counts (and optionally keeps) a response body.
type captureWriter struct {
	http.ResponseWriter
	n    int64
	keep *bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	if c.keep != nil {
		c.keep.Write(p[:n])
	}
	return n, err
}

// tracedBackend wraps one band replica's *Store as a ShardBackend,
// recording a span per call into the band.
type tracedBackend struct {
	st   *spmspv.Store
	t    *tracer
	band int
}

func (b *tracedBackend) span(name string, fn func()) {
	if !b.t.on.Load() {
		fn()
		return
	}
	parent := b.t.direct.Load()
	if parent == 0 {
		parent = b.t.soleHandler()
	}
	id := b.t.id()
	start := time.Now()
	fn()
	end := time.Now()
	b.t.add(span{ID: id, Parent: parent, Name: name, Start: b.t.ns(start), End: b.t.ns(end), Band: b.band})
}

func (b *tracedBackend) Do(req *spmspv.Request) (resp *spmspv.Response, err error) {
	b.span("store.do", func() { resp, err = b.st.Do(req) })
	return resp, err
}

func (b *tracedBackend) Run(p *spmspv.Program) (resp *spmspv.ProgramResponse, err error) {
	b.span("store.run", func() { resp, err = b.st.Run(p) })
	return resp, err
}

func (b *tracedBackend) PutMatrix(name string, a *spmspv.Matrix) (stat *spmspv.StoreStat, err error) {
	b.span("store.put", func() { stat, err = b.st.PutMatrix(name, a) })
	return stat, err
}

func (b *tracedBackend) DeleteMatrix(name string) error { return b.st.DeleteMatrix(name) }

func (b *tracedBackend) Matrix(name string) (*spmspv.StoreStat, error) { return b.st.Matrix(name) }

// Health keeps the band visible to the coordinator's health probes, as
// an unwrapped *Store is.
func (b *tracedBackend) Health(ctx context.Context) (*spmspv.HealthStatus, error) {
	return b.st.Health(ctx)
}

// transport is the benchmark's HTTP transport: at most nproc
// connections, every socket byte counted, and an op's request id and
// client span forwarded as headers when the context carries them.
type transport struct {
	base  *http.Transport
	bytes atomic.Int64
}

func newTransport(maxConns int) *transport {
	tr := &transport{}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	tr.base = &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     90 * time.Second,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: c, n: &tr.bytes}, nil
		},
	}
	return tr
}

func (tr *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	if cs, ok := r.Context().Value(ctxKey{}).(ctxSpan); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrReq, strconv.FormatInt(cs.req, 10))
		r.Header.Set(hdrSpan, strconv.FormatInt(cs.span, 10))
	}
	return tr.base.RoundTrip(r)
}

// countingConn adds every byte read or written to n.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
