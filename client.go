package spmspv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client speaks the spmspv-serve HTTP API and implements the same
// Executor shape as the in-process Store — Do for one multiply, Run
// for a program — so algorithm code written against an Executor (see
// ProgramBFS) is transport-agnostic: hand it a Store to run locally,
// a Client to run against a server, and it cannot tell the
// difference, down to the *WireError values failures produce.
type Client struct {
	base string
	hc   *http.Client
	// wire is the form Do, Run, Invoke and PutProgram send
	// (ContentTypeBinary by default; see WithWire).
	wire string
	// timeout, when positive, bounds every request that arrives without
	// its own deadline (see WithTimeout).
	timeout time.Duration
}

// defaultHTTPClient is the pooled transport shared by every Client
// that does not bring its own *http.Client. The per-host idle pool is
// sized for a coordinator holding persistent links to a handful of
// shard servers under concurrent scatter traffic — net/http's default
// of 2 idle connections per host would re-dial on every parallel
// fan-out.
var defaultHTTPClient = &http.Client{
	Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        128,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
	},
}

// ClientOption configures NewClient.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithWire sets the wire form the client sends on /v1/mult,
// /v1/program, invoke and program uploads: ContentTypeBinary (the
// default) or ContentTypeJSON, for servers that speak only JSON.
func WithWire(contentType string) ClientOption {
	return func(c *Client) {
		if contentType == ContentTypeJSON {
			c.wire = ContentTypeJSON
		} else {
			c.wire = ContentTypeBinary
		}
	}
}

// WithTimeout bounds every call that arrives without its own deadline:
// each request runs under a context.WithTimeout of d, so a hung server
// costs at most d instead of blocking the caller forever. Calls made
// through DoContext, RunContext or InvokeContext with an earlier
// deadline keep theirs.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// NewClient returns a client for the server at baseURL (e.g.
// "http://localhost:8090").
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc:   defaultHTTPClient,
		wire: ContentTypeBinary,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// reqContext applies the client timeout to a context that has no
// deadline of its own.
func (c *Client) reqContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.timeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			return context.WithTimeout(ctx, c.timeout)
		}
	}
	return ctx, func() {}
}

// send issues one request with the given Content-Type (none when
// empty) and Accept headers; the caller closes the reply body.
func (c *Client) send(ctx context.Context, method, path string, body io.Reader, contentType, accept string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set("Accept", accept)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("spmspv: %s %s: %w", method, path, err)
	}
	return resp, nil
}

// roundTrip POSTs/GETs and decodes the JSON reply into out. A non-2xx
// status is decoded through errOf, which extracts the wire error from
// whatever envelope the endpoint uses.
func (c *Client) roundTrip(ctx context.Context, method, path string, body io.Reader, contentType string, out any, errOf func([]byte) *WireError) error {
	ctx, cancel := c.reqContext(ctx)
	defer cancel()
	// Pin the JSON reply explicitly: a server whose default wire is
	// binary (spmspv-serve -wire binary) would otherwise answer a
	// preference-free request in a form this path cannot decode.
	resp, err := c.send(ctx, method, path, body, contentType, ContentTypeJSON)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("spmspv: reading %s %s response: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		if we := errOf(data); we != nil {
			return we
		}
		return fmt.Errorf("spmspv: %s %s: HTTP %d: %s", method, path, resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("spmspv: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// envelopeError extracts the {"error": {...}} envelope of the matrix-
// management endpoints.
func envelopeError(data []byte) *WireError {
	var body errorBody
	if json.Unmarshal(data, &body) == nil && body.Err != nil {
		return body.Err
	}
	return nil
}

// exchange is the client side of every negotiated endpoint (see
// wireExchange): it POSTs req in the WithWire form and decodes the
// reply by its Content-Type — the binary envelope or JSON. An error the
// reply carries comes back as the *WireError itself.
func exchange[Req, Resp any](ctx context.Context, c *Client, path string, ex wireExchange[Req, Resp], req *Req) (*Resp, error) {
	if req == nil && ex.emptyOK {
		req = new(Req)
	}
	var body io.Reader
	accept := ContentTypeJSON
	if c.wire == ContentTypeBinary {
		var buf bytes.Buffer
		if err := ex.encodeReq(&buf, req); err != nil {
			return nil, err
		}
		body = &buf
		accept = ContentTypeBinary + ", " + ContentTypeJSON
	} else {
		data, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("spmspv: encoding %s: %w", ex.what, err)
		}
		body = bytes.NewReader(data)
	}
	ctx, cancel := c.reqContext(ctx)
	defer cancel()
	resp, err := c.send(ctx, http.MethodPost, path, body, c.wire, accept)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out *Resp
	var data []byte
	if mediaType(resp.Header.Get("Content-Type")) == ContentTypeBinary {
		out, err = ex.decodeResp(resp.Body)
	} else if data, err = io.ReadAll(resp.Body); err == nil {
		// The decode target is allocated only here: the binary decoder
		// allocates its own.
		out = new(Resp)
		err = json.Unmarshal(data, out)
	}
	if err == nil {
		if we := ex.errOf(out); we != nil {
			return nil, we
		}
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("spmspv: POST %s: HTTP %d: %s", path, resp.StatusCode, data)
	}
	if err != nil {
		return nil, fmt.Errorf("spmspv: decoding POST %s response: %w", path, err)
	}
	return out, nil
}

// Do executes one multiply request on the server (POST /v1/mult) in
// the WithWire form.
func (c *Client) Do(req *Request) (*Response, error) {
	return c.DoContext(context.Background(), req)
}

// DoContext is Do under a caller-supplied context: the request is
// abandoned — connection torn down, caller unblocked — the moment the
// context is done. The sharded coordinator's per-attempt retry
// deadlines ride this.
func (c *Client) DoContext(ctx context.Context, req *Request) (*Response, error) {
	return exchange(ctx, c, "/v1/mult", multExchange, req)
}

// Run executes a program on the server (POST /v1/program) in the
// WithWire form.
func (c *Client) Run(p *Program) (*ProgramResponse, error) {
	return c.RunContext(context.Background(), p)
}

// RunContext is Run under a caller-supplied context (see DoContext).
func (c *Client) RunContext(ctx context.Context, p *Program) (*ProgramResponse, error) {
	return exchange(ctx, c, "/v1/program", programExchange, p)
}

// PutMatrix uploads a matrix under name (POST /v1/matrices/{name}),
// shipped in the compact binary wire form.
func (c *Client) PutMatrix(name string, a *Matrix) (*StoreStat, error) {
	var buf bytes.Buffer
	if err := EncodeMatrixBinary(&buf, a); err != nil {
		return nil, err
	}
	var stat StoreStat
	err := c.roundTrip(context.Background(), http.MethodPost, "/v1/matrices/"+name, &buf, "application/octet-stream", &stat, envelopeError)
	if err != nil {
		return nil, err
	}
	return &stat, nil
}

// Matrices lists the server's registered matrices with their serving
// counters (GET /v1/matrices).
func (c *Client) Matrices() ([]StoreStat, error) {
	var stats []StoreStat
	if err := c.roundTrip(context.Background(), http.MethodGet, "/v1/matrices", nil, "", &stats, envelopeError); err != nil {
		return nil, err
	}
	return stats, nil
}

// Matrix reports one registered matrix (GET /v1/matrices/{name}).
func (c *Client) Matrix(name string) (*StoreStat, error) {
	var stat StoreStat
	if err := c.roundTrip(context.Background(), http.MethodGet, "/v1/matrices/"+name, nil, "", &stat, envelopeError); err != nil {
		return nil, err
	}
	return &stat, nil
}

// DeleteMatrix unregisters a matrix (DELETE /v1/matrices/{name}).
func (c *Client) DeleteMatrix(name string) error {
	return c.roundTrip(context.Background(), http.MethodDelete, "/v1/matrices/"+name, nil, "", nil, envelopeError)
}

// BFS runs a whole breadth-first search from source on the named
// server-side matrix as one program round trip (see ProgramBFS); the
// matrix's dimension is fetched from the registry first.
func (c *Client) BFS(matrix string, source Index) (*BFSResult, error) {
	stat, err := c.Matrix(matrix)
	if err != nil {
		return nil, err
	}
	return ProgramBFS(c, matrix, stat.Cols, source, 0)
}

// PutProgram registers a stored procedure on the server
// (PUT /v1/programs/{name}): the program ships once — SPPG binary when
// the client speaks binary, JSON otherwise — is compiled server-side,
// and every later Invoke carries only the bindings.
func (c *Client) PutProgram(name string, p *Program) (*ProgramStat, error) {
	var buf bytes.Buffer
	contentType := ContentTypeJSON
	if c.wire == ContentTypeBinary {
		contentType = ContentTypeBinary
		if err := EncodeProgramBinary(&buf, p); err != nil {
			return nil, err
		}
	} else if err := json.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("spmspv: encoding program: %w", err)
	}
	var stat ProgramStat
	err := c.roundTrip(context.Background(), http.MethodPut, "/v1/programs/"+name, &buf, contentType, &stat, envelopeError)
	if err != nil {
		return nil, err
	}
	return &stat, nil
}

// Programs lists the server's stored procedures with their per-program
// invoke counters (GET /v1/programs).
func (c *Client) Programs() ([]ProgramStat, error) {
	var stats []ProgramStat
	if err := c.roundTrip(context.Background(), http.MethodGet, "/v1/programs", nil, "", &stats, envelopeError); err != nil {
		return nil, err
	}
	return stats, nil
}

// GetProgram fetches a stored procedure's source form
// (GET /v1/programs/{name}).
func (c *Client) GetProgram(name string) (*Program, error) {
	var p Program
	if err := c.roundTrip(context.Background(), http.MethodGet, "/v1/programs/"+name, nil, "", &p, envelopeError); err != nil {
		return nil, err
	}
	return &p, nil
}

// DeleteProgram unregisters a stored procedure
// (DELETE /v1/programs/{name}).
func (c *Client) DeleteProgram(name string) error {
	return c.roundTrip(context.Background(), http.MethodDelete, "/v1/programs/"+name, nil, "", nil, envelopeError)
}

// Invoke runs a stored procedure by name with only the bindings on the
// wire (POST /v1/programs/{name}/invoke), in the WithWire form; a nil
// inv binds nothing.
func (c *Client) Invoke(name string, inv *InvokeRequest) (*ProgramResponse, error) {
	return c.InvokeContext(context.Background(), name, inv)
}

// InvokeContext is Invoke under a caller-supplied context (see
// DoContext).
func (c *Client) InvokeContext(ctx context.Context, name string, inv *InvokeRequest) (*ProgramResponse, error) {
	return exchange(ctx, c, "/v1/programs/"+name+"/invoke", invokeExchange, inv)
}
