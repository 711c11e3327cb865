package spmspv_test

import (
	"context"
	"net/http/httptest"
	"testing"

	spmspv "spmspv"
)

// TestHealthEndpoint drives GET /v1/health against both backend kinds:
// a plain store answers its engine and registry sizes, a coordinator
// adds its fleet shape.
func TestHealthEndpoint(t *testing.T) {
	opts := []spmspv.Option{spmspv.WithEngineOptions(engineOptions(1))}
	st := spmspv.NewStore(opts...)
	if err := st.Put("g", smallMatrix(t)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(spmspv.NewServer(st))
	defer srv.Close()

	// JSON form through the client — the membership layer's probe call.
	c := spmspv.NewClient(srv.URL)
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Engine != spmspv.Bucket.String() || h.Matrices != 1 || h.Shards != 0 {
		t.Fatalf("store health: %+v", h)
	}
	if h.UptimeNS <= 0 {
		t.Fatalf("health reports no uptime: %+v", h)
	}

	// Coordinator: fleet shape and membership epoch ride along.
	ss, err := spmspv.NewLocalShardedStore(2, opts, spmspv.WithReplication(2))
	if err != nil {
		t.Fatal(err)
	}
	csrv := httptest.NewServer(spmspv.NewServer(ss))
	defer csrv.Close()
	ch, err := spmspv.NewClient(csrv.URL).Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ch.Engine != "coordinator" || ch.Shards != 2 || ch.Replicas != 2 {
		t.Fatalf("coordinator health: %+v", ch)
	}
}

// smallMatrix builds a tiny fixed matrix for registry-shape tests.
func smallMatrix(t *testing.T) *spmspv.Matrix {
	t.Helper()
	tr := spmspv.NewTriples(4, 4, 4)
	for i := 0; i < 4; i++ {
		tr.Append(spmspv.Index(i), spmspv.Index((i+1)%4), 1)
	}
	a, err := spmspv.NewMatrix(tr)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
