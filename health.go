package spmspv

import (
	"context"
	"net/http"
)

// HealthStatus is the reply of GET /v1/health — the lightweight
// liveness probe the membership layer polls shard workers with. It is
// deliberately cheap to serve (registry sizes and static identity, no
// engine work) so probing at a short interval costs the worker
// nothing.
type HealthStatus struct {
	// Status is "ok" whenever the server answers at all; the probe's
	// real signal is the HTTP round trip succeeding.
	Status string `json:"status"`
	// Engine identifies the serving backend: the configured SpMSpV
	// algorithm for a single-process store, "coordinator" for a shard
	// coordinator.
	Engine string `json:"engine"`
	// Matrices and Programs are the registry sizes.
	Matrices int `json:"matrices"`
	Programs int `json:"programs"`
	// UptimeNS is how long the serving process has been up.
	UptimeNS int64 `json:"uptime_ns"`
	// Shards and Replicas describe a coordinator's fleet (band count
	// and largest replica-group size); zero on a plain store.
	Shards   int `json:"shards,omitempty"`
	Replicas int `json:"replicas,omitempty"`
	// MemberEpoch is the coordinator's membership view version; it
	// increments on every member health-state transition.
	MemberEpoch uint64 `json:"member_epoch,omitempty"`
}

// health reports the store's liveness summary for GET /v1/health: the
// engine its entries build and the registry sizes. The server layer
// fills Status and UptimeNS.
func (st *Store) health() HealthStatus {
	cfg := multiplierConfig{alg: Bucket}
	for _, o := range st.opts {
		o(&cfg)
	}
	st.mu.RLock()
	n := len(st.entries)
	st.mu.RUnlock()
	return HealthStatus{
		Engine:   cfg.alg.String(),
		Matrices: n,
		Programs: len(st.programs.list()),
	}
}

// Health is the in-process probe surface (the form the sharded
// coordinator's membership layer calls against local backends): always
// healthy when the store exists, mirroring Client.Health's shape.
func (st *Store) Health(ctx context.Context) (*HealthStatus, error) {
	if err := ctx.Err(); err != nil {
		return nil, wireErrorf(CodeInternal, "%v", err)
	}
	h := st.health()
	h.Status = "ok"
	return &h, nil
}

// Health probes the server's liveness endpoint (GET /v1/health) — the
// call the coordinator's membership layer issues per probe round. Any
// transport or HTTP failure means "not healthy"; the decoded status is
// informational.
func (c *Client) Health(ctx context.Context) (*HealthStatus, error) {
	var h HealthStatus
	if err := c.roundTrip(ctx, http.MethodGet, "/v1/health", nil, "", &h, envelopeError); err != nil {
		return nil, err
	}
	return &h, nil
}
