// Command spmspv-serve serves the SpMSpV engine layer over HTTP: a
// matrix registry with one cached, shared engine per matrix, the
// single-multiply endpoint with request coalescing, and the multi-op
// program endpoint that runs whole frontier loops (a BFS, a k-step
// walk) server-side.
//
// Usage:
//
//	spmspv-serve -addr :8090 -preload web=graph.mtx -preload rmat=r.spmb \
//	             [-engine hybrid] [-threads 4] [-par-workers 8] [-batch-window 500us] [-batch-size 8]
//
// Sharded serving: -shards promotes the process to a scatter/gather
// coordinator over row-range shard backends — either N fresh
// in-process stores (-shards 3) or remote spmspv-serve workers
// (-shards http://h1:8090,http://h2:8090). Uploads are row-sliced
// across the backends and every multiply fans out in parallel, each
// shard computing its row range of y; GET /v1/shards reports
// per-replica counters and health states. -shard-of i/n runs a worker
// that preloads only its own row slice, so a coordinator pointed at
// the workers discovers the decomposition without re-uploading:
//
//	spmspv-serve -addr :8091 -shard-of 0/2 -preload web=graph.mtx &
//	spmspv-serve -addr :8092 -shard-of 1/2 -preload web=graph.mtx &
//	spmspv-serve -addr :8090 -shards http://localhost:8091,http://localhost:8092
//
// Replication: each row band may be served by a group of identical
// replicas. With an integer -shards N, -replicas R builds R in-process
// stores per band (N×R in all); with a -shards URL list, -replicas R
// folds the list into groups of R consecutive backends, and "|" inside
// the list groups replicas explicitly (and allows ragged groups):
//
//	spmspv-serve -addr :8090 -shards 2 -replicas 2           # 2 bands × 2 replicas, in-process
//	spmspv-serve -addr :8090 -shards "http://a:1|http://a:2,http://b:1|http://b:2"
//
// Uploads fan every band's piece to all of its replicas; reads pick
// the preferred alive replica and fail over WITHIN the same dispatch
// round when one dies, so killing one replica of an R≥2 group costs a
// counted failover and zero retry rounds. The coordinator
// health-checks workers over GET /v1/health at -probe-interval,
// classifying each alive → suspect → dead; /v1/shards reports the
// states, and serving traffic feeds the same state machine even with
// probing disabled.
//
// Preloaded matrices accept Matrix Market, JSON-wire or binary-wire
// files (sniffed); more matrices can be uploaded at runtime:
//
//	curl -X POST --data-binary @graph.mtx localhost:8090/v1/matrices/web
//	curl localhost:8090/v1/matrices
//	curl -X POST -d '{"matrix":"web","x":{"N":4,"Ind":[0],"Val":[1],"Sorted":true},
//	                  "desc":{"semiring":"arithmetic"}}' localhost:8090/v1/mult
//
// -threads caps the threads one multiply runs on. A multiply uses one
// thread per grain of its flops (Σ nnz(A(:,j)) over x), so the
// per-level multiplies of a high-diameter BFS run inline whatever the
// cap; -par-workers sizes the shared pool the parallel ones run on.
//
// Concurrent single-vector requests against the same matrix coalesce
// into batched multiplies by group commit (-batch-size caps a batch;
// -batch-window bounds the wait behind a flush still in flight, and 0
// turns coalescing off);
// per-matrix request, coalescing and latency counters are reported on
// GET /v1/matrices and logged at shutdown. SIGINT/SIGTERM drain
// in-flight requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	spmspv "spmspv"
)

// preloads collects repeated -preload name=path flags.
type preloads []struct{ name, path string }

func (p *preloads) String() string { return fmt.Sprint(*p) }

func (p *preloads) Set(s string) error {
	name, path, ok := strings.Cut(s, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", s)
	}
	*p = append(*p, struct{ name, path string }{name, path})
	return nil
}

func main() {
	var pre preloads
	var (
		addr       = flag.String("addr", ":8090", "listen address")
		engName    = flag.String("engine", "bucket", strings.Join(spmspv.EngineNames(), ", "))
		threads    = flag.Int("threads", 0, "most worker threads per multiply; smaller multiplies use fewer (0 = GOMAXPROCS)")
		parWorkers = flag.Int("par-workers", -1,
			"process-wide executor pool workers shared by all multiplies (-1 = default GOMAXPROCS-1, 0 = run every multiply inline)")
		window = flag.Duration("batch-window", 500*time.Microsecond,
			"how long a coalesced request waits queued behind a flush still in flight before flushing without it; a request that finds none never waits (0 disables coalescing)")
		batch = flag.Int("batch-size", 8, "max requests per coalesced MultBatch (≤1 disables)")
		wire  = flag.String("wire", "json",
			"default response wire form (json, binary) when a request has no Accept preference")
		cachePath = flag.String("calibration-cache", spmspv.DefaultCalibrationCachePath(),
			"hybrid threshold cache file (empty disables persistence)")
		recalibrate = flag.Bool("recalibrate", false,
			"re-run hybrid threshold calibration even on a cache hit")
		maxBitmap = flag.Int64("max-bitmap-dim", 0,
			"largest bitmap (mask) dimension request decoding will materialize (0 = built-in default)")
		shards = flag.String("shards", "",
			"serve as a shard coordinator: an integer N for N in-process shards, or comma-separated worker base URLs ('|' groups replicas of one band)")
		shardOf = flag.String("shard-of", "",
			"serve as shard worker i of n (\"i/n\"): preloads are row-sliced to this worker's piece")
		shardRetries = flag.Int("shard-retries", 2,
			"retries per failed shard call before the request fails (coordinator mode)")
		shardTimeout = flag.Duration("shard-timeout", 30*time.Second,
			"per-attempt deadline for one shard call (coordinator mode, 0 disables)")
		replicas = flag.Int("replicas", 1,
			"replicas per row band (coordinator mode): with an integer -shards N, each of the N bands gets this many in-process stores; with a -shards URL list, consecutive URLs fold into groups of this size")
		probeInterval = flag.Duration("probe-interval", 2*time.Second,
			"background health-probe period against shard workers (coordinator mode, 0 disables probing)")
		probeTimeout = flag.Duration("probe-timeout", 2*time.Second,
			"per-probe deadline for one worker health check (coordinator mode)")
	)
	flag.Var(&pre, "preload", "name=path matrix to load at boot (repeatable)")
	flag.Parse()

	alg, ok := spmspv.ParseAlgorithm(*engName)
	if !ok {
		log.Fatalf("spmspv-serve: unknown engine %q (have: %s)", *engName, strings.Join(spmspv.EngineNames(), ", "))
	}
	if *maxBitmap != 0 {
		spmspv.SetMaxBitmapDim(*maxBitmap)
	}
	if *parWorkers >= 0 {
		spmspv.SetExecutorWorkers(*parWorkers)
	}
	var defaultWire string
	switch *wire {
	case "json":
		defaultWire = spmspv.ContentTypeJSON
	case "binary":
		defaultWire = spmspv.ContentTypeBinary
	default:
		log.Fatalf("spmspv-serve: unknown wire form %q (want json or binary)", *wire)
	}

	if *shards != "" && *shardOf != "" {
		log.Fatalf("spmspv-serve: -shards (coordinator) and -shard-of (worker) are mutually exclusive")
	}
	storeOpts := []spmspv.Option{
		spmspv.WithAlgorithm(alg),
		spmspv.WithThreads(*threads),
		spmspv.WithSortOutput(true),
		spmspv.WithCalibrationCache(*cachePath, *recalibrate),
	}

	var backend spmspv.ServingStore
	switch {
	case *shards != "":
		ss, err := buildCoordinator(*shards, storeOpts, coordConfig{
			retries:       *shardRetries,
			timeout:       *shardTimeout,
			replicas:      *replicas,
			probeInterval: *probeInterval,
			probeTimeout:  *probeTimeout,
		})
		if err != nil {
			log.Fatalf("spmspv-serve: %v", err)
		}
		defer ss.Close()
		for _, p := range pre {
			a, err := spmspv.ReadMatrixFile(p.path)
			if err != nil {
				log.Fatalf("spmspv-serve: preloading %s: %v", p.name, err)
			}
			if err := ss.Put(p.name, a); err != nil {
				log.Fatalf("spmspv-serve: sharding %s: %v", p.name, err)
			}
			log.Printf("spmspv-serve: preloaded %s across %d shards (%dx%d, %d nnz)",
				p.name, ss.Shards(), a.NumRows, a.NumCols, a.NNZ())
		}
		backend = ss
	default:
		store := spmspv.NewStore(storeOpts...)
		piece, npieces, err := parseShardOf(*shardOf)
		if err != nil {
			log.Fatalf("spmspv-serve: %v", err)
		}
		for _, p := range pre {
			if npieces > 0 {
				// Worker mode: register only this worker's row slice, so a
				// coordinator discovers the decomposition instead of
				// re-uploading it.
				a, err := spmspv.ReadMatrixFile(p.path)
				if err != nil {
					log.Fatalf("spmspv-serve: preloading %s: %v", p.name, err)
				}
				bounds := spmspv.PieceBounds(a.NumRows, npieces)
				lo, hi := bounds[piece], bounds[piece+1]
				if hi <= lo {
					log.Printf("spmspv-serve: %s piece %d/%d is empty, not registered", p.name, piece, npieces)
					continue
				}
				if err := store.Put(p.name, spmspv.RowSlice(a, lo, hi)); err != nil {
					log.Fatalf("spmspv-serve: preloading %s: %v", p.name, err)
				}
			} else if err := store.PutFile(p.name, p.path); err != nil {
				log.Fatalf("spmspv-serve: preloading %s: %v", p.name, err)
			}
			// Build the engine (and any hybrid calibration) at boot rather
			// than on the first request.
			mu, err := store.Load(p.name)
			if err != nil {
				log.Fatalf("spmspv-serve: building engine for %s: %v", p.name, err)
			}
			log.Printf("spmspv-serve: preloaded %s: %s (engine %s)", p.name, mu.Matrix(), alg)
		}
		backend = store
	}

	srv := spmspv.NewServer(backend,
		spmspv.WithBatchWindow(*window),
		spmspv.WithBatchSize(*batch),
		spmspv.WithDefaultWire(defaultWire),
	)
	hs := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("spmspv-serve: listening on %s (engine %s, batch window %v, batch size %d)",
			*addr, alg, *window, *batch)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("spmspv-serve: %v", err)
		}
	case <-ctx.Done():
		log.Printf("spmspv-serve: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			log.Printf("spmspv-serve: shutdown: %v", err)
		}
	}

	for _, stat := range backend.StatsAll() {
		s := stat.Serve
		log.Printf("spmspv-serve: %s: %d requests (%d failed), %d coalesced in %d batches, avg %v max %v",
			stat.Name, s.Requests, s.Failures, s.Coalesced, s.Batches,
			time.Duration(s.AvgLatencyNS), time.Duration(s.MaxLatencyNS))
	}
	for _, stat := range backend.Programs() {
		s := stat.Serve
		log.Printf("spmspv-serve: program %s (%d ops): %d invokes (%d failed), avg %v max %v",
			stat.Name, stat.Ops, s.Requests, s.Failures,
			time.Duration(s.AvgLatencyNS), time.Duration(s.MaxLatencyNS))
	}
	if ss, ok := backend.(*spmspv.ShardedStore); ok {
		for _, st := range ss.ShardStats() {
			s := st.Serve
			log.Printf("spmspv-serve: shard %d replica %d (%s, %s, epoch %d): %d requests (%d failed), %d retries, %d failovers, %d probe failures, avg %v max %v",
				st.Shard, st.Replica, st.Addr, st.State, st.MemberEpoch,
				s.Requests, s.Failures, s.Retries, s.Failovers, st.ProbeFailures,
				time.Duration(s.AvgLatencyNS), time.Duration(s.MaxLatencyNS))
		}
	}
}

// coordConfig carries the coordinator-mode flags into buildCoordinator.
type coordConfig struct {
	retries       int
	timeout       time.Duration
	replicas      int
	probeInterval time.Duration
	probeTimeout  time.Duration
}

// buildCoordinator interprets the -shards flag: a bare integer N spins
// up N in-process bands (-replicas stores each); anything else is a
// comma-separated list of worker base URLs reached over HTTP, where
// "|" groups the replicas of one band (a flat list folds into groups
// of -replicas consecutive URLs).
func buildCoordinator(spec string, storeOpts []spmspv.Option, cfg coordConfig) (*spmspv.ShardedStore, error) {
	shardOpts := []spmspv.ShardOption{
		spmspv.WithShardRetries(cfg.retries),
		spmspv.WithShardTimeout(cfg.timeout),
		spmspv.WithReplication(cfg.replicas),
		spmspv.WithProbeInterval(cfg.probeInterval),
		spmspv.WithProbeTimeout(cfg.probeTimeout),
	}
	if n, err := strconv.Atoi(spec); err == nil {
		if n < 1 {
			return nil, fmt.Errorf("-shards %d: want at least one shard", n)
		}
		return spmspv.NewLocalShardedStore(n, storeOpts, shardOpts...)
	}
	if strings.Contains(spec, "|") {
		// Explicit replica groups: bands split on ",", replicas on "|".
		var groups [][]spmspv.ShardBackend
		var labels []string
		for _, band := range strings.Split(spec, ",") {
			var g []spmspv.ShardBackend
			for _, u := range strings.Split(band, "|") {
				u = strings.TrimSpace(u)
				if u == "" {
					continue
				}
				g = append(g, spmspv.NewClient(u, spmspv.WithTimeout(cfg.timeout)))
				labels = append(labels, u)
			}
			if len(g) > 0 {
				groups = append(groups, g)
			}
		}
		if len(groups) == 0 {
			return nil, fmt.Errorf("-shards %q: no worker URLs", spec)
		}
		return spmspv.NewReplicatedShardedStore(groups,
			append(shardOpts, spmspv.WithShardLabels(labels))...)
	}
	urls := strings.Split(spec, ",")
	backends := make([]spmspv.ShardBackend, 0, len(urls))
	labels := make([]string, 0, len(urls))
	for _, u := range urls {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		backends = append(backends, spmspv.NewClient(u, spmspv.WithTimeout(cfg.timeout)))
		labels = append(labels, u)
	}
	if len(backends) == 0 {
		return nil, fmt.Errorf("-shards %q: no worker URLs", spec)
	}
	return spmspv.NewShardedStore(backends, append(shardOpts, spmspv.WithShardLabels(labels))...)
}

// parseShardOf parses the -shard-of "i/n" worker spec. An empty spec
// returns npieces 0 (not a shard worker).
func parseShardOf(spec string) (piece, npieces int, err error) {
	if spec == "" {
		return 0, 0, nil
	}
	is, ns, ok := strings.Cut(spec, "/")
	if !ok {
		return 0, 0, fmt.Errorf("-shard-of %q: want i/n", spec)
	}
	piece, err = strconv.Atoi(strings.TrimSpace(is))
	if err != nil {
		return 0, 0, fmt.Errorf("-shard-of %q: %v", spec, err)
	}
	npieces, err = strconv.Atoi(strings.TrimSpace(ns))
	if err != nil {
		return 0, 0, fmt.Errorf("-shard-of %q: %v", spec, err)
	}
	if npieces < 1 || piece < 0 || piece >= npieces {
		return 0, 0, fmt.Errorf("-shard-of %q: want 0 <= i < n", spec)
	}
	return piece, npieces, nil
}
