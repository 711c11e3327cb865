// Package spmspv is a work-efficient parallel sparse matrix–sparse
// vector multiplication (SpMSpV) library — a from-scratch Go
// reproduction of:
//
//	A. Azad and A. Buluç, "A work-efficient parallel sparse
//	matrix-sparse vector multiplication algorithm", IPDPS 2017.
//	DOI 10.1109/IPDPS.2017.76.
//
// SpMSpV computes y ← A·x where the matrix A, the input vector x and
// the output vector y are all sparse. It is the workhorse of
// frontier-based graph algorithms (BFS, connected components, maximal
// independent set, data-driven PageRank, shortest paths) and a core
// primitive of the GraphBLAS standard: the current frontier is x, the
// graph is A, and the next frontier is y.
//
// The library's default engine is the paper's SpMSpV-bucket algorithm:
// a vector-driven, synchronization-avoiding three-step scheme (bucket →
// merge → concatenate, with a lock-free counting pre-pass) whose total
// work is O(df) — proportional to the arithmetic actually required —
// independent of the thread count. The competing algorithms the paper
// evaluates (CombBLAS-SPA, CombBLAS-heap, GraphMat's matrix-driven
// scheme, and the GPU-style sort-based scheme) are faithfully
// reimplemented and selectable, and the §V direction-switch extension
// is a first-class Hybrid engine that picks a side per call by the
// paper's cost rule: matrix-driven iff the call's flops reach a fixed
// multiple of the matrix's nonempty columns (Options.HybridThreshold
// pins a density threshold instead).
//
// # Quick start
//
//	t := spmspv.NewTriples(4, 4, 4)
//	t.Append(1, 0, 2.0) // A(1,0) = 2
//	t.Append(2, 1, 3.0)
//	a, _ := spmspv.NewMatrix(t)
//
//	x := spmspv.NewVector(4, 1)
//	x.Append(0, 10) // x(0) = 10
//
//	mu, _ := spmspv.NewMultiplier(a)
//	yf := mu.NewOutputFrontier()
//	mu.Mult(spmspv.NewFrontier(x), yf, spmspv.Arithmetic, spmspv.Desc{})
//	// yf.List() has y(1) = 20
//
// Multiplication is semiring-generic: pass Arithmetic for numerics,
// MinPlus for shortest paths, MinSelect2nd for BFS parents, BoolOrAnd
// for reachability — or name one in Desc.Semiring, the wire form.
//
// # One multiply: Mult and the descriptor
//
// Mult(x, y, sr, d) is the single multiply entry point, parameterized
// by a GraphBLAS-style descriptor (the CombBLAS shape: one primitive,
// capabilities as parameters) instead of one method per capability.
// The JSON-serializable Desc carries the mask and its polarity, the
// accumulate switch, the transpose (§II-A left multiplication), the
// requested output representation, the batch width and the semiring
// name; MultBatch is the same call over a batch with per-slot masks.
//
// Every call reads its descriptor afresh, as GraphBLAS passes one with
// every call: what it selects around the engine's multiply (the output
// bitmap, the accumulate union, the OutputBitmap materialize) is three
// tests. Request/Response wrap a whole call as JSON (Multiplier.Do
// executes one) — the wire contract the serving layer speaks.
//
// # Serving: Store, Server, Program, Client
//
// The serving layer turns the in-process engine into a network
// service, in four pieces that stack on the wire contract:
//
//	Client ──HTTP──> Server (/v1/mult, /v1/program, /v1/programs/{name},
//	   \    JSON or     |    /v1/matrices, /v1/shards, /v1/health)
//	    \   binary      |    Accept/Content-Type negotiation,
//	     \  wire        |    request coalescing → MultBatch
//	      \             v
//	       +──same──> Store ──or── ShardedStore   row-split scatter/gather
//	        Executor    |  \         |            coordinator; with
//	        interface   |   \        |            WithReplication(R):
//	                    |    \       v
//	                    |     \   band 0: [replica 0 | replica 1 | …]
//	                    |      \  band 1: [replica 0 | replica 1 | …]
//	                    |       \    |    (each replica a Store/Client)
//	                    |        \   v
//	                    |     internal/cluster.Membership
//	                    |         alive → suspect → dead per member,
//	                    |         epoch-versioned Views, /v1/health probes;
//	                    |         reads pick the preferred alive replica
//	                    |         and fail over IN-ROUND on death
//	                    |
//	                    |   programRegistry       named stored procedures,
//	                    v    (internal/dataflow)  compiled once at PUT
//	                Multiplier.Do / Mult / MultBatch
//
// A Store (NewStore) is the registry of named matrices: Put/PutFile
// register, Load lazily builds and caches ONE shared Multiplier per
// matrix — legal because of the concurrency contract below — so every
// request reuses its engine.
// Matrices travel in three encodings (Matrix Market, a JSON wire form,
// a compact binary form), sniffed by one decoder, so they can be
// uploaded, not just preloaded from disk.
//
// A Server (NewServer) mounts the store over HTTP. Concurrent
// single-vector requests against the same matrix coalesce into one
// MultBatch by group commit (WithBatchSize), amortizing per-call engine
// setup across callers that never see each other and never wait for
// company; WithBatchWindow bounds how long a request waits queued
// behind a flush still in flight. A Program is the dataflow wire form:
// ops whose inputs reference earlier ops' outputs ("$0"-style), with scalar
// registers (reduce/scale/axpy/prune) and bounded loops whose carries
// ("^i") thread values across iterations and whose until_empty /
// until_below exits encode convergence — so a whole BFS (BFSProgram,
// two ops at any depth) or a converging PageRank (PageRankProgram)
// runs server-side in one round trip, interpreted by
// internal/dataflow. Programs can also be registered as named stored
// procedures (PUT /v1/programs/{name}): compiled once at registration,
// invoked by name with only seed vectors and scalar bindings on the
// wire (POST .../invoke), with per-program serving counters on GET
// /v1/programs — warm invoke traffic compiles nothing and ships less
// than resending the op list. Loops run their accumulator unions in
// place and recycle dead multiply outputs, so a served BFS level costs
// no O(n) allocation or bitmap conversion. An accumulator union writes
// only its bitmap and queues its new indices; the sorted list is merged
// once, when something reads it as a list, so a BFS, which reads its
// visited set only as a mask, pays O(frontier) per level for it, not
// O(visited). A program that emits a NaN
// or ±Inf scalar fails with invalid_request: neither wire form can
// carry one. A Client implements the same Do/Run surface as the
// Store (the Executor interface), so algorithm code is
// transport-agnostic, and failures carry structured wire errors
// (Response.Err: code + message) either way. cmd/spmspv-serve wires it
// all together with -preload, graceful shutdown and per-matrix
// request/latency counters.
//
// A ShardedStore (NewShardedStore / NewLocalShardedStore) is the
// horizontal version of a Store: the paper's 1D row-split — already
// the intra-process work division — promoted to the unit of
// distribution. Put splits a matrix into N contiguous row bands
// (RowSlice over PieceBounds) and uploads one band per shard backend
// (in-process Stores or remote spmspv-serve workers via Client); every
// Do/Run scatters in parallel — shard w computes its rows of y against
// the full x — and gathers by concatenation, which is exact because
// row bands are disjoint (transpose is rejected: row pieces of A are
// column pieces of Aᵀ, whose partial products would need a semiring
// merge). Failed shard calls retry with exponential backoff
// (WithShardRetries / WithShardTimeout), so a shard dying mid-program
// degrades to a retried round; per-shard counters surface on
// ShardStats and GET /v1/shards. The coordinator satisfies the same
// ServingStore surface as a Store, so NewServer, coalescing, both wire
// forms and the Client work unchanged — spmspv-serve's -shards flag
// serves a coordinator, -shard-of i/n a worker holding one preloaded
// row slice that coordinators discover lazily.
//
// WithReplication(R) (or NewReplicatedShardedStore for explicit
// groups) keeps R full copies of every row band behind a
// health-checked membership subsystem (internal/cluster): each member
// walks alive → suspect → dead on consecutive failures — reported
// passively by every serving-path call and actively by a GET
// /v1/health probe loop (WithProbeInterval) — any success restores it
// to alive, and the epoch-versioned View advances only on state
// transitions. Put fans each band's piece to all of its replicas (a
// partial failure rolls back the copies that landed); reads take one
// consistent View per scatter, send each band to its preferred alive
// replica, and on a retryable failure fail over to the next replica
// WITHIN the same dispatch round — a replica dying mid-BFS costs a
// failover counter tick, zero retry rounds, and a bit-identical
// result. Only a fully dead group falls back to the bounded
// retry/backoff loop. Per-replica state, failovers, probe failures
// and the membership epoch ride on ShardStats, GET /v1/shards and the
// shutdown log; /v1/health answers JSON on every server with engine,
// registry sizes and — on a coordinator — the fleet shape.
//
// The request endpoints (mult, program and stored-program invoke)
// speak two wire forms, negotiated per request: JSON (the default for
// clients that express no preference) and a binary envelope
// (ContentTypeBinary) that keeps the structured header as JSON but
// ships every vector as a framed SPVB section — raw little-endian
// arrays, bitmap outputs as raw uint64 words — removing the
// per-request float-formatting tax that dominated JSON serving. The
// server sniffs request bodies and honors Accept; the Client sends
// binary by default (WithWire pins JSON for JSON-only servers) and
// decodes each reply by its Content-Type; cmd/spmspv-serve's -wire
// flag sets the server default. DecodeVector sniffs SPVB vs JSON vs
// text, mirroring DecodeMatrix.
//
// # Architecture: the engine layer
//
// Every algorithm implements internal/engine.Engine, one interface: a
// single-call and a batch multiply (frontier in, frontier out, an
// optional output mask, and a flag asking for the native output
// bitmap) plus deterministic work counters. Engines without a native
// batch path run their batches through one shared loop helper. Each
// engine registers a constructor with the internal/engine registry
// from init (the database/sql driver pattern), together with its short
// CLI aliases (ParseAlgorithm and EngineNames both derive from the
// registry). The public facade, the graph algorithms, the benchmark
// harness and the commands all construct engines exclusively through
// that registry; NewMultiplier(a, opts...) is the constructor —
// functional options, an error for unregistered algorithms — and
// Algorithms lists what is registered.
//
// # Concurrency contract
//
// A Multiplier (and every registry-constructed engine) is safe for
// concurrent Mult / MultBatch calls — with any descriptor: masked,
// accumulating, transposed — from any number of goroutines. Per-call
// scratch state (the bucket workspace of §III-A, the baselines'
// row-split SPAs, heaps and bitvectors) lives in a fixed array of
// slot-pinned workspaces (internal/par.Slots): a caller claims the
// lowest free slot, so a single iterative caller reuses slot 0's warm
// workspace every call — the paper's preallocate-once behavior — and
// up to GOMAXPROCS concurrent callers each hold a stable, cache-warm
// slot. Callers beyond that spill to a sync.Pool fallback (slot -1),
// so oversubscription degrades to pooled allocation instead of
// blocking. Work counters are folded into one aggregate under a lock
// when each call retires, and the transpose engine behind
// Desc.Transpose is built exactly once. Parallelism also exists inside
// each call (Options.Threads), so throughput can be scaled either way.
//
// # Scheduler: the persistent work-stealing executor
//
// All intra-call parallelism runs on one process-wide pool of
// long-lived workers (internal/par), sized GOMAXPROCS-1 so the
// calling goroutine always participates as worker 0; SetExecutorWorkers
// (or spmspv-serve's -par-workers flag) resizes it at startup, and
// n <= 0 forces every parallel region inline. A fork-join Run hands
// each worker a bounded work-stealing deque of task ranges: a worker
// drains its own deque front-to-back and steals from the back of a
// victim's when empty, so the engines can over-decompose (about 8
// chunks per worker) and irregular degree distributions rebalance
// without per-call goroutine spawns. At Threads <= 1, or when the pool
// is empty, dispatch is a plain inline loop with zero scheduling
// overhead. Options.Threads is an upper bound: the bucket kernel runs
// each call on one thread per grain of its flops (Σ nnz(A(:,j)) over
// x), so a call too small to be worth a fork-join — every level of a
// high-diameter BFS — takes that inline loop.
//
// Worker ids are job-local and dense (0..p-1, stable for the duration
// of one Run barrier), so per-job state may be indexed by worker id —
// but ids are NOT stable across jobs; state that must survive a call
// is pinned by slot through par.Slots instead. Chunk identity, never
// the executing worker, determines where an output entry lands, so
// results are bit-identical across the static, dynamic and stealing
// schedules (Options.MergeSched / the facade's SchedStatic,
// SchedDynamic, SchedStealing) and across runs. Counters therefore
// split into deterministic work counters (unchanged at a fixed thread
// count) and scheduling observability — ChunkClaims, Steals, IdleNs —
// which "go test"-style variance is allowed to move;
// "spmspv-bench -experiment scaling" sweeps all three schedules and
// reports ns/op, claims, steals and per-thread idle time.
//
// # Frontier representations
//
// A sparse vector reaches engines in one of the two §II-C
// representations: the (index, value) list the vector-driven
// algorithms scan, or the O(n) bitmap GraphMat's matrix-driven loop
// probes. A Frontier (NewFrontier) carries both, materializing the
// bitmap lazily at most once and sharing it across consumers; feed it
// through Multiplier.Mult and a bitmap-preferring engine (GraphMat, the
// Hybrid engine's matrix-driven calls) skips its per-call list→bitmap
// conversion whenever an earlier consumer already paid for it.
// Conversions are pooled and counted (Counters.FrontierConversions). A
// loop that rebuilds a wrapped vector in place calls Frontier.SetList
// before the rebuild, while the list still matches the bitmap built
// from it; the stale bits are erased from that list.
//
// # Output frontiers and masked pipelines
//
// Outputs are symmetric with inputs: Multiplier.Mult writes the result
// into an output Frontier —
//
//	input Frontier ──> engine ──> output Frontier ──> next input ...
//
// Engines with native output support (Bucket, GraphMat, Hybrid) emit
// the bitmap representation in the same pass that writes the list.
// BFS, BFSMasked, MultiBFS and ConnectedComponents all run as such
// pipelines; BFSMasked is the conversion-free one — its masked
// product needs no filtering, so each output frontier survives intact
// and a direction-optimized Hybrid engine probes natively-emitted
// bitmaps on every dense level with zero list→bitmap conversions
// (Counters.OutputConversions and FrontierOutputStats prove it). The
// filtering pipelines (plain BFS, components) take the list-only path
// instead, since their refine step would erase a native bitmap before
// anything read it (Desc{Output: OutputList} tells the engine to skip
// the bitmap). Engines that only speak lists leave their output bitmap
// lazy. Every registered engine pushes the §V output mask into its own
// merge step, so BFSMasked compares all six engines.
//
// # Batched multiplies and multi-source BFS
//
// Multiplier.MultBatch multiplies a batch of frontiers in one pass.
// The bucket engine shares its Estimate/bucket-sizing pass, workspace
// checkout and merge scheduling across the batch — the per-frontier
// marginal cost approaches the pure O(df) work term, which is what the
// sparse ramp-up levels of a multi-source BFS are dominated by. Its
// single multiply is the same k-frontier kernel run as a batch of one,
// so every bucket option, the staging and ∞-sentinel ablations
// included, applies to batches alike. Engines without a native batch
// path run the shared loop, which still emits each slot's bitmap
// natively when the engine can; results are always exactly those of
// the loop. The batched Step 3 emits every slot's output bitmap
// natively (and per-slot masks push into the batched merge), so
// MultiBFSMasked — one masked BFS per source, all expanded through one
// batched call per level — is conversion-free end to end, exactly like
// single-source BFSMasked. MultiBFS runs the plain (refining) variant.
//
// # Semiring op specialization
//
// Semiring operations carry enum tags (semiring.AddOp / semiring.MulOp)
// beside the func fields. The bucket engine's hot loops — Step 1
// scatter and Step 2 SPA merge, where Add/Mul run once per matrix
// nonzero touched — dispatch once per call on those tags to loops with
// the operation inlined, and the CombBLAS-SPA / GraphMat accumulate
// loops dispatch once per column to shared monomorphized SPA kernels,
// so all seven predefined semirings run with no per-nonzero
// function-pointer calls (~20-25% faster multiplies). User-defined
// semirings leave the tags AddCustom/MulCustom and take the
// func-valued loops, exactly the cost every semiring paid before.
//
// See README.md for the architecture tour and EXPERIMENTS.md for the
// reproduction of every table and figure in the paper's evaluation
// plus the hybrid-threshold and batch-size sweeps.
package spmspv
