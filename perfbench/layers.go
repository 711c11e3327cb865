package main

// Per-layer metrics. Each group names the end-to-end figure it should
// move; BENCHMARK.json lists them all. Times and counts are per op (one
// BFS, or one request of mult-mix-sharded) unless the name says
// otherwise, and a layer a workload never reaches reads 0.
//
//   - core.*, par.*: a replay of the op's kernel calls — the per-level
//     frontiers of a BFS, or a request's x against each row band —
//     through spmspv.Multiplier.Mult (core.mult_us) and through the
//     bucket engine's core.Multiplier, whose step timer and work
//     counters give the paper's per-step view.
//   - sparse.*, engine.*, dataflow.compilations, runtime.*, server.*
//     (except self), client.*, store.do_us, shard.retries/failovers and
//     cluster.*: the traced half of the load.
//   - dataflow.invoke_us/iters/self/overhead_ratio, server.self_us,
//     shard.scatter/self/imbalance/put_fanout and wire.*_bytes_per_op: a
//     fixed, seed-chosen probe of ops run one at a time, so every span
//     has an unambiguous parent. A layer's self time is its span minus
//     the part covered by its children; where the child layer cannot be
//     wrapped from outside the package (Store.Invoke behind the
//     handler), the same op is repeated against the child directly and
//     the two spans are subtracted.
//   - store.put_ms/load_ms and wire.matrix_decode_ms: direct calls on
//     a scratch Store and on the upload body.
//   - trace.overhead_frac: the untraced half of the same in-process run
//     against the traced half (ops_per_s for the closed loops; CPU per
//     op for the open loop, whose throughput is its offered rate).

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	spmspv "spmspv"
	"spmspv/internal/core"
	"spmspv/internal/dataflow"
	"spmspv/internal/engine"
	"spmspv/internal/perf"
	"spmspv/internal/sparse"
)

// zeroLayers presets every per-layer metric to 0; workloads overwrite
// the layers they reach.
func zeroLayers(rep *report) {
	for _, m := range perLayer {
		rep.set(m.name, 0, m.unit)
	}
}

// rtSnap is a reading of the process-wide counters a phase is judged by.
type rtSnap struct {
	mallocs, bytes    uint64
	gcCPU, totalCPU   float64
	selfCPU           float64
	plans, programs   int64
	conv, outConv     int64
	coalesced, batchs int64
}

func takeSnap(srv *spmspv.Server) rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	conv, _ := sparse.FrontierConversions()
	outConv, _ := sparse.FrontierOutputStats()
	snap := rtSnap{
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(),
		selfCPU: selfCPUMS(),
		plans:   engine.PlanCompilations(), programs: dataflow.Compilations(),
		conv: conv, outConv: outConv,
	}
	if srv != nil {
		snap.coalesced, snap.batchs = srv.BatcherStats()
	}
	return snap
}

// phaseLayers sets the metrics read from counter deltas over a traced
// phase of ops ops (singles: the coalescable requests among them).
func phaseLayers(rep *report, a, b rtSnap, ops, singles int64) {
	n := float64(ops)
	if n == 0 {
		return
	}
	rep.set("runtime.allocs_per_op", float64(b.mallocs-a.mallocs)/n, "count")
	rep.set("runtime.alloc_bytes_per_op", float64(b.bytes-a.bytes)/n, "bytes")
	if d := b.totalCPU - a.totalCPU; d > 0 {
		rep.set("runtime.gc_cpu_frac", (b.gcCPU-a.gcCPU)/d, "frac")
	}
	rep.set("sparse.frontier_conversions_per_op", float64(b.conv-a.conv)/n, "count")
	rep.set("sparse.output_conversions_per_op", float64(b.outConv-a.outConv)/n, "count")
	rep.set("engine.plan_compilations", float64(b.plans-a.plans), "count")
	rep.set("dataflow.compilations", float64(b.programs-a.programs), "count")
	if singles > 0 {
		rep.set("server.coalesced_frac", float64(b.coalesced-a.coalesced)/float64(singles), "frac")
	}
	if nb := b.batchs - a.batchs; nb > 0 {
		rep.set("server.batch_fill", float64(b.coalesced-a.coalesced)/float64(nb), "count")
	}
}

// meanSpan returns the mean duration in µs of the spans named name.
func meanSpan(spans []span, name string) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(s.dur())/1e3)
		}
	}
	return mean(xs)
}

// children groups spans by parent id.
func children(spans []span) map[int64][]span {
	out := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// selfTime is s's duration minus the union of its children's
// intervals (clipped to s).
func selfTime(s span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), int64(math.MinInt64)
	for _, v := range ivs {
		if v.a > end {
			covered += v.b - v.a
			end = v.b
		} else if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return s.dur() - time.Duration(covered)
}

// kernelStep is one multiply of a replayed op: x against row band
// band's engines, under an optional complemented mask.
type kernelStep struct {
	band int
	x    *spmspv.Vector
	mask *spmspv.BitVector
	sr   spmspv.Semiring
	want *spmspv.Vector
}

// kernel is one matrix's engine pair for the replay: the public
// Multiplier and a bucket-engine core.Multiplier with the same options.
type kernel struct {
	m *spmspv.Multiplier
	c *core.Multiplier
}

func newKernel(a *spmspv.Matrix, opt spmspv.Options) (kernel, error) {
	m, err := spmspv.NewMultiplier(a, spmspv.WithEngineOptions(opt))
	if err != nil {
		return kernel{}, err
	}
	return kernel{m: m, c: core.NewMultiplier(a, opt.WithDefaults())}, nil
}

// replayStats aggregates a replay: step times and wall times summed
// over ops, work counters merged.
type replayStats struct {
	ops                                   int
	mult, estimate, bucket, merge, output time.Duration
	coreWall                              time.Duration
	work                                  perf.Counters
	perOpMult                             []time.Duration
}

// replay runs ops through both engines of their bands, checking every
// product against its oracle. Each op is a "replay.op" span with one
// "engine.mult" and one "core.mult" child per step.
func replay(tr *tracer, kernels []kernel, ops [][]kernelStep) (replayStats, error) {
	var rs replayStats
	for q, steps := range ops {
		var opMult time.Duration
		var err error
		tr.record("replay.op", 0, int64(q), func(opID int64) {
			for _, s := range steps {
				k := kernels[s.band]
				d := spmspv.Desc{}
				if s.mask != nil {
					d = spmspv.Desc{Mask: s.mask, Complement: true}
				}
				x := spmspv.NewFrontier(s.x)
				y := k.m.NewOutputFrontier()
				opMult += tr.record("engine.mult", opID, int64(q), func(int64) { k.m.Mult(x, y, s.sr, d) })
				if e := sameVector(y.List(), s.want); e != nil && err == nil {
					err = fmt.Errorf("replayed multiply of op %d: %v", q, e)
				}

				k.c.ResetCounters()
				xc := sparse.NewFrontier(s.x)
				yc := sparse.NewOutputFrontier(s.want.N)
				rs.coreWall += tr.record("core.mult", opID, int64(q), func(int64) {
					if s.mask != nil {
						k.c.MultiplyIntoMasked(xc, yc, s.sr, s.mask, true)
					} else {
						k.c.MultiplyInto(xc, yc, s.sr)
					}
				})
				st := k.c.Steps()
				rs.estimate += st.Estimate
				rs.bucket += st.Bucket
				rs.merge += st.Merge + st.Sort
				rs.output += st.Output
				c := k.c.Counters()
				rs.work.Merge(&c)
				if e := sameVector(yc.List(), s.want); e != nil && err == nil {
					err = fmt.Errorf("replayed core multiply of op %d: %v", q, e)
				}
			}
		})
		if err != nil {
			return rs, err
		}
		rs.mult += opMult
		rs.perOpMult = append(rs.perOpMult, opMult)
		rs.ops++
	}
	return rs, nil
}

// entries is the paper's work measure: entries touched, i.e.
// perf.Counters.Work without SyncEvents, whose count of failed dynamic
// bucket claims depends on how many pool workers joined a call.
func (rs replayStats) entries() int64 { return rs.work.Work() - rs.work.SyncEvents }

// counts are the replay's deterministic per-op work counts.
func (rs replayStats) counts() map[string]float64 {
	n := float64(rs.ops)
	return map[string]float64{
		"core.flops_per_op":         float64(rs.work.MatrixTouched) / n,
		"core.work_per_op":          float64(rs.entries()) / n,
		"core.spa_init_per_op":      float64(rs.work.SPAInit) / n,
		"core.bucket_writes_per_op": float64(rs.work.BucketWrites) / n,
		"par.chunks_per_op":         float64(rs.work.ChunkClaims+rs.work.Steals) / n,
	}
}

// into sets the core.* and par.* metrics.
func (rs replayStats) into(rep *report, threads int) {
	if rs.ops == 0 {
		return
	}
	n := float64(rs.ops)
	us := func(d time.Duration) float64 { return float64(d) / 1e3 / n }
	rep.set("core.mult_us", us(rs.mult), "us")
	rep.set("core.estimate_us", us(rs.estimate), "us")
	rep.set("core.bucket_us", us(rs.bucket), "us")
	rep.set("core.merge_us", us(rs.merge), "us")
	rep.set("core.output_us", us(rs.output), "us")
	for k, v := range rs.counts() {
		rep.set(k, v, "count")
	}
	if rs.work.MatrixTouched > 0 {
		rep.set("core.work_per_flop", float64(rs.entries())/float64(rs.work.MatrixTouched), "ratio")
	}
	rep.set("par.steals_per_op", float64(rs.work.Steals)/n, "count")
	if rs.coreWall > 0 {
		rep.set("par.idle_frac", float64(rs.work.IdleNs)/(float64(threads)*float64(rs.coreWall)), "frac")
	}
}

// checkRepeat compares the deterministic counts of two probe passes,
// and of earlier runs of the same build with the same workload, seed and
// thread count (kept under dir); any difference is reported as an error.
// Records are keyed by a hash of this binary, which links the library it
// measures, so counts from different code are never compared.
func checkRepeat(rep *report, dir string, first, second map[string]float64) {
	rep.Counts = second
	for _, k := range sortedKeys(first) {
		if first[k] != second[k] {
			rep.errorf("work count %s drifted within the run: %v then %v", k, first[k], second[k])
		}
	}
	if dir == "" {
		return
	}
	build, err := buildID()
	if err != nil {
		rep.Params["repeat_check"] = fmt.Sprintf("within the run only (no build id: %v)", err)
		return
	}
	rep.Params["build_id"] = build
	smoke := ""
	if rep.Smoke {
		smoke = "-smoke"
	}
	path := filepath.Join(dir, fmt.Sprintf("counts-%s-seed%d-t%d%s-%s.json", rep.Workload, rep.Seed, rep.NProc, smoke, build))
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if json.Unmarshal(b, &prev) == nil {
			for _, k := range sortedKeys(second) {
				if pv, ok := prev[k]; ok && pv != second[k] {
					rep.errorf("work count %s drifted from an earlier run of the same build: %v then %v", k, pv, second[k])
				}
			}
			return
		}
	}
	if err := os.MkdirAll(dir, 0o755); err == nil {
		b, _ := json.Marshal(second)
		_ = os.WriteFile(path, b, 0o644)
	}
}

// buildID is a short hash of the running executable.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// storeLayer times Store.Put and Store.Load (the engine build) of a
// on a scratch store, and DecodeMatrix of a's upload body.
func storeLayer(tr *tracer, rep *report, a *spmspv.Matrix, opts []spmspv.Option) error {
	var body bytes.Buffer
	if err := spmspv.EncodeMatrixBinary(&body, a); err != nil {
		return err
	}
	const reps = 3
	var put, load, dec time.Duration
	for i := 0; i < reps; i++ {
		st := spmspv.NewStore(opts...)
		var err error
		put += tr.record("store.put", 0, 0, func(int64) { err = st.Put("scratch", a) })
		if err != nil {
			return err
		}
		load += tr.record("store.load", 0, 0, func(int64) { _, err = st.Load("scratch") })
		if err != nil {
			return err
		}
		dec += tr.record("wire.matrix_decode", 0, 0, func(int64) {
			_, err = spmspv.DecodeMatrix(bytes.NewReader(body.Bytes()))
		})
		if err != nil {
			return err
		}
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 / reps }
	rep.set("store.put_ms", ms(put), "ms")
	rep.set("store.load_ms", ms(load), "ms")
	rep.set("wire.matrix_decode_ms", ms(dec), "ms")
	return nil
}

// codecLayer replays the captured request and response bodies through
// the exported wire codecs: decode of each request, encode of each
// (decoded) response.
func codecLayer(tr *tracer, rep *report) error {
	tr.capMu.Lock()
	calls := append([]capturedCall(nil), tr.captured...)
	tr.capMu.Unlock()
	var dec, enc []float64
	for _, c := range calls {
		var err error
		var encode func() error
		switch {
		case c.path == "/v1/mult":
			d := tr.record("wire.decode", 0, 0, func(int64) {
				_, err = spmspv.DecodeRequestBinary(bytes.NewReader(c.req))
			})
			dec = append(dec, float64(d)/1e3)
			if c.respBinary {
				resp, e := spmspv.DecodeResponseBinary(bytes.NewReader(c.resp))
				if e != nil {
					return fmt.Errorf("decoding a captured mult response: %v", e)
				}
				encode = func() error { return spmspv.EncodeResponseBinary(&bytes.Buffer{}, resp) }
			}
		case strings.HasSuffix(c.path, "/invoke"):
			d := tr.record("wire.decode", 0, 0, func(int64) {
				_, err = spmspv.DecodeInvokeRequestBinary(bytes.NewReader(c.req))
			})
			dec = append(dec, float64(d)/1e3)
			if c.respBinary {
				resp, e := spmspv.DecodeProgramResponseBinary(bytes.NewReader(c.resp))
				if e != nil {
					return fmt.Errorf("decoding a captured invoke response: %v", e)
				}
				encode = func() error { return spmspv.EncodeProgramResponseBinary(&bytes.Buffer{}, resp) }
			}
		default:
			continue
		}
		if err != nil {
			return fmt.Errorf("decoding a captured %s request: %v", c.path, err)
		}
		if encode != nil {
			d := tr.record("wire.encode", 0, 0, func(int64) { err = encode() })
			if err != nil {
				return err
			}
			enc = append(enc, float64(d)/1e3)
		}
	}
	rep.set("wire.decode_us", mean(dec), "us")
	rep.set("wire.encode_us", mean(enc), "us")
	return nil
}

// dumpSpans writes the run's spans under dir.
func dumpSpans(tr *tracer, rep *report, dir string) {
	if dir == "" {
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", rep.Workload, rep.Seed))
	if err := tr.dump(path); err != nil {
		rep.errorf("writing spans: %v", err)
	}
}
