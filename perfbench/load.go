package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	spmspv "spmspv"
)

// tally counts ops attempted and failed, keeping the first few errors.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	errs      []string
}

func (t *tally) observe(err error) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
	t.mu.Unlock()
}

// into adds the tally to the report.
func (t *tally) into(rep *report) {
	rep.Attempted += t.attempted.Load()
	rep.Failed += t.failed.Load()
	rep.Errors = append(rep.Errors, t.errs...)
}

// warmUp reports failures of an untimed warm-up phase as errors.
func warmUp(rep *report, p *phase) {
	if f := p.tally.failed.Load(); f > 0 {
		rep.errorf("warm-up: %d of %d ops failed: %v", f, p.tally.attempted.Load(), p.tally.errs)
	}
}

// recorder is how an op reports each request it made: begin is when
// the request could have been sent (its scheduled time in an open
// loop), err its outcome.
type recorder func(begin time.Time, err error)

// opFunc runs one op (one or more requests) due at due.
type opFunc func(due time.Time, rec recorder)

// phase is one measured stretch of load.
type phase struct {
	lat     latencies
	lag     latencies // open loop: how late each op was sent
	tally   tally
	elapsed time.Duration
	offered int // open loop: scheduled ops
}

func (p *phase) rec(begin time.Time, err error) {
	p.lat.add(time.Since(begin))
	p.tally.observe(err)
}

func (p *phase) opsPerS() float64 {
	return float64(p.tally.attempted.Load()) / p.elapsed.Seconds()
}

// closedLoop runs callers back-to-back callers for d, extended (to at
// most 2d) until the run holds minOps ops, so its tail percentile has
// enough samples behind it. op receives the caller and a per-caller
// sequence number.
func closedLoop(p *phase, callers int, d time.Duration, minOps int, op func(caller, k int, rec recorder)) {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				now := time.Since(start)
				if now >= 2*d || (now >= d && p.lat.count() >= minOps) {
					return
				}
				op(c, k, p.rec)
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
}

// scheduled is one open-loop op and the offset it is due at.
type scheduled struct {
	at time.Duration
	op opFunc
}

// openLoop sends every op at its scheduled offset from workers
// goroutines; an op is timed from when it was due, so a stall also
// delays (and is charged to) the ops queued behind it.
func openLoop(p *phase, workers int, ops []scheduled, d time.Duration) {
	p.offered = len(ops)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(ops) {
					return
				}
				due := start.Add(ops[k].at)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				p.lag.add(time.Since(due))
				ops[k].op(due, p.rec)
			}
		}()
	}
	wg.Wait()
	p.elapsed = max(time.Since(start), d)
}

// window is one interval of a measured phase: ops completed, CPU spent
// by the process doing the work, and its highest resident set.
type window struct {
	dur   time.Duration
	ops   int64
	cpuMS float64
	rssMB float64
}

// windowSampler cuts a phase into fixed windows, sampling the resident
// set every rssEvery within each. Medians over windows keep a burst of
// interference from a neighbour out of the run's figures.
type windowSampler struct {
	stop, done chan struct{}
	windows    []window
	peak       float64 // highest resident set over the whole phase
}

const (
	windowLen = time.Second
	rssEvery  = 50 * time.Millisecond
)

func startWindows(ops func() int64, cpuMS, rssMB func() float64) *windowSampler {
	w := &windowSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		start, ops0, cpu0, peak := time.Now(), ops(), cpuMS(), rssMB()
		w.peak = peak
		for {
			select {
			case <-w.stop:
				return // the partial last window is dropped
			case now := <-t.C:
				peak = max(peak, rssMB())
				w.peak = max(w.peak, peak)
				if now.Sub(start) < windowLen {
					continue
				}
				ops1, cpu1 := ops(), cpuMS()
				w.windows = append(w.windows, window{now.Sub(start), ops1 - ops0, cpu1 - cpu0, peak})
				start, ops0, cpu0, peak = now, ops1, cpu1, rssMB()
			}
		}
	}()
	return w
}

// finish stops sampling and returns the complete windows.
func (w *windowSampler) finish() []window {
	close(w.stop)
	<-w.done
	return w.windows
}

// reportWindows stops s and sets ops_per_s and cpu_ms_per_op as medians
// over the phase's windows, and rss_peak_mb as the highest resident set
// of the whole phase; the whole-phase rates and the median of the
// windows' peaks go to the report beside them.
func reportWindows(rep *report, p *phase, s *windowSampler, cpuMS float64) {
	ws := s.finish()
	var rate, cpu, rss []float64
	for _, w := range ws {
		rate = append(rate, float64(w.ops)/w.dur.Seconds())
		if w.ops > 0 {
			cpu = append(cpu, w.cpuMS/float64(w.ops))
		}
		rss = append(rss, w.rssMB)
	}
	ops := float64(p.tally.attempted.Load())
	rep.set("ops_per_s_whole_run", ops/p.elapsed.Seconds(), "1/s")
	rep.set("cpu_ms_per_op_whole_run", cpuMS/ops, "ms")
	rep.Params["window_rates"] = append([]float64(nil), rate...)
	rep.set("rss_peak_mb", s.peak, "MB")
	if len(ws) == 0 { // a run shorter than one window
		rep.set("ops_per_s", ops/p.elapsed.Seconds(), "1/s")
		rep.set("cpu_ms_per_op", cpuMS/ops, "ms")
		return
	}
	rep.set("rss_window_peak_median_mb", median(rss), "MB")
	rep.set("ops_per_s", median(rate), "1/s")
	rep.set("cpu_ms_per_op", median(cpu), "ms")
}

// maxCallers is how many callers (and connections) a served workload's
// load comes from, capped at the host's CPU count.
const maxCallers = 2

func loadCallers() int { return min(maxCallers, runtime.NumCPU()) }

// serverProc is a spmspv-serve child process on a loopback port.
type serverProc struct {
	cmd    *exec.Cmd
	url    string
	logs   *syncBuffer
	exited chan struct{}
	err    error
}

// syncBuffer is a goroutine-safe log sink for the child's output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf.Len() < 1<<16 {
		b.buf.Write(p)
	}
	return len(p), nil
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts spmspv-serve with its default flags, no on-disk
// calibration cache, and extra.
func startServer(bin string, extra ...string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr, "-calibration-cache", ""}, extra...)
	p := &serverProc{url: "http://" + addr, logs: &syncBuffer{}, exited: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout, p.cmd.Stderr = p.logs, p.logs
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// cpuMS and rssMB read the server's CPU time and resident set.
func (p *serverProc) cpuMS() float64 {
	cpu, _ := procCPUMS(p.pid())
	return cpu
}

func (p *serverProc) rssMB() float64 {
	rss, _ := procRSSMB(p.pid())
	return rss
}

// waitReady polls the health endpoint until the server answers.
func (p *serverProc) waitReady(c *spmspv.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := c.Health(ctx)
		cancel()
		if err == nil {
			return nil
		}
		select {
		case <-p.exited:
			return fmt.Errorf("spmspv-serve exited before it was ready: %v\n%s", p.err, p.logs)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("spmspv-serve not ready after 60s: %v\n%s", err, p.logs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the server to drain and exit, killing it if it does not,
// and waits until it has exited.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// inproc hosts a handler on a loopback listener in this process.
type inproc struct {
	hs   *http.Server
	url  string
	done chan error
}

func hostInProcess(h http.Handler) (*inproc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &inproc{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *inproc) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.done
}

// newClient returns a binary-wire client over tr.
func newClient(url string, tr *transport) *spmspv.Client {
	return spmspv.NewClient(url, spmspv.WithHTTPClient(&http.Client{Transport: tr}))
}

// spmspv-serve's flag defaults, which the traced runs mirror when they
// host the server's stack in-process. The smoke test checks them against
// the -h output of the built server.
const (
	serveEngine        = "bucket"
	serveThreads       = 0
	serveParWorkers    = -1 // the executor's own default pool
	serveBatchWindow   = 500 * time.Microsecond
	serveBatchSize     = 8
	serveWire          = "json"
	serveMaxBitmap     = 0
	serveShardRetries  = 2
	serveShardTimeout  = 30 * time.Second
	serveProbeInterval = 2 * time.Second
	serveProbeTimeout  = 2 * time.Second
)

// serveFlagDefaults maps each mirrored flag to its default as -h prints it.
func serveFlagDefaults() map[string]string {
	return map[string]string{
		"engine":         serveEngine,
		"threads":        fmt.Sprint(serveThreads),
		"par-workers":    fmt.Sprint(serveParWorkers),
		"batch-window":   serveBatchWindow.String(),
		"batch-size":     fmt.Sprint(serveBatchSize),
		"wire":           serveWire,
		"max-bitmap-dim": fmt.Sprint(serveMaxBitmap),
		"recalibrate":    "false",
		"shard-retries":  fmt.Sprint(serveShardRetries),
		"shard-timeout":  serveShardTimeout.String(),
		"probe-interval": serveProbeInterval.String(),
		"probe-timeout":  serveProbeTimeout.String(),
	}
}

// serveStoreOpts are the engine options spmspv-serve builds every
// store with under its default flags (with the calibration cache off).
func serveStoreOpts() []spmspv.Option {
	alg, _ := spmspv.ParseAlgorithm(serveEngine)
	return []spmspv.Option{
		spmspv.WithAlgorithm(alg),
		spmspv.WithThreads(serveThreads),
		spmspv.WithSortOutput(true),
		spmspv.WithCalibrationCache("", false),
	}
}

// serverOpts are spmspv-serve's default serving options.
func serverOpts() []spmspv.ServerOption {
	wire := spmspv.ContentTypeJSON
	if serveWire == "binary" {
		wire = spmspv.ContentTypeBinary
	}
	return []spmspv.ServerOption{
		spmspv.WithBatchWindow(serveBatchWindow),
		spmspv.WithBatchSize(serveBatchSize),
		spmspv.WithDefaultWire(wire),
	}
}

// coordinatorOpts are spmspv-serve's default coordinator options.
func coordinatorOpts() []spmspv.ShardOption {
	return []spmspv.ShardOption{
		spmspv.WithShardRetries(serveShardRetries),
		spmspv.WithShardTimeout(serveShardTimeout),
		spmspv.WithProbeInterval(serveProbeInterval),
		spmspv.WithProbeTimeout(serveProbeTimeout),
	}
}
