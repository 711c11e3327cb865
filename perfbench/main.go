// Command perfbench is the repository's benchmark: one command that
// runs a named workload from a seed, checks every output against a
// sequential oracle, and prints every metric by name with its unit.
//
// Workloads (see BENCHMARK.json for the reason behind each):
//
//	bfs-rmat          in-process spmspv.BFSMasked on rmat-ljournal, one caller
//	bfs-mesh-invoke   a stored BFSProgram invoked over HTTP on grid5-g3circuit,
//	                  two closed-loop clients against a fresh spmspv-serve
//	mult-mix-sharded  open-loop Poisson /v1/mult traffic plus matrix uploads
//	                  against a fresh 2-band × 2-replica spmspv-serve
//
// With -trace 0 the run is untraced and reports the end-to-end metrics;
// served workloads start a real spmspv-serve process per run. With
// -trace 1 the benchmark hosts the same stack in-process, records spans
// around each layer's public calls, and reports the per-layer metrics
// (see layers.go). The last line of standard output is the JSON result
// {"correct", "attempted", "failed", "metrics"}; the lines before it are
// a JSON report with the run's environment, sample counts and the
// figures that only some workloads define. A failed or wrong output, a
// drifting work count or an open loop that fell behind its schedule
// makes the command exit 1.
//
// Run it through run.sh, which builds the benchmark and the server:
//
//	bash perfbench/run.sh --workload bfs-rmat --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	serveBin string
	outDir   string
	commit   string
}

// metric is one named figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// shape records one input matrix.
type shape struct {
	Name string `json:"name"`
	Rows int32  `json:"rows"`
	Cols int32  `json:"cols"`
	NNZ  int64  `json:"nnz"`
}

// report is everything a run learned; the result line is a projection
// of it onto the metric names BENCHMARK.json lists.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Smoke      bool               `json:"smoke"`
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Seconds    float64            `json:"seconds"`
	Matrices   []shape            `json:"matrices"`
	Params     map[string]any     `json:"params"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	FailedFrac float64            `json:"failed_frac"`
	Samples    int                `json:"latency_samples"`
	Metrics    map[string]metric  `json:"metrics"`
	Counts     map[string]float64 `json:"repeat_counts,omitempty"`
	Errors     []string           `json:"errors,omitempty"`
}

func newReport(cfg config) *report {
	return &report{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		Smoke:      cfg.smoke,
		Commit:     cfg.commit,
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seconds:    cfg.seconds,
		Params:     map[string]any{},
		Metrics:    map[string]metric{},
	}
}

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *report) errorf(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

func (r *report) addMatrix(name string, rows, cols int32, nnz int64) {
	r.Matrices = append(r.Matrices, shape{name, rows, cols, nnz})
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config, rep *report) error{
	"bfs-rmat":         runBFSRMAT,
	"bfs-mesh-invoke":  runMeshInvoke,
	"mult-mix-sharded": runMultMix,
}

func main() {
	var cfg config
	var traceLevel int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: bfs-rmat, bfs-mesh-invoke or mult-mix-sharded")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds per run")
	flag.IntVar(&traceLevel, "trace", 0, "0: untraced end-to-end run; 1: traced in-process run reporting per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny inputs for a quick functional check (figures are not comparable)")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "spmspv-serve binary the served workloads start")
	flag.StringVar(&cfg.outDir, "out", "", "directory for span dumps and work-count records (empty: none)")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit the binaries were built from, for the report")
	flag.Parse()
	cfg.trace = traceLevel != 0

	rep, res, err := runConfig(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	emit(os.Stdout, rep, res)
	if !res.Correct {
		for _, e := range rep.Errors {
			fmt.Fprintf(os.Stderr, "perfbench: %s\n", e)
		}
		os.Exit(1)
	}
}

// runConfig runs one workload and projects its report onto the
// BENCHMARK.json metric set of the chosen mode. An error means the run
// could not be carried out at all (bad flags, a server that never came
// up); wrong outputs and drift come back as an incorrect result.
func runConfig(cfg config) (*report, *result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, nil, fmt.Errorf("-seconds must be positive")
	}
	if !cfg.trace && cfg.workload != "bfs-rmat" && cfg.serveBin == "" {
		return nil, nil, fmt.Errorf("workload %s needs -serve-bin", cfg.workload)
	}
	rep := newReport(cfg)
	if err := fn(cfg, rep); err != nil {
		return nil, nil, err
	}
	if rep.Attempted > 0 {
		rep.FailedFrac = float64(rep.Failed) / float64(rep.Attempted)
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	res := &result{
		Correct:   rep.Failed == 0 && len(rep.Errors) == 0 && rep.Attempted > 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range names {
		v, ok := rep.Metrics[m.name]
		if !ok {
			rep.errorf("metric %s was not measured", m.name)
			res.Correct = false
			continue
		}
		res.Metrics[m.name] = metric{v.Value, m.unit}
	}
	return rep, res, nil
}

// emit prints the report, then the result as the last line.
func emit(w io.Writer, rep *report, res *result) {
	b, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Fprintln(w, string(b))
	b, _ = json.Marshal(res)
	fmt.Fprintln(w, string(b))
}

// metricDef names one metric of the BENCHMARK.json contract.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metric sets the result line carries
// with -trace 0 and -trace 1; BENCHMARK.json lists the same names. The
// tail percentiles, failed_frac and wire_bytes_per_op are reported in
// the lines before it: the tails swing more from run to run than a
// regression bound can absorb on a shared machine, failed_frac is 0 on
// every valid run, and the library workload has no wire.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"core.mult_us", "us"},
	{"core.estimate_us", "us"},
	{"core.bucket_us", "us"},
	{"core.merge_us", "us"},
	{"core.output_us", "us"},
	{"core.flops_per_op", "count"},
	{"core.work_per_op", "count"},
	{"core.work_per_flop", "ratio"},
	{"core.spa_init_per_op", "count"},
	{"core.bucket_writes_per_op", "count"},
	{"par.idle_frac", "frac"},
	{"par.steals_per_op", "count"},
	{"par.chunks_per_op", "count"},
	{"sparse.frontier_conversions_per_op", "count"},
	{"sparse.output_conversions_per_op", "count"},
	{"engine.plan_compilations", "count"},
	{"dataflow.invoke_us", "us"},
	{"dataflow.iters_per_op", "count"},
	{"dataflow.self_us", "us"},
	{"dataflow.overhead_ratio", "ratio"},
	{"dataflow.compilations", "count"},
	{"wire.req_bytes_per_op", "bytes"},
	{"wire.resp_bytes_per_op", "bytes"},
	{"wire.decode_us", "us"},
	{"wire.encode_us", "us"},
	{"wire.matrix_decode_ms", "ms"},
	{"client.roundtrip_us", "us"},
	{"server.handle_us", "us"},
	{"server.self_us", "us"},
	{"server.coalesced_frac", "frac"},
	{"server.batch_fill", "count"},
	{"store.put_ms", "ms"},
	{"store.load_ms", "ms"},
	{"store.do_us", "us"},
	{"shard.scatter_us", "us"},
	{"shard.self_us", "us"},
	{"shard.band_imbalance", "ratio"},
	{"shard.retries", "count"},
	{"shard.failovers", "count"},
	{"shard.put_fanout_ms", "ms"},
	{"cluster.epoch_changes", "count"},
	{"cluster.nonalive_replicas", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cpu_frac", "frac"},
	{"loadgen.offered_rps", "1/s"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// sortedKeys returns m's keys in order, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
