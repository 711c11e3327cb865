// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation section (§IV). It provides the
// engine registry, BFS frontier capture for vector-sparsity sweeps,
// strong-scaling runners, and plain-text table/series formatters whose
// rows mirror what the paper plots.
//
// Wall-clock numbers depend on the host; the harness therefore reports,
// next to every timing, the aggregated work counters of perf.Counters,
// which reproduce the paper's work-efficiency comparisons exactly on
// any machine (see DESIGN.md §2 for the substitution rationale).
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"spmspv/internal/algorithms"
	"spmspv/internal/core"
	"spmspv/internal/engine"
	"spmspv/internal/perf"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"

	// Keep the baselines registered with the engine registry —
	// registrySpec's engine.New depends on it. (The Hybrid engine
	// registers through this package's direct internal/hybrid import in
	// ablation.go.)
	_ "spmspv/internal/baselines"
)

// Engine is the uniform handle the harness drives: a named SpMSpV
// implementation with work counters — internal/engine's contract.
type Engine = engine.Engine

// EngineSpec names an algorithm and builds an instance bound to a
// matrix and thread count. Construction cost (row-splitting, workspace
// allocation) is setup, excluded from timings — as in the paper, which
// pre-splits matrices for CombBLAS/GraphMat and preallocates buckets for
// SpMSpV-bucket (§III-A).
type EngineSpec struct {
	Name  string
	Build func(a *sparse.CSC, threads int) Engine
}

// registrySpec builds an EngineSpec that constructs alg through the
// engine registry with the harness's standard options.
func registrySpec(alg engine.Algorithm) EngineSpec {
	return EngineSpec{Name: alg.String(), Build: func(a *sparse.CSC, t int) Engine {
		e, err := engine.New(a, alg, engine.Options{Threads: t, SortOutput: true})
		if err != nil {
			panic(err) // all algorithms register via this package's imports
		}
		return e
	}}
}

// AllEngines returns the four algorithms of the paper's comparison
// (Fig. 3/4), bucket first, each constructed through the engine
// registry.
func AllEngines() []EngineSpec {
	return []EngineSpec{
		registrySpec(engine.Bucket),
		registrySpec(engine.CombBLASSPA),
		registrySpec(engine.CombBLASHeap),
		registrySpec(engine.GraphMat),
	}
}

// BucketEngine returns just the paper's algorithm (for Figs. 2 and 6).
func BucketEngine(opt core.Options) EngineSpec {
	name := "SpMSpV-bucket"
	if !opt.SortOutput {
		name += "-unsorted"
	}
	return EngineSpec{Name: name, Build: func(a *sparse.CSC, t int) Engine {
		o := opt
		o.Threads = t
		e, err := engine.New(a, engine.Bucket, o)
		if err != nil {
			panic(err)
		}
		return e
	}}
}

// CaptureFrontiers runs a BFS from source with the bucket engine and
// returns every frontier vector — the replay workload of Fig. 3, whose
// sparse vectors "represent frontiers in a BFS" (paper §IV-C).
func CaptureFrontiers(a *sparse.CSC, source sparse.Index) []*sparse.SpVec {
	eng := core.NewMultiplier(a, core.Options{SortOutput: true})
	res := algorithms.BFS(eng, a.NumCols, source, true)
	return res.Frontiers
}

// FrontierWithNNZ picks from frontiers the one whose nnz is closest to
// the target (for the paper's "nnz(x) = 10K / 2.5M" selections).
func FrontierWithNNZ(frontiers []*sparse.SpVec, target int) *sparse.SpVec {
	var best *sparse.SpVec
	bestDiff := int(^uint(0) >> 1)
	for _, fr := range frontiers {
		diff := fr.NNZ() - target
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			bestDiff = diff
			best = fr
		}
	}
	return best
}

// Measurement is one timed SpMSpV configuration.
type Measurement struct {
	Engine   string
	Threads  int
	NNZX     int
	NNZY     int
	Elapsed  time.Duration // per multiply (averaged over reps)
	Work     perf.Counters // per multiply (averaged over reps)
	Steps    perf.StepTimes
	HasSteps bool

	// ran is the fewest and the most threads the measured calls ran
	// on. A bucket call below the kernel's grain runs on fewer than
	// Threads (core.Multiplier.CallThreads); the baselines use Threads.
	ran [2]int
}

// ranOn formats the threads the measured calls ran on for a table
// cell: "2", or "1-2" when the calls differed.
func (m Measurement) ranOn() string {
	if m.ran[0] == m.ran[1] {
		return fmt.Sprint(m.ran[0])
	}
	return fmt.Sprintf("%d-%d", m.ran[0], m.ran[1])
}

// ranThreads returns the fewest and the most threads eng's calls over
// xs run on, for a measurement at the given thread count.
func ranThreads(eng Engine, xs []*sparse.SpVec, threads int) [2]int {
	bm, ok := eng.(*core.Multiplier)
	if !ok || len(xs) == 0 {
		return [2]int{threads, threads}
	}
	r := [2]int{threads, 1}
	for _, x := range xs {
		t := bm.CallThreads(x)
		r[0], r[1] = min(r[0], t), max(r[1], t)
	}
	return r
}

// TimeMultiply measures one engine on one vector: reps repetitions
// after one untimed warmup, reporting average latency and per-call work.
func TimeMultiply(spec EngineSpec, a *sparse.CSC, x *sparse.SpVec, threads, reps int) Measurement {
	eng := spec.Build(a, threads)
	y := sparse.NewOutputFrontier(a.NumRows)
	mult := ListMult(eng, a, y)
	mult(x, semiring.Arithmetic) // warmup; also sizes buffers
	eng.ResetCounters()
	start := time.Now()
	for r := 0; r < reps; r++ {
		mult(x, semiring.Arithmetic)
	}
	elapsed := time.Since(start) / time.Duration(reps)
	work := eng.Counters()
	divideCounters(&work, int64(reps))

	m := Measurement{
		Engine:  spec.Name,
		Threads: threads,
		NNZX:    x.NNZ(),
		NNZY:    y.NNZ(),
		Elapsed: elapsed,
		Work:    work,
		ran:     ranThreads(eng, []*sparse.SpVec{x}, threads),
	}
	if bm, ok := eng.(*core.Multiplier); ok {
		m.Steps = bm.Steps()
		m.HasSteps = true
	}
	return m
}

// TimeBFS measures the total SpMSpV time of a full BFS ("we only report
// the runtime of SpMSpVs in all iterations omitting other costs of the
// BFS", paper §IV-D): the frontiers are captured once, then replayed
// against the engine under timing.
func TimeBFS(spec EngineSpec, a *sparse.CSC, frontiers []*sparse.SpVec, threads, reps int) Measurement {
	eng := spec.Build(a, threads)
	mult := ListMult(eng, a, sparse.NewOutputFrontier(a.NumRows))
	// Warmup pass over all frontiers.
	for _, x := range frontiers {
		mult(x, semiring.MinSelect2nd)
	}
	eng.ResetCounters()
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, x := range frontiers {
			mult(x, semiring.MinSelect2nd)
		}
	}
	elapsed := time.Since(start) / time.Duration(reps)
	work := eng.Counters()
	divideCounters(&work, int64(reps))
	var nnzx int
	for _, x := range frontiers {
		nnzx += x.NNZ()
	}
	return Measurement{
		Engine:  spec.Name,
		Threads: threads,
		NNZX:    nnzx,
		Elapsed: elapsed,
		Work:    work,
		ran:     ranThreads(eng, frontiers, threads),
	}
}

// ListMult returns a multiply of list vectors through eng into y. Each
// input is wrapped in a pooled frontier per call, so GraphMat pays (and
// counts) its list→bitmap conversion on every call, as its list-input
// original does.
func ListMult(eng Engine, a *sparse.CSC, y *sparse.Frontier) func(x *sparse.SpVec, sr semiring.Semiring) {
	pool := sparse.NewFrontierPool(a.NumCols)
	return func(x *sparse.SpVec, sr semiring.Semiring) {
		xf := pool.Wrap(x)
		eng.Multiply(xf, y, sr, nil, false, false)
		xf.Release()
	}
}

func divideCounters(c *perf.Counters, n int64) {
	if n <= 1 {
		return
	}
	c.XScanned /= n
	c.ColumnsProbed /= n
	c.MatrixTouched /= n
	c.SPAInit /= n
	c.SPAUpdates /= n
	c.BucketWrites /= n
	c.HeapOps /= n
	c.SortedElems /= n
	c.OutputWritten /= n
	c.SyncEvents /= n
	c.DirectionSwitches /= n
	c.FrontierConversions /= n
	c.OutputConversions /= n
	c.ChunkClaims /= n
	c.Steals /= n
	c.IdleNs /= n
}

// Table accumulates rows and renders fixed-width plain text.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Ms formats a duration in fractional milliseconds, the unit of every
// figure in the paper.
func Ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6)
}

// Speedup formats base/cur as "N.NNx".
func Speedup(base, cur time.Duration) string {
	if cur <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(base)/float64(cur))
}
