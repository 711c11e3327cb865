package bench

import (
	"fmt"
	"io"

	"spmspv/internal/core"
)

// Scaling sweeps thread counts on the skewed power-law (RMAT) stand-in
// and compares the three Step-2 schedules side by side — static
// (contiguous bucket ranges), dynamic (the paper's atomic-counter
// claims) and stealing (the persistent work-stealing executor with
// entry-weighted initial shares) — at a sparse and a dense frontier.
// Alongside per-multiply latency it reports the scheduler's own
// footprint from perf.Counters: chunk claims and steals per multiply,
// dynamic sync events, and the per-thread idle fraction measured at the
// executor's join barriers (time a slot spent finished while the
// slowest slot still ran, as a percent of threads × wall time). A
// skewed frontier is exactly where static splits lose: its idle% grows
// with t while stealing converts that idle time into steals.
func Scaling(w io.Writer, cfg Config) {
	a := ljournal(cfg.Scale)
	n := int(a.NumCols)
	frontiers := CaptureFrontiers(a, cfg.Source)
	scheds := []struct {
		name  string
		sched core.Sched
	}{
		{"static", core.SchedStatic},
		{"dynamic", core.SchedDynamic},
		{"stealing", core.SchedStealing},
	}
	for _, target := range []int{n / 100, n / 4} {
		x := FrontierWithNNZ(frontiers, target)
		if x == nil {
			fmt.Fprintf(w, "scaling: no frontier near nnz=%d\n", target)
			continue
		}
		tbl := NewTable(
			fmt.Sprintf("Scaling: Step-2 schedules on rmat-ljournal stand-in (power-law), nnz(x)=%d", x.NNZ()),
			"threads", "ran on", "sched", "ns/op", "claims/op", "steals/op", "sync/op", "idle%/thread")
		for _, t := range cfg.Threads {
			for _, s := range scheds {
				opt := core.Options{SortOutput: true, MergeSched: s.sched}
				m := TimeMultiply(BucketEngine(opt), a, x, t, cfg.Reps)
				idle := "-"
				if m.Elapsed > 0 {
					idle = fmt.Sprintf("%.1f",
						100*float64(m.Work.IdleNs)/float64(int64(m.ran[0])*m.Elapsed.Nanoseconds()))
				}
				tbl.AddRow(fmt.Sprint(t), m.ranOn(), s.name,
					fmt.Sprint(m.Elapsed.Nanoseconds()),
					fmt.Sprint(m.Work.ChunkClaims),
					fmt.Sprint(m.Work.Steals),
					fmt.Sprint(m.Work.SyncEvents),
					idle)
			}
		}
		tbl.Render(w)
		fmt.Fprintln(w)
	}
}
