package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"spmspv/internal/core"
	"spmspv/internal/graphgen"
	"spmspv/internal/hybrid"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

func TestAllEnginesBuildAndAgree(t *testing.T) {
	a := graphgen.ErdosRenyi(500, 4, 3)
	x := sparse.NewSpVec(500, 20)
	for i := sparse.Index(0); i < 20; i++ {
		x.Append(i*25, 1)
	}
	var results []*sparse.SpVec
	for _, spec := range append(AllEngines(), sortEngine()) {
		eng := spec.Build(a, 3)
		if eng.Name() == "" {
			t.Errorf("engine with empty name")
		}
		y := sparse.NewSpVec(0, 0)
		testutil.Multiply(eng, x, y, semiring.Arithmetic)
		results = append(results, y.Clone())
		if eng.Counters().Work() == 0 {
			t.Errorf("%s: no work recorded", spec.Name)
		}
		eng.ResetCounters()
		if eng.Counters().Work() != 0 {
			t.Errorf("%s: reset failed", spec.Name)
		}
	}
	for i := 1; i < len(results); i++ {
		if !results[i].EqualValues(results[0], 1e-9) {
			t.Errorf("engine %d disagrees with engine 0", i)
		}
	}
}

func TestCaptureFrontiersCoverGraph(t *testing.T) {
	a := graphgen.Grid2D(12, 12)
	frontiers := CaptureFrontiers(a, 0)
	if len(frontiers) == 0 {
		t.Fatal("no frontiers captured")
	}
	total := 0
	for _, fr := range frontiers {
		total += fr.NNZ()
	}
	if total != 144 {
		t.Errorf("frontiers covered %d vertices, want 144", total)
	}
	// Frontier sizes must follow the BFS wave: first is the source.
	if frontiers[0].NNZ() != 1 {
		t.Errorf("first frontier nnz = %d", frontiers[0].NNZ())
	}
}

func TestFrontierWithNNZ(t *testing.T) {
	mk := func(nnz int) *sparse.SpVec {
		v := sparse.NewSpVec(1000, nnz)
		for i := 0; i < nnz; i++ {
			v.Append(sparse.Index(i), 1)
		}
		return v
	}
	frontiers := []*sparse.SpVec{mk(1), mk(10), mk(100)}
	if got := FrontierWithNNZ(frontiers, 12); got.NNZ() != 10 {
		t.Errorf("picked nnz=%d, want 10", got.NNZ())
	}
	if got := FrontierWithNNZ(frontiers, 1000); got.NNZ() != 100 {
		t.Errorf("picked nnz=%d, want 100", got.NNZ())
	}
	if got := FrontierWithNNZ(nil, 5); got != nil {
		t.Error("empty frontier list should give nil")
	}
}

func TestTimeMultiplyAndTimeBFS(t *testing.T) {
	a := graphgen.ErdosRenyi(400, 4, 5)
	x := sparse.NewSpVec(400, 5)
	for i := sparse.Index(0); i < 5; i++ {
		x.Append(i*80, 1)
	}
	m := TimeMultiply(AllEngines()[0], a, x, 2, 2)
	if m.Elapsed <= 0 || m.Engine != "SpMSpV-bucket" || m.NNZX != 5 {
		t.Errorf("measurement: %+v", m)
	}
	if !m.HasSteps {
		t.Error("bucket engine should report step times")
	}
	// x selects ~20 matrix entries, far below the bucket kernel's
	// grain, so the call ran on one thread whatever was requested.
	if got := m.ranOn(); got != "1" {
		t.Errorf("bucket multiply ran on %q threads, want 1", got)
	}

	frontiers := CaptureFrontiers(a, 0)
	mb := TimeBFS(AllEngines()[1], a, frontiers, 2, 1)
	if mb.Elapsed <= 0 || mb.Engine != "CombBLAS-SPA" {
		t.Errorf("bfs measurement: %+v", mb)
	}
	if got := mb.ranOn(); got != "2" {
		t.Errorf("baseline BFS ran on %q threads, want the requested 2", got)
	}
}

func TestHybridSpecUsesRegisteredEngine(t *testing.T) {
	a := graphgen.ErdosRenyi(1000, 4, 7)
	eng := HybridSpec(0.1).Build(a, 2)
	h, ok := eng.(*hybrid.Engine)
	if !ok {
		t.Fatalf("HybridSpec built a %T, want the registered *hybrid.Engine", eng)
	}
	if h.Threshold() != 0.1 {
		t.Errorf("threshold = %g, want 0.1", h.Threshold())
	}
	y := sparse.NewSpVec(0, 0)

	denseX := sparse.NewSpVec(1000, 500)
	for i := sparse.Index(0); i < 500; i++ {
		denseX.Append(i*2, 1)
	}
	testutil.Multiply(h, denseX, y, semiring.Arithmetic)
	if h.Counters().DirectionSwitches != 1 {
		t.Error("dense input should use the matrix-driven side")
	}
	// Both paths give the same answer.
	y2 := sparse.NewSpVec(0, 0)
	testutil.Multiply(core.NewMultiplier(a, core.Options{SortOutput: true}), denseX, y2, semiring.Arithmetic)
	if !y.EqualValues(y2, 1e-9) {
		t.Error("hybrid result differs from bucket result")
	}

	// Threshold 0 asks the registry path for calibration.
	cal := HybridSpec(0).Build(a, 2).(*hybrid.Engine)
	if th := cal.Threshold(); !(th > 0 && th <= 1) {
		t.Errorf("HybridSpec(0) should build a calibrated engine, threshold %g outside (0, 1]", th)
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("Title", "col-a", "b")
	tbl.AddRow("1", "22222")
	tbl.AddRow("333", "4")
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Title") || !strings.Contains(out, "col-a") {
		t.Errorf("render output: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Errorf("expected 5 lines, got %d: %q", len(lines), out)
	}
	// Aligned columns: header and rows start at the same offset.
	if !strings.HasPrefix(lines[1], "  col-a") {
		t.Errorf("header misaligned: %q", lines[1])
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := Ms(1500 * time.Microsecond); got != "1.500" {
		t.Errorf("Ms = %q", got)
	}
	if got := Speedup(2*time.Second, time.Second); got != "2.00x" {
		t.Errorf("Speedup = %q", got)
	}
	if got := Speedup(time.Second, 0); got != "-" {
		t.Errorf("Speedup(0) = %q", got)
	}
}

// TestTables12Golden pins every engine's per-multiply work counts in
// Tables12 at t = 1 and 2 against a committed copy of its output, so a
// change that moves any count, in the kernel or around it, fails here.
// A change meant to move them rewrites the file with
// `go run ./cmd/spmspv-bench -experiment tables12 -scale 10 -threads 1,2 -reps 1`.
func TestTables12Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/tables12.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Tables12(&buf, Config{Scale: 10, Threads: []int{1, 2}, Reps: 1})
	if got := buf.String(); got != string(want) {
		t.Errorf("Tables12 differs from testdata/tables12.golden; got:\n%s", got)
	}
}

func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is slow")
	}
	// Every experiment must run end-to-end at a tiny scale and produce
	// non-empty output.
	cfg := Config{Scale: 8, Threads: []int{1, 2}, Reps: 1, Source: 0}
	experiments := map[string]func(){}
	var buf bytes.Buffer
	experiments["fig2"] = func() { Fig2(&buf, cfg) }
	experiments["fig3"] = func() { Fig3(&buf, cfg) }
	experiments["fig6"] = func() { Fig6(&buf, cfg) }
	experiments["table4"] = func() { Table4(&buf, cfg) }
	experiments["tables12"] = func() { Tables12(&buf, cfg) }
	experiments["platform"] = func() { Platform(&buf, cfg) }
	experiments["ablation"] = func() { Ablation(&buf, cfg) }
	experiments["masked"] = func() { Masked(&buf, cfg) }
	experiments["hybrid"] = func() { Hybrid(&buf, cfg) }
	experiments["batch"] = func() { Batch(&buf, cfg) }
	experiments["spmv"] = func() { SpMVCrossover(&buf, cfg) }
	for name, run := range experiments {
		buf.Reset()
		run()
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", name)
		}
	}
}
