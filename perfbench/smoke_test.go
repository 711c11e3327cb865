package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesMetrics pins the metric tables the result line is
// built from to BENCHMARK.json.
func TestSpecMatchesMetrics(t *testing.T) {
	spec := readSpec(t)
	check := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Fatalf("%s: benchmark defines %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: benchmark has %s [%s], BENCHMARK.json %s [%s]",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, the benchmark has no such workload", w.Name)
		}
	}
}

// buildServe builds spmspv-serve into dir.
func buildServe(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "spmspv-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "spmspv/cmd/spmspv-serve").CombinedOutput(); err != nil {
		t.Fatalf("building spmspv-serve: %v\n%s", err, out)
	}
	return bin
}

// TestServeDefaults checks that the flag defaults the traced runs mirror
// are the ones the built spmspv-serve prints with -h, so the traced
// per-layer figures measure the configuration the untraced runs serve.
func TestServeDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("builds spmspv-serve")
	}
	out, _ := exec.Command(buildServe(t, t.TempDir()), "-h").CombinedOutput()
	printed := parseFlagDefaults(string(out))
	for name, want := range serveFlagDefaults() {
		got, ok := printed[name]
		if !ok {
			t.Errorf("spmspv-serve -h lists no flag -%s\n%s", name, out)
			continue
		}
		if got == "" { // -h leaves out zero defaults
			got = map[bool]string{true: want, false: "zero value"}[want == "0" || want == "false" || want == ""]
		}
		if got != want {
			t.Errorf("spmspv-serve -%s defaults to %q, the traced runs assume %q", name, got, want)
		}
	}
}

// parseFlagDefaults reads flag.PrintDefaults output into flag name →
// printed default ("" where none is printed, i.e. a zero value).
func parseFlagDefaults(out string) map[string]string {
	defaults := map[string]string{}
	name := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  -") {
			name = strings.Fields(line)[0][1:]
			defaults[name] = ""
		}
		if name == "" {
			continue
		}
		if i := strings.LastIndex(line, "(default "); i >= 0 && strings.HasSuffix(line, ")") {
			v := line[i+len("(default ") : len(line)-1]
			if u, err := strconv.Unquote(v); err == nil {
				v = u
			}
			defaults[name] = v
		}
	}
	return defaults
}

// TestSmoke runs every workload briefly at tiny scale, untraced and
// traced, and checks that the last line printed carries every metric
// BENCHMARK.json names, with its unit, and that no op failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds spmspv-serve and runs every workload")
	}
	spec := readSpec(t)
	dir := t.TempDir()
	serveBin := buildServe(t, dir)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 1, seconds: 0.5, trace: trace, smoke: true,
				serveBin: serveBin, outDir: filepath.Join(dir, "out")}
			rep, res, err := runConfig(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			var buf bytes.Buffer
			emit(&buf, rep, res)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.Name, trace, err)
			}
			if !last.Correct || last.Failed != 0 || rep.FailedFrac != 0 || last.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.Name, trace, last.Correct, last.Attempted, last.Failed, rep.Errors)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w.Name, trace, len(last.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := last.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s",
						w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}
