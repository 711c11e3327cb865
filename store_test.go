// Tests for the serving-layer matrix store: registry semantics, the
// shared-multiplier cache (warm repeat traffic builds no new engine),
// the multi-format file loader, and a concurrent Put/Load/Delete/Do
// hammer for -race.
package spmspv_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	spmspv "spmspv"
	"spmspv/internal/testutil"
)

func storeWithMatrix(t *testing.T, name string) (*spmspv.Store, *spmspv.Matrix, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(93))
	a := testutil.RandomCSC(rng, 120, 100, 4)
	st := spmspv.NewStore(spmspv.WithEngineOptions(engineOptions(2)))
	if err := st.Put(name, a); err != nil {
		t.Fatal(err)
	}
	return st, a, rng
}

func TestStoreRegistrySemantics(t *testing.T) {
	st, a, _ := storeWithMatrix(t, "g")

	if got := st.List(); len(got) != 1 || got[0] != "g" {
		t.Fatalf("List = %v, want [g]", got)
	}
	stat, err := st.Stats("g")
	if err != nil {
		t.Fatal(err)
	}
	if stat.Built {
		t.Error("Stats reports Built before any Load")
	}
	if stat.Rows != a.NumRows || stat.Cols != a.NumCols || stat.NNZ != a.NNZ() {
		t.Errorf("Stats shape = %d×%d nnz=%d, want %d×%d nnz=%d",
			stat.Rows, stat.Cols, stat.NNZ, a.NumRows, a.NumCols, a.NNZ())
	}

	mu1, err := st.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	mu2, err := st.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	if mu1 != mu2 {
		t.Error("second Load returned a different Multiplier (engine cache broken)")
	}
	if stat, _ = st.Stats("g"); !stat.Built {
		t.Error("Stats reports not Built after Load")
	}

	if _, err := st.Load("nope"); err == nil {
		t.Error("Load of unregistered name succeeded")
	} else if we := spmspv.AsWireError(err); we.Code != spmspv.CodeUnknownMatrix {
		t.Errorf("Load of unregistered name: code %q, want %q", we.Code, spmspv.CodeUnknownMatrix)
	}

	if !st.Delete("g") {
		t.Error("Delete of registered name reported false")
	}
	if st.Delete("g") {
		t.Error("second Delete reported true")
	}
	if _, err := st.Load("g"); err == nil {
		t.Error("Load after Delete succeeded")
	}

	for _, bad := range []string{"", "a/b", "..", "sp ace", "p|ipe", "x\n"} {
		if err := st.Put(bad, a); err == nil {
			t.Errorf("Put accepted invalid name %q", bad)
		}
	}
}

// TestStoreMultiplierReuse pins the point of the per-matrix cache: once
// a matrix's multiplier is warm, repeat Do calls run on it and
// construct no new engine.
func TestStoreMultiplierReuse(t *testing.T) {
	st, a, rng := storeWithMatrix(t, "g")
	req := &spmspv.Request{
		Matrix: "g",
		X:      testutil.RandomVector(rng, a.NumCols, 30, true),
		Desc:   spmspv.Desc{Semiring: "arithmetic"},
	}

	// Warm: build the engine.
	if _, err := st.Do(req); err != nil {
		t.Fatal(err)
	}

	before, err := st.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := st.Do(req); err != nil {
			t.Fatal(err)
		}
	}
	if after, _ := st.Load("g"); after != before {
		t.Error("warm store built a new Multiplier on repeat traffic")
	}

	stat, _ := st.Stats("g")
	if stat.Serve.Requests != 6 {
		t.Errorf("Serve.Requests = %d, want 6", stat.Serve.Requests)
	}
}

// TestStorePutFileFormats exercises the shared loader on all three
// on-disk encodings.
func TestStorePutFileFormats(t *testing.T) {
	st, a, _ := storeWithMatrix(t, "orig")
	dir := t.TempDir()

	write := func(name string, enc func(f *os.File) error) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	mm := write("a.mtx", func(f *os.File) error { return spmspv.WriteMatrixMarket(f, a) })
	js := write("a.json", func(f *os.File) error { return spmspv.EncodeMatrixJSON(f, a) })
	bin := write("a.spmb", func(f *os.File) error { return spmspv.EncodeMatrixBinary(f, a) })

	for name, path := range map[string]string{"mm": mm, "json": js, "bin": bin} {
		if err := st.PutFile(name, path); err != nil {
			t.Fatalf("PutFile(%s): %v", name, err)
		}
		stat, err := st.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		if stat.Rows != a.NumRows || stat.Cols != a.NumCols || stat.NNZ != a.NNZ() {
			t.Errorf("%s: loaded %d×%d nnz=%d, want %d×%d nnz=%d",
				name, stat.Rows, stat.Cols, stat.NNZ, a.NumRows, a.NumCols, a.NNZ())
		}
	}

	if err := st.PutFile("missing", filepath.Join(dir, "nope.mtx")); err == nil {
		t.Error("PutFile of a missing path succeeded")
	}
}

// TestStoreConcurrentHammer mixes Put, Load, Delete, Stats, List and
// Do from many goroutines — the registry's concurrency contract under
// -race.
func TestStoreConcurrentHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := testutil.RandomCSC(rng, 90, 80, 4)
	st := spmspv.NewStore(spmspv.WithEngineOptions(engineOptions(2)))
	if err := st.Put("stable", a); err != nil {
		t.Fatal(err)
	}

	xs := make([]*spmspv.Vector, 8)
	for i := range xs {
		xs[i] = testutil.RandomVector(rng, a.NumCols, 20, true)
	}

	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 40; it++ {
				switch (w + it) % 5 {
				case 0:
					// Churn a private name plus contend on a shared one.
					name := []string{"churn-a", "churn-b", "churn-c"}[(w+it)%3]
					if err := st.Put(name, a); err != nil {
						t.Error(err)
					}
				case 1:
					st.Delete([]string{"churn-a", "churn-b", "churn-c"}[it%3])
				case 2:
					if _, err := st.Load("stable"); err != nil {
						t.Error(err)
					}
				case 3:
					st.List()
					st.StatsAll()
				default:
					resp, err := st.Do(&spmspv.Request{
						Matrix: "stable",
						X:      xs[(w+it)%len(xs)],
						Desc:   spmspv.Desc{Semiring: "arithmetic"},
					})
					if err != nil {
						t.Error(err)
					} else if resp.Y == nil {
						t.Error("Do returned no Y")
					}
				}
			}
		}(w)
	}
	wg.Wait()

	stat, err := st.Stats("stable")
	if err != nil {
		t.Fatal(err)
	}
	if stat.Serve.Requests == 0 || stat.Serve.Failures != 0 {
		t.Errorf("hammer counters: %+v", stat.Serve)
	}
}
