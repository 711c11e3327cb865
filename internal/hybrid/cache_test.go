package hybrid

import (
	"os"
	"path/filepath"
	"testing"

	"spmspv/internal/engine"
	"spmspv/internal/graphgen"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

func TestFingerprintStableAndDiscriminating(t *testing.T) {
	a := graphgen.RMAT(graphgen.DefaultRMAT(8), 1)
	b := graphgen.RMAT(graphgen.DefaultRMAT(8), 1)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("identical matrices got different fingerprints")
	}
	c := graphgen.RMAT(graphgen.DefaultRMAT(8), 2)
	if Fingerprint(a) == Fingerprint(c) {
		t.Fatal("different matrices share a fingerprint")
	}
	d := graphgen.Grid2D(16, 16)
	if Fingerprint(a) == Fingerprint(d) {
		t.Fatal("structurally different matrices share a fingerprint")
	}
}

func TestCalibrationCacheRoundTrip(t *testing.T) {
	a := graphgen.RMAT(graphgen.DefaultRMAT(7), 3)
	cache := filepath.Join(t.TempDir(), "sub", "thresholds.json")
	opt := engine.Options{Threads: 1, CalibrationCache: cache}

	first := New(a, opt)
	if !first.calibrated || first.fromCache {
		t.Fatalf("first construction: calibrated=%v fromCache=%v, want true,false",
			first.calibrated, first.fromCache)
	}
	if _, err := os.Stat(cache); err != nil {
		t.Fatalf("cache file not written: %v", err)
	}

	second := New(a, opt)
	if !second.fromCache {
		t.Fatal("second construction did not hit the cache")
	}
	if second.Threshold() != first.Threshold() {
		t.Fatalf("cached threshold %g != calibrated %g", second.Threshold(), first.Threshold())
	}

	opt.Recalibrate = true
	third := New(a, opt)
	if third.fromCache {
		t.Fatal("-recalibrate construction served from cache")
	}
	if !third.calibrated {
		t.Fatal("-recalibrate construction not calibrated")
	}
}

func TestCalibrationCacheCorruptFileFallsBack(t *testing.T) {
	a := graphgen.RMAT(graphgen.DefaultRMAT(7), 4)
	cache := filepath.Join(t.TempDir(), "thresholds.json")
	if err := os.WriteFile(cache, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	h := New(a, engine.Options{Threads: 1, CalibrationCache: cache})
	if h.fromCache {
		t.Fatal("corrupt cache produced a hit")
	}
	if !h.calibrated {
		t.Fatal("corrupt cache blocked calibration")
	}
	// The rewritten cache must now serve hits.
	if !New(a, engine.Options{Threads: 1, CalibrationCache: cache}).fromCache {
		t.Fatal("cache not repaired after corruption")
	}
}

func TestCacheMissOnDifferentMatrix(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "thresholds.json")
	a := graphgen.RMAT(graphgen.DefaultRMAT(7), 5)
	New(a, engine.Options{Threads: 1, CalibrationCache: cache})
	b := graphgen.Grid2D(12, 12)
	if New(b, engine.Options{Threads: 1, CalibrationCache: cache}).fromCache {
		t.Fatal("different matrix hit the other matrix's cache entry")
	}
}

func TestCachedThresholdBehavesLikeCalibrated(t *testing.T) {
	a := graphgen.RMAT(graphgen.DefaultRMAT(7), 6)
	cache := filepath.Join(t.TempDir(), "thresholds.json")
	opt := engine.Options{Threads: 1, SortOutput: true, CalibrationCache: cache}
	fresh := New(a, opt)
	cached := New(a, opt)
	if !cached.fromCache {
		t.Fatal("expected cache hit")
	}
	x := probeFrontier(a.NumCols, int(a.NumCols)/2)
	y1 := sparse.NewSpVec(0, 0)
	y2 := sparse.NewSpVec(0, 0)
	testutil.Multiply(fresh, x, y1, semiring.Arithmetic)
	testutil.Multiply(cached, x, y2, semiring.Arithmetic)
	if !y1.EqualValues(y2, 1e-9) {
		t.Fatal("cached-threshold engine diverged from freshly calibrated engine")
	}
}
