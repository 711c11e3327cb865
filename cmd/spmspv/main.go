// Command spmspv multiplies a Matrix Market matrix by a sparse vector
// and writes the result: y ← A·x.
//
// Usage:
//
//	spmspv -matrix A.mtx -vector x.txt [-algorithm bucket] [-threads 4] \
//	       [-semiring arithmetic] [-out y.txt]
//
// The vector file format is a "n nnz" header line followed by
// "index value" lines (0-based). With -out omitted the result goes to
// stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	spmspv "spmspv"
)

func main() {
	var (
		matrixPath = flag.String("matrix", "", "Matrix Market file (required)")
		vectorPath = flag.String("vector", "", "sparse vector file (required)")
		outPath    = flag.String("out", "", "output path (default stdout)")
		algName    = flag.String("algorithm", "bucket", strings.Join(spmspv.EngineNames(), ", "))
		srName     = flag.String("semiring", "arithmetic", strings.Join(spmspv.SemiringNames(), ", "))
		threads    = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *matrixPath == "" || *vectorPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	alg, ok := spmspv.ParseAlgorithm(*algName)
	if !ok {
		fatal("unknown algorithm %q (have: %s)", *algName, strings.Join(spmspv.EngineNames(), ", "))
	}
	sr, ok := spmspv.ParseSemiring(*srName)
	if !ok {
		fatal("unknown semiring %q (have: %s)", *srName, strings.Join(spmspv.SemiringNames(), ", "))
	}

	// The matrix goes through the serving layer's store: one loader
	// (Matrix Market, JSON-wire or binary-wire files all work) and one
	// file→matrix→engine setup path shared with graphalgo and
	// spmspv-serve.
	st := spmspv.NewStore(
		spmspv.WithAlgorithm(alg),
		spmspv.WithThreads(*threads),
		spmspv.WithSortOutput(true),
	)
	if err := st.PutFile("matrix", *matrixPath); err != nil {
		fatal("reading matrix: %v", err)
	}
	mu, err := st.Load("matrix")
	if err != nil {
		fatal("%v", err)
	}
	a := mu.Matrix()

	vf, err := os.Open(*vectorPath)
	if err != nil {
		fatal("%v", err)
	}
	defer vf.Close()
	// DecodeVector sniffs the encoding — binary SPVB, JSON, or the
	// "index value" text form — so any wire dump works as input.
	x, err := spmspv.DecodeVector(vf)
	if err != nil {
		fatal("reading vector: %v", err)
	}
	if x.N != a.NumCols {
		fatal("dimension mismatch: matrix is %dx%d, vector has dimension %d",
			a.NumRows, a.NumCols, x.N)
	}
	// One descriptor-driven multiply; the result is read from the
	// output frontier's list.
	yf := spmspv.NewOutputFrontier(a.NumRows)
	mu.Mult(spmspv.NewFrontier(x), yf, sr, spmspv.Desc{Output: spmspv.OutputList})
	y := yf.List()

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		out = f
	}
	if err := spmspv.WriteVector(out, y); err != nil {
		fatal("writing result: %v", err)
	}
	fmt.Fprintf(os.Stderr, "spmspv: %s × x (nnz=%d) → y (nnz=%d) using %s over %s\n",
		a.String(), x.NNZ(), y.NNZ(), alg, sr.Name)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spmspv: "+format+"\n", args...)
	os.Exit(1)
}
