#!/usr/bin/env bash
# Builds the benchmark and spmspv-serve from this checkout's source, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload bfs-rmat --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/tmp" "$build/gopath" "$build/config" "$build/perfbench"

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)

(
	cd "$root/perfbench"
	export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
	go build -o "$build/bin/perfbench" .
	go build -o "$build/bin/spmspv-serve" spmspv/cmd/spmspv-serve
) >&2

exec "$build/bin/perfbench" -serve-bin "$build/bin/spmspv-serve" -out "$build/perfbench" \
	-commit "$commit" "$@"
