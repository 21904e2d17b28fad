#!/usr/bin/env bash
# Builds lmserved and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload replicas --seed 1 --seconds 6 --trace 0
#   bash perfbench/run.sh --steady 10 --seconds 6 --out steady.json
#
# Everything it builds or writes (Go build cache, binaries, data dirs, spill
# runs) stays under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod TMPDIR="$out/tmp"

go build -o "$out/lmserved" ./cmd/lmserved
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -lmserved "$out/lmserved" -work "$out/tmp" "$@"
