#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fwd-polled --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artifact (binary, Go build
# cache, temporary files) stays under the build directory inside the
# checkout, and the toolchain is pinned to the local one with the module
# proxy off, so the build never reaches outside the checkout. Build
# output goes to stderr; stdout carries only the benchmark's report, whose
# last line is the JSON result.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
