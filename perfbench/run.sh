#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 20 --trace 0
#
# The last line of standard output is the JSON result. Everything the build
# and the run write — the Go build cache, the binary and the Chrome traces —
# stays under $CARGO_TARGET_DIR (default .bench_build) in the checkout: the Go
# tool's home, cache and temp directories are pointed there too.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home" "$out/go-cache" "$out/tmp" "$out/traces"

export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOPATH=$out/home/go GOCACHE=$out/go-cache GOTMPDIR=$out/tmp
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/traces" "$@"
