#!/usr/bin/env bash
# Builds afbench from the checkout's sources and runs it from the checkout
# root. Every argument is passed through, e.g.
#
#   bash afbench/run.sh --workload rpc --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache, sockets and span files all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd afbench && go build -o "$out/afbench" .)
exec "$out/afbench" -outdir "$out" "$@"
