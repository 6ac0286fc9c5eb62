#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the build leaves behind (binary, Go build cache)
# goes under .bench_build/ in the current directory, which is the root of
# the checkout; nothing outside the checkout is written.
set -euo pipefail
root=$PWD
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$out/newswire-bench" .
exec "$out/newswire-bench" "$@"
