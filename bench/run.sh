#!/usr/bin/env bash
# Builds nmbench from source and runs it from the root of the checkout:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build leaves behind stays inside the checkout: the binary and
# the Go build cache go to .bench_build/, run records and span files to
# .bench_out/. The first build in a fresh checkout also compiles the standard
# library into that cache (about 10 s); later ones take under a second.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
mkdir -p .bench_build
export GOCACHE="${GOCACHE:-$root/.bench_build/gocache}"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C bench -o "$root/.bench_build/nmbench" .
exec "$root/.bench_build/nmbench" "$@"
