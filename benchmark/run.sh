#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ at the root of the
# checkout (Go's build cache is kept there too, so nothing is written
# outside the checkout) and runs it with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
export OMP4GO_BENCH_DIR="$here"
(cd "$here" && go build -o "$build/omp4go-bench" .)
exec "$build/omp4go-bench" "$@"
