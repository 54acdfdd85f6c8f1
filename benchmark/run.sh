#!/usr/bin/env bash
# Builds the benchmark (a module of its own, see go.mod) and runs it with the
# arguments given. Everything the build leaves behind, Go's build cache
# included, goes to .bench_build at the root of the checkout, so that a run
# writes nothing outside it; the binary is linked once per checkout, not once
# per run as `go run` would.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/hare-benchmark" .)
exec "$build/hare-benchmark" "$@"
