#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it
# with the given arguments from the checkout's root. Everything the
# build and the run write — Go's build cache included — stays under
# .bench_build/ in the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

# bench/ is a module of its own that replaces keysearch with the
# checkout around it, so this fails (and nothing runs) where the
# program under test is missing.
(cd "$here" && go build -o "$build/bench" .)

cd "$root"
exec "$build/bench" "$@"
