#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the benchmark from source into
# .bench_build/ of the checkout and runs it with the given arguments.
# Everything the build and the run write (Go's build cache and work
# directory included) stays under .bench_build/, so a run leaves nothing
# outside the checkout. The tenplex-store and tenplex-coordd binaries
# are built by the program itself, only for the workload that forks them.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOFLAGS="-buildvcs=false"

(cd "$here" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" "$@"
