#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload run-hot --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary and the span files all
# stay under .bench_build at the checkout root. A failed build exits
# non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
