#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sync --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, data directories and spans.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/cloud" ]]; then
	echo "perfbench: run from the repository root (no go.mod or internal/cloud here)" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out/perfbench-data" "$@"
