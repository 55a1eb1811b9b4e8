#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it:
#
#   bash perfbench/run.sh --workload ibd --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# the runs' scratch state stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
go -C "$root/perfbench" build -o "$out/perfbench" .
rm -rf "$out/work" # state a killed run left behind
exec "$out/perfbench" -commit "$commit" -work "$out/work" "$@"
