#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload write-wi --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set) in the current directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOWORK=off
if [ -d .git ] && command -v git >/dev/null; then
	BENCH_GIT_REV="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
	export BENCH_GIT_REV
fi
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --data "$out/data" "$@"
