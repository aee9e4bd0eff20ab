#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout root. The binary, the Go build cache
# and every scratch file stay under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload tab3 --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh -runs 5 -out rec.json        # all four workloads
#   bash perfbench/run.sh -compare base.json change.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
