#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it:
#   bash perfbench/run.sh --workload fig12 --seed 1 --seconds 20 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOMODCACHE="$out/modcache" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
# The module replaces dolos with the checkout root; without the root's
# go.mod (a directory holding only the benchmark) this build fails.
(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
