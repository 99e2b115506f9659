#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the repository root) and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload tlp-large --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache, temporary files and the go command's
# user configuration (its env file and telemetry counters) stay inside
# .bench_build/, so a run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)
# Not exec: the benchmark reads its children's peak RSS, which must not
# include the compiler's.
"$out/perfbench" "$@"
