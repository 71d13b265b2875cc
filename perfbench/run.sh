#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --spread .bench_build/results
#
# Everything the build and the runs leave behind goes under
# .bench_build/ in the checkout: the Go build cache, the binary, the
# results files and the spans of traced runs.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

(cd perfbench && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
