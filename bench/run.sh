#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload steady-rounds --seed 2024 --seconds 25 --trace 0
#
# Run from the repository root. The binary, the Go build cache, the go
# command's configuration and telemetry, and any trace files stay under
# .bench_build/ in the current directory, so a run writes nothing outside the
# checkout. The build needs the parent module's sources: without them it
# fails and the script exits non-zero.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd bench && go build -o "$out/ipda-perfbench" .)
exec "$out/ipda-perfbench" "$@"
