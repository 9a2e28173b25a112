#!/usr/bin/env bash
# Builds rfserverd and the benchmark from this checkout, then runs one
# benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload derived_reports --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work" "$out/gocache" "$out/gopath" "$out/xdg"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/xdg" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# Turn Go telemetry off first: otherwise the go command starts a detached
# telemetry child process that can outlive this script.
go telemetry off
go build -o "$out/bin/rfserverd" ./cmd/rfserverd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server "$out/bin/rfserverd" -work "$out/work" "$@"
