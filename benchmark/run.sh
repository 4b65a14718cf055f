#!/usr/bin/env bash
# Builds alpserved, alpclusterd and the benchmark program from the
# checkout in the current directory, then runs the program with the
# arguments given, for example:
#
#   bash benchmark/run.sh --workload agg-wide --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build in that
# directory, the Go build cache included. Outside a full checkout the
# build fails and the script exits non-zero without a result.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# With telemetry in its default "local" mode every go command may fork
# a detached telemetry process that outlives it; "off" starts none.
mkdir -p "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode"

go build -o "$out/bin/alpserved" ./cmd/alpserved
go build -o "$out/bin/alpclusterd" ./cmd/alpclusterd
(cd benchmark && go build -o "$out/bin/benchmark" .)
exec "$out/bin/benchmark" -bin "$out/bin" -out "$out" -spec BENCHMARK.json "$@"
