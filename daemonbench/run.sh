#!/usr/bin/env bash
# Builds graphm-serve the way `make release` does (with default.pgo) and the
# benchmark driver, both from source, then runs one benchmark run. Run it
# from the repository root; every build product, cache and run artifact
# stays under .bench_build/.
#
#   bash daemonbench/run.sh --workload twitter-poisson --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/graphm-serve" ]; then
	echo "run.sh: no graphm source here (need go.mod and cmd/graphm-serve); run it from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home/go/telemetry"
# Telemetry off: otherwise the go command starts a detached upload process
# that outlives the build.
echo off >"$out/home/go/telemetry/mode"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS= GOPROXY=off

pgo=off
if [ -f "$root/default.pgo" ]; then
	pgo="$root/default.pgo"
fi
go build -pgo="$pgo" -o "$out/graphm-serve" ./cmd/graphm-serve >&2
(cd daemonbench && go build -pgo="$pgo" -o "$out/daemonbench" .) >&2
exec "$out/daemonbench" -serve-bin "$out/graphm-serve" -work-dir "$out" -bench-file BENCHMARK.json "$@"
