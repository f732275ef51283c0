#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it from the root
# of the checkout. Every build product, cache and toolchain setting
# lives under .bench_build, so a run writes nothing outside
# the checkout. Arguments are passed to the benchmark unchanged, e.g.
#
#	bash benchmark/run.sh -workload fleet -seed 3 -seconds 10 -trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C benchmark -o "$build/ckibenchmark" .
exec "$build/ckibenchmark" "$@"
