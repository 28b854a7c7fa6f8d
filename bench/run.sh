#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the repository root:
#
#   bash bench/run.sh --workload paper-mcck --seed 11 --seconds 10 --trace 0
#
# Everything the build and the run write (build cache, binary, profiles, the
# go command's config and telemetry files) stays under .bench_build in the
# repository root. The toolchain is used as installed: no toolchain or module
# download is attempted.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export PPROF_TMPDIR="$out/profiles"

go -C bench build -o "$out/phishare-bench" .
exec "$out/phishare-bench" "$@"
