#!/usr/bin/env bash
# Builds retri-bench from this checkout and runs it with the given
# arguments. Run it from the repository root, e.g.
#
#   bash bench/run.sh --workload fig4-saturated --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ in the repository root, and the Go
# toolchain is never downloaded: the installed one builds it.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/go.mod not found)" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off
(cd bench && go build -o "$out/retri-bench" ./cmd/retri-bench)
exec "$out/retri-bench" "$@"
