#!/bin/sh
# run.sh builds the benchmark harness from source and runs it with the
# given arguments. Run it from the repository root:
#
#	sh bench/run.sh -workload figs-full -seed 1
#
# Every build artefact, cache and temporary file stays under .bench_build/
# in the current directory, and no module is fetched from the network.
set -eu
root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/tmp"
GOCACHE="$work/go-build" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" GOPATH="$work/gopath"
GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOENV=off
export GOCACHE GOTMPDIR TMPDIR GOPATH GOFLAGS GOTOOLCHAIN GOPROXY GOENV
(cd "$root/bench" && go build -o "$work/bench" .)
exec "$work/bench" -root "$root" -workdir "$work" "$@"
