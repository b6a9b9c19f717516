#!/bin/sh
# Builds adhocbench from source and runs it with the given arguments.
#
# Run from the repository root:
#
#	sh cmd/adhocbench/bench.sh                      # all workloads, writes bench-out/
#	sh cmd/adhocbench/bench.sh --workload uniform-16k --seed 3 --seconds 10 --trace 0
#
# Every file the build touches stays under .bench_build/ in the current
# directory: the Go build cache, a private GOPATH, the go command's config
# directory (its telemetry counters) and the binary. The module needs only
# the standard library and the parent module (replace ../..), so the build
# never reaches a network. The build fails, and the script exits non-zero
# without output on stdout, when the parent module is absent.
set -eu

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go -C "$root/cmd/adhocbench" build -o "$build/adhocbench" . >&2

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$build/adhocbench" -commit "$commit" "$@"
