#!/bin/sh
# Builds the benchmark from source and runs it with the arguments given.
# Everything the toolchain and the program write stays under .bench_build/
# in the checkout this script sits in.
set -eu
bench=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$bench" && go build -o "$build/pdpbench" .)
exec "$build/pdpbench" "$@"
