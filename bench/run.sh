#!/bin/sh
# Builds and runs the benchmark from the root of a checkout. The go build
# cache is kept inside the checkout, under .bench_build, so a run reads and
# writes nothing outside it; the first run of a checkout compiles the
# standard library into it.
set -e
mkdir -p .bench_build
GOCACHE="$PWD/.bench_build/go-cache"
export GOCACHE
exec go run -C bench . "$@"
