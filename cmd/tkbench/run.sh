#!/usr/bin/env bash
# Builds tkbench from the checkout it is run in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash cmd/tkbench/run.sh --workload keypress --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the go command's own settings and
# telemetry, and the binary all stay under .bench_build/ in the checkout,
# and no module is fetched.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/cmd/tkbench" && go build -o "$build/tkbench" .)
exec "$build/tkbench" "$@"
