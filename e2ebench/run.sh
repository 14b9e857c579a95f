#!/usr/bin/env bash
# Builds the e2ebench program from source inside the checkout and runs it
# with the given arguments:
#
#   bash e2ebench/run.sh --workload stream-720p --seed 1 --seconds 52 --trace 0
#
# Every build artefact and Go cache lives under .bench_build/ in the
# directory the script is run from, so nothing is written outside it.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build_dir="$(pwd)/.bench_build"
mkdir -p "$build_dir/gocache" "$build_dir/gopath" "$build_dir/tmp" "$build_dir/home"

export GOCACHE="$build_dir/gocache"
export GOPATH="$build_dir/gopath"
export GOTMPDIR="$build_dir/tmp"
export HOME="$build_dir/home"
export XDG_CONFIG_HOME="$build_dir/home"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$bench_dir" && go build -o "$build_dir/e2ebench" .) >&2
exec "$build_dir/e2ebench" "$@"
