#!/usr/bin/env bash
# The benchmark's one command. Builds the generator (a module of its own in
# this directory) and runs it; the generator builds the two servers. Every
# file the build and the run write stays under <repo>/.bench_build and
# <repo>/bench/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/xdg"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -root "$root" "$@"
