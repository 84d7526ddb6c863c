#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (once; later calls only re-check that it is current) and runs it
# from there. Everything go writes — build cache included — stays inside the
# checkout; nothing is downloaded: the bench module depends on the repository
# alone, through a replace directive.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$here" && go build -o "$build/h2obench" .) >&2
cd "$root"
exec "$build/h2obench" "$@"
