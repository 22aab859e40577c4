#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# from the checkout root. Everything the Go toolchain writes (build cache,
# module cache, the binary) and the benchmark's temporary stores and queues
# (TMPDIR) stay inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go"
export GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/slicc-bench" .
cd "$root"
exec "$build/slicc-bench" "$@"
