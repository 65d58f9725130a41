#!/usr/bin/env bash
# Builds the ledger benchmark from the source in this checkout and runs it
# with the given flags. Run from the repository root:
#
#   bash bench/ledger/run.sh --workload clone_cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout, and the Go toolchain is kept offline.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench/ledger build -o "$build/ledger" .
exec "$build/ledger" "$@"
